"""Oracles shared by several test modules: hook-tableau counts and hook
data built on the package's partitions, dense views of one-slot tensor
operators to compare the package's sparse core against, exact
coordinates by sympy, which shares no code with the package's solves,
the reduced echelon form by Gauss-Jordan elimination, which the kernel
basis is checked against, realizations with every block read off their
source (polynomial modules so read off the Pieri ambient), the Verma
straightening by two recursions, one that applies a unit and one that
re-sorts a lowering generator into a monomial, the Verma module truncated
by monomial length, whose quotient the height truncation is checked
against, the Gram matrices of the contravariant form on a truncated Verma
module, whose kernels the package's radical recursion is checked against, the KZ curvature by
finite differences written out pair by pair, the KZ right-hand side with
every temporary allocated per call, and the Lax terms read word by word
through a table of distinct words."""

from fractions import Fraction
from functools import cache
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

import numpy as np
import sympy

from supergaudin.algebra import (
    AlgebraElement,
    BasisElement,
    bracket_units,
    off_diagonal_units,
    star_omega,
)
from supergaudin.linalg import SpanBuilder, echelon_block
from supergaudin.modules import (
    ExplicitModule,
    NaturalModule,
    TensorModule,
    _TruncatedVerma,
    _VermaBuilder,
    deficit_height,
    polynomial_highest_weight,
    singular_space,
)
from supergaudin.partitions import Partition, hook_tableau_contents, partition_from_hook_data


def hook_tableau_dimension(shape, m, n):
    """Total number of (m|n)-hook tableaux of the shape."""
    return sum(hook_tableau_contents(shape, m, n).values())


def hook_weight_to_partition(w, m, n):
    """Invert the super-side hook weight map (level ignored)."""
    rows = [w(2 * i) for i in range(1, m + 1)]
    cols = [w(2 * j - 1) for j in range(1, n + 1)]
    return partition_from_hook_data(m, n, rows, cols)


def slot_act(tensor, gen, slot, w):
    """Dense block of gen^{(slot)} on the w-space of a tensor, read off its
    column-sparse ``slot_act_sparse`` block; (target weight, fresh matrix)
    or None."""
    sparse = tensor.slot_act_sparse(gen, slot, w)
    if sparse is None:
        return None
    target, nrows, cols = sparse
    block = [[0] * len(cols) for _ in range(nrows)]
    for c, entries in enumerate(cols):
        for r, val in entries:
            block[r][c] += val
    return target, block


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def _exact(x):
    """A sympy rational as an int where integral, else a Fraction."""
    return int(x) if x.is_Integer else Fraction(int(x.p), int(x.q))


def solve_coordinates(basis, images):
    """Coordinates of each image against independent basis vectors, one
    list per image, solved by sympy; None for an image outside the span."""
    if not basis:
        return [None if any(img) else [] for img in images]
    B = sympy.Matrix([list(vec) for vec in basis]).T
    out = []
    for img in images:
        try:
            sol, params = B.gauss_jordan_solve(sympy.Matrix(list(img)))
        except ValueError:
            out.append(None)
            continue
        assert not params, "dependent basis"
        out.append([_exact(x) for x in sol])
    return out


def _primitive(row):
    """A row of ints divided by the gcd of its entries, leading entry > 0."""
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    lead = next((x for x in row if x), 0)
    return [-x for x in row] if lead < 0 else row


def int_rref(rows):
    """Reduced echelon form of a rational matrix by Gauss-Jordan
    elimination, each row scaled to a primitive integer vector with a
    positive pivot: ``(reduced_rows, pivot_columns)``, canonical for the
    row space.  The package eliminates incrementally instead, in
    ``kernels.SpanBuilder``."""
    work = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        if any(row):
            work.append([int(x * den) for x in row])
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for r, row in enumerate(work):
            v = row[col]
            if r != rank and v:
                work[r] = _primitive([a * prow[col] - b * v for a, b in zip(row, prow)])
        work[rank] = _primitive(prow)
        pivots.append(col)
    return work[: len(pivots)], pivots


def gram_matrices(verma):
    """Contravariant form of the PBW basis on every weight space of
    ``verma.heights``.

    Returns {w: G_w} for every w in ``verma.heights``, where
    G_w[M, N] = the coefficient of the empty monomial in omega(M) N v and
    omega reverses a monomial and transposes each factor with the
    star-structure signs.  Position 0 of a monomial acts last, so omega
    applies it first: for M = (m0,) + M' and w' = w - shift(f_{m0}),

        G_w[M, N] = sum_K G_{w'}[M', K] * A[K, N],

    where column N of A is omega(f_{m0}) N v in the PBW basis of w'.  The
    weight w' lies above w, so its deficit height is smaller, and M' is an
    ordered monomial of w' that indexes a row of G_{w'}.  Built in order of deficit height from
    G_xi = [[1]], every G_{w'} is ready when G_w reads it.  The package
    reads the radical off the simple raising units instead, in
    ``modules._radical_recursion``; these kernels are its reference.
    """
    builder = verma._builder
    omegas = [star_omega(AlgebraElement({key: 1})).terms for key in builder.gens]
    grams = {}
    for w in sorted(verma.heights, key=verma.heights.get):
        monos = verma.labels[w]
        if monos == ((),):
            grams[w] = [[1]]
            continue
        gram = []
        for m0, lefts in groupby(monos, key=itemgetter(0)):
            above = w - builder.gen_shift[m0]
            rows, index = grams[above], verma._index[above]
            columns = [
                [(index[k], v) for k, v in builder._elem_act(omegas[m0], right).items()]
                for right in monos
            ]
            for left in lefts:
                row = rows[index[left[1:]]]
                gram.append([sum(row[k] * v for k, v in col) for col in columns])
        grams[w] = gram
    return grams


def length_monomials(builder, depth):
    """The ordered monomials of length <= depth (odd generators square to
    0), as (monomial, weight) pairs, one length at a time; stops at the
    first length with no monomials."""
    frontier = [((), builder.xi)]
    out = list(frontier)
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for mono, w in frontier:
            start = mono[-1] if mono else 0
            for g in range(start, len(builder.gens)):
                if builder.gen_parity[g] and mono and mono[-1] == g:
                    continue
                nxt.append((mono + (g,), w + builder.gen_shift[g]))
        out.extend(nxt)
        frontier = nxt
    return out


class LengthTruncatedVerma(_TruncatedVerma):
    """Span of the PBW monomials of length <= depth.

    A weight of deficit height above the depth holds only part of its
    Verma weight space here.  ``heights`` maps only the weights of deficit
    height <= depth, read one by one by ``deficit_height``, whose spaces
    are whole; the radical recursion and the quotient read those alone."""

    def __init__(self, index_set, xi, depth):
        init = object.__setattr__
        init(self, "index_set", index_set)
        init(self, "level", xi.level)
        init(self, "highest_weight", xi)
        init(self, "depth", depth)
        builder = _VermaBuilder(index_set, xi)
        init(self, "_builder", builder)
        by_weight = {}
        for mono, w in length_monomials(builder, depth):
            by_weight.setdefault(w, []).append(mono)
        labels = {w: tuple(sorted(m)) for w, m in by_weight.items()}
        init(self, "labels", labels)
        init(self, "_dims", {w: len(m) for w, m in labels.items()})
        init(self, "_index", {w: {mono: i for i, mono in enumerate(m)} for w, m in labels.items()})
        heights = {w: deficit_height(index_set, xi, w) for w in labels}
        init(self, "heights", {w: h for w, h in heights.items() if h is not None and h <= depth})


def restrict_to_basis(mat, basis):
    """An operator on the span of basis vectors, as the matrix whose column
    k holds the coordinates of mat applied to basis vector k; ValueError if
    the span is not invariant."""
    images = [[sum(row[c] * x for c, x in enumerate(vec)) for row in mat] for vec in basis]
    coords = solve_coordinates(basis, images)
    if any(col is None for col in coords):
        raise ValueError("subspace is not invariant under the operator")
    return [list(row) for row in zip(*coords)]


def flatness_residual_fd(system, point, h):
    """max over i < j of |d_i H^j - d_j H^i - (1/kappa)[H^i, H^j]| at complex
    points, each derivative a central difference of step h, with every
    shifted point built out in full."""
    z = [complex(x) for x in point]
    kappa = complex(system.kappa)
    worst = 0.0
    for i in range(1, system.ell + 1):
        for j in range(i + 1, system.ell + 1):
            zp = list(z)
            zm = list(z)
            zp[i - 1] += h
            zm[i - 1] -= h
            di_hj = (system.hamiltonian_float(j, zp) - system.hamiltonian_float(j, zm)) / (2 * h)
            zp = list(z)
            zm = list(z)
            zp[j - 1] += h
            zm[j - 1] -= h
            dj_hi = (system.hamiltonian_float(i, zp) - system.hamiltonian_float(i, zm)) / (2 * h)
            hi = system.hamiltonian_float(i, z)
            hj = system.hamiltonian_float(j, z)
            resid = di_hj - dj_hi - (hi @ hj - hj @ hi) / kappa
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def segment_rhs(system, p, q):
    """The right-hand side of ``KZSystem._segment_rhs`` along the segment
    from p to q, allocating every temporary on each call: the
    coefficients, their real and imaginary parts stacked for one matmul
    with the stack of blocks, and the real block matrix of the
    connection."""
    p = np.asarray(p, dtype=complex)
    omega, num, base, slope = system._live_pairs(p, np.asarray(q, dtype=complex) - p)
    d = system.dim
    flat = omega.reshape(len(num), d * d)

    def rhs(t, y):
        coef = num / (base + t * slope)
        re, im = (np.stack((coef.real, coef.imag)) @ flat).reshape(2, d, d)
        field = np.block([[re, -im], [im, re]])
        return (field @ y.reshape(2 * d, -1)).ravel()

    return rhs


def realize_every_unit(index_set, level, dims, block_of, provenance, **meta):
    """An ExplicitModule over the weights of ``dims`` whose blocks are the
    (target weight, block) pairs ``block_of(gen, w)`` returns for every
    off-diagonal unit gen, none derived; None and all-zero blocks are
    dropped.  ``meta`` describes the realization."""
    blocks = {}
    for gen in off_diagonal_units(index_set):
        for w in dims:
            res = block_of(gen, w)
            if res is not None and any(map(any, res[1])):
                blocks[(gen.key(), w)] = res
    return ExplicitModule(index_set, level, dims, blocks, provenance, **meta)


@cache
def ambient_polynomial_module(index_set, lam):
    """V_lam by the Pieri recursion, with the block of every off-diagonal
    unit read off the ambient V_{lam^-} (x) V: the coproduct applied to the
    basis of each weight space of the cyclic span, then ``echelon_block``.
    Parents come from this oracle too, never from ``polynomial_module``;
    memoized, as modules are immutable."""
    hw = polynomial_highest_weight(index_set, lam)
    factors = [NaturalModule(index_set)]
    if lam.size > 1:
        parts = list(lam.parts)
        parts[-1] -= 1
        factors.insert(0, ambient_polynomial_module(index_set, Partition(parts)))
    amb = TensorModule(factors)
    sing = singular_space(amb, hw)
    assert sing.dim == 1
    spans = {hw: SpanBuilder(amb.dim(hw))}
    spans[hw].add(sing.basis[0])
    frontier = [(hw, list(sing.basis[0]))]
    lowering = [BasisElement(b, a) for a, b in index_set.simple_pairs()]
    while frontier:
        w, vec = frontier.pop()
        for gen in lowering:
            res = amb.apply(amb.coproduct(gen), w, [vec])
            if res is None:
                continue
            target, (img,) = res
            if target not in spans:
                spans[target] = SpanBuilder(amb.dim(target))
            if spans[target].add(img):
                frontier.append((target, img))
    bases = {w: sb.basis() for w, sb in spans.items() if len(sb)}

    def block_of(gen, w):
        res = amb.apply(amb.coproduct(gen), w, bases[w])
        if res is None or not any(map(any, res[1])):
            return None
        target, images = res
        sub = echelon_block(bases[target], spans[target].pivots, images)
        assert sub is not None, "cyclic submodule is not invariant"
        return target, sub

    dims = {w: len(b) for w, b in bases.items()}
    return realize_every_unit(index_set, 0, dims, block_of, "polynomial", highest_weight=hw, shape=lam)


class ReferenceStraightening(_VermaBuilder):
    """The Verma straightening by two memoized recursions: ``act`` commutes
    any unit, a lowering one included, through the whole monomial, and
    ``insert`` re-sorts the generators it leaves in front.  Generators,
    monomials and ``_elem_act`` are the package builder's."""

    def __init__(self, index_set, xi):
        super().__init__(index_set, xi)
        self.pos = {h.doubled: i for i, h in enumerate(index_set)}
        self._act_memo = {}
        self._ins_memo = {}

    def act(self, key, mono):
        memo_key = (key, mono)
        cached = self._act_memo.get(memo_key)
        if cached is not None:
            return cached
        r, c = key
        if not mono:
            if r == c:
                val = self.xi(r)
                out = {(): val} if val else {}
            elif self.pos[r] > self.pos[c]:
                out = {(self.gen_index[key],): 1}
            else:
                out = {}
        else:
            head, rest = mono[0], mono[1:]
            out = self._elem_act(bracket_units(r, c, *self.gens[head]), rest)
            sign = -1 if (((r & 1) ^ (c & 1)) and self.gen_parity[head]) else 1
            for mm, v in self.act(key, rest).items():
                for m2, v2 in self.insert(head, mm).items():
                    val = sign * v * v2
                    if val:
                        out[m2] = out.get(m2, 0) + val
            out = {k: v for k, v in out.items() if v}
        self._act_memo[memo_key] = out
        return out

    def insert(self, g, mono):
        """Normal-ordered product of generator g with an ordered monomial."""
        if not mono or g < mono[0]:
            return {(g,) + mono: 1}
        if g == mono[0]:
            if self.gen_parity[g]:
                return {}
            return {(g,) + mono: 1}
        memo_key = (g, mono)
        cached = self._ins_memo.get(memo_key)
        if cached is not None:
            return cached
        head, rest = mono[0], mono[1:]
        out = self._elem_act(bracket_units(*self.gens[g], *self.gens[head]), rest)
        sign = -1 if (self.gen_parity[g] and self.gen_parity[head]) else 1
        for mm, v in self.insert(g, rest).items():
            for m2, v2 in self.insert(head, mm).items():
                val = sign * v * v2
                if val:
                    out[m2] = out.get(m2, 0) + val
        out = {k: v for k, v in out.items() if v}
        self._ins_memo[memo_key] = out
        return out


def word_table_on_weight_spaces(tensor, terms):
    """The Lax terms on every weight space, word by word: {w: {key: rows}}
    of partial-fraction terms given as (scalar, word) lists.  On each
    weight space each distinct word is read once, by one ``apply`` over
    the unit columns, and scalar times its image goes into every term that
    carries it; the words of one term must end in one weight, and all-zero
    terms drop."""
    # number the distinct words once, so no word is hashed per weight
    ids = {}
    terms = {
        key: [(s, ids.setdefault(tuple(word), len(ids))) for s, word in pairs]
        for key, pairs in terms.items()
    }
    out = {}
    for w in tensor.weights():
        d = tensor.dim(w)
        units = [[int(r == c) for r in range(d)] for c in range(d)]
        images = []
        for word in ids:
            res = tensor.apply([(1, word)], w, units)
            if res is not None:
                target, cols = res
                res = target, [(r, c, x) for c, col in enumerate(cols) for r, x in enumerate(col) if x]
            images.append(res)
        out[w] = {}
        for key, pairs in terms.items():
            hits = [(s, images[i]) for s, i in pairs if images[i] is not None]
            if not hits:
                continue
            target = hits[0][1][0]
            if any(image[0] != target for _, image in hits):
                raise ValueError("the words end in different weights")
            rows = [[0] * d for _ in range(tensor.dim(target))]
            for s, (_, entries) in hits:
                for r, c, x in entries:
                    rows[r][c] += s * x
            if any(map(any, rows)):
                out[w][key] = rows
    return out
