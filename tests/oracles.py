"""Oracles shared by several test modules: hook-tableau counts and hook
data built on the package's partitions, dense views of one-slot tensor
operators to compare the package's sparse core against, exact
coordinates by sympy, which shares no code with the package's solves,
polynomial modules with every block read off the Pieri ambient, and the
Verma straightening by two recursions, one that applies a unit and one
that re-sorts a lowering generator into a monomial, and the KZ curvature
by finite differences written out pair by pair."""

from fractions import Fraction
from functools import cache

import numpy as np
import sympy

from supergaudin.algebra import BasisElement, bracket_units
from supergaudin.linalg import SpanBuilder, echelon_block
from supergaudin.modules import (
    NaturalModule,
    TensorModule,
    _position,
    _realize,
    _VermaBuilder,
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
    return _realize(index_set, 0, dims, block_of, "polynomial", highest_weight=hw, shape=lam)


class ReferenceStraightening(_VermaBuilder):
    """The Verma straightening by two memoized recursions: ``act`` commutes
    any unit, a lowering one included, through the whole monomial, and
    ``insert`` re-sorts the generators it leaves in front.  Generators,
    monomials and ``_elem_act`` are the package builder's."""

    def __init__(self, index_set, xi):
        super().__init__(index_set, xi)
        self.pos = _position(index_set)
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
