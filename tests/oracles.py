"""Oracles shared by several test modules: hook-tableau counts and hook
data built on the package's partitions, dense views of one-slot tensor
operators to compare the package's sparse core against, exact
coordinates by sympy, which shares no code with the package's solves, and
polynomial modules with every block read off the Pieri ambient."""

from fractions import Fraction
from functools import cache

import sympy

from supergaudin.algebra import BasisElement
from supergaudin.linalg import SpanBuilder, echelon_block
from supergaudin.modules import (
    NaturalModule,
    TensorModule,
    _realize,
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
