"""Exact rational matrix helpers built on the kernels.

Matrices are lists of rows with int or Fraction entries.  Everything here
is exact; floating point never enters this module.  ``charpoly``,
``mat_mul``, ``clear_denominators`` and ``SpanBuilder`` are the kernels'
own, re-exported, and so is ``nullspace``, which is
``kernels.int_nullspace``: ``SpanBuilder.add`` is the one row
elimination, growing an echelon row span one vector at a time, and the
kernel is read off its rows.  The ``poly_*`` helpers work on ascending
coefficient lists.  ``echelon_block`` is the one place that turns vectors
into coordinates against a basis, which every caller builds in echelon
form.
"""

from fractions import Fraction

from .kernels import SpanBuilder, charpoly, clear_denominators, mat_mul
from .kernels import int_nullspace as nullspace

__all__ = [
    "charpoly",
    "mat_mul",
    "clear_denominators",
    "nullspace",
    "mat_add",
    "mat_sub",
    "mat_zeros",
    "is_zero_matrix",
    "max_abs",
    "commutator",
    "poly_derivative",
    "poly_divmod",
    "poly_gcd",
    "poly_squarefree_part",
    "poly_eval_matrix",
    "poly_shift",
    "squarefree_certificate",
    "end_columns",
    "echelon_block",
    "SpanBuilder",
]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def is_zero_matrix(A):
    return all(not x for row in A for x in row)


def max_abs(A):
    """Exact max-norm of a matrix (a Fraction)."""
    best = Fraction(0)
    for row in A:
        for x in row:
            v = -x if x < 0 else x
            if v > best:
                best = Fraction(v)
    return best


def commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def end_columns(basis):
    """The last nonzero column of each basis vector, checked to be an
    ``echelon_block`` pivot: ValueError if a vector is zero or a later
    vector is nonzero at an earlier vector's last column.  A basis from
    ``nullspace`` always passes."""
    ends = [max((i for i, x in enumerate(vec) if x), default=None) for vec in basis]
    for k, end in enumerate(ends):
        if end is None or any(vec[end] for vec in basis[k + 1 :]):
            raise ValueError("basis is not in end-column form at vector %d" % k)
    return ends


def echelon_block(basis, pivots, images):
    """Coordinate block of ``images`` against an echelon basis.

    ``pivots[k]`` is a column where ``basis[k]`` is nonzero and every later
    basis vector is zero, so coordinates read off by substitution in basis
    order: coordinate k is the residual at ``pivots[k]`` over
    ``basis[k][pivots[k]]``, and that multiple of ``basis[k]`` leaves the
    residual.  Column j holds the coordinates of ``images[j]``; a None
    image is a zero column.  Entries are ints where integral.  Returns None
    if an image leaves a nonzero residual, that is, lies outside the span.
    """
    sparse = [[(i, x) for i, x in enumerate(vec) if x] for vec in basis]
    heads = [vec[piv] for vec, piv in zip(basis, pivots)]
    out = [[0] * len(images) for _ in basis]
    for j, img in enumerate(images):
        if img is None:
            continue
        res = list(img)
        for k, piv in enumerate(pivots):
            num = res[piv]
            if not num:
                continue
            quo, rem = divmod(num, heads[k])
            coeff = out[k][j] = Fraction(num, heads[k]) if rem else quo
            for i, x in sparse[k]:
                res[i] -= coeff * x
        if any(res):
            return None
    return out


def poly_derivative(p):
    return [k * p[k] for k in range(1, len(p))]


def poly_divmod(a, b):
    """Division with remainder for coefficient lists (ascending order)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while b and not b[-1]:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < db:
            break
        c = r[-1] / lead
        d = len(r) - 1 - db
        q[d] = c
        for i in range(len(b)):
            r[i + d] -= c * b[i]
        r.pop()
    while r and not r[-1]:
        r.pop()
    return q, r


def poly_gcd(a, b):
    """Monic gcd of two rational coefficient lists (ascending order)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while b and not b[-1]:
        b.pop()
    while a and not a[-1]:
        a.pop()
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
        while b and not b[-1]:
            b.pop()
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


def poly_squarefree_part(p):
    """Monic squarefree part p / gcd(p, p')."""
    g = poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        lead = p[-1]
        return [x / lead for x in p]
    q, r = poly_divmod(p, g)
    assert not any(r)
    lead = q[-1]
    return [x / lead for x in q]


def poly_eval_matrix(p, A):
    """Evaluate a coefficient list at a square matrix (Horner)."""
    n = len(A)
    out = mat_zeros(n, n)
    for c in reversed(p):
        out = mat_mul(out, A)
        for i in range(n):
            out[i][i] += c
    return out


def poly_shift(p, s):
    """Coefficients of ``p(t + s)`` from those of ``p(t)``."""
    out = [Fraction(0)] * len(p)
    for k in range(len(p) - 1, -1, -1):
        for j in range(len(p) - 1, 0, -1):
            out[j] = out[j - 1] + s * out[j]
        out[0] = s * out[0] + p[k]
    return out


def squarefree_certificate(A):
    """Exact diagonalizability certificate over the rationals.

    Evaluates the squarefree part of the characteristic polynomial at the
    matrix; the matrix is diagonalizable over an algebraic closure iff the
    result vanishes.  Returns ``(ok, squarefree_coeffs)``.
    """
    p = charpoly(A)
    sf = poly_squarefree_part(p)
    return is_zero_matrix(poly_eval_matrix(sf, A)), sf
