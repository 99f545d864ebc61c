"""Exact rational matrix helpers built on the integer kernels.

Matrices are lists of rows with int or Fraction entries.  Everything here
is exact; floating point never enters this module.  ``charpoly`` and
``mat_mul`` are the kernels' own functions, re-exported; ``nullspace``
clears denominators and hands integer rows to ``kernels``; the
``poly_*`` helpers work on ascending coefficient lists.
``echelon_block`` is the one place that turns vectors into coordinates
against a basis, which every caller builds in echelon form, and
``SpanBuilder`` grows a canonical row span one vector at a time.
"""

from fractions import Fraction
from math import lcm

from .kernels import _row_primitive, charpoly, int_nullspace, mat_mul

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


def clear_denominators(row):
    """Scale a row of rationals to a primitive integer row whose leading
    nonzero entry is positive (row-space safe)."""
    den = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
    return _row_primitive([int(x * den) if isinstance(x, Fraction) else x * den for x in row])


def nullspace(rows, ncols):
    """Right-kernel basis (primitive integer vectors) of a rational matrix
    with ``ncols`` columns, in the order of ``kernels.int_nullspace``."""
    int_rows = [clear_denominators(r) for r in rows]
    return int_nullspace(int_rows, ncols)


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


class SpanBuilder:
    """Incremental exact row span with canonical reduction.

    Rows are kept as primitive integer vectors in echelon order; adding a
    vector reduces it against the current span and reports whether it was
    new.  Deterministic given the insertion sequence.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def __len__(self):
        return len(self.rows)

    def add(self, vec):
        """Insert a vector (ints or Fractions); True if the span grew."""
        vec = clear_denominators(list(vec))
        for row, piv in zip(self.rows, self.pivots):
            v = vec[piv]
            if v:
                p = row[piv]
                vec = _row_primitive([a * p - b * v for a, b in zip(vec, row)])
        # every step above leaves the leading nonzero entry positive
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, piv)
        return True

    def basis(self):
        return [list(r) for r in self.rows]
