"""Exact rational matrix helpers built on the integer kernels.

Matrices are lists of rows with int or Fraction entries.  Everything here
is exact; floating point never enters this module.  ``charpoly`` and
``mat_mul`` are the kernels' own functions, re-exported; ``rref``,
``rank`` and ``nullspace`` clear denominators and hand integer rows to
``kernels``; the ``poly_*`` helpers work on ascending coefficient lists.
``ColumnSolver`` is
the one place that turns vectors into coordinates against a column basis,
and ``SpanBuilder`` grows a canonical row span one vector at a time.
"""

from fractions import Fraction
from math import gcd

from .kernels import charpoly, int_nullspace, int_rref, mat_mul

__all__ = [
    "charpoly",
    "mat_mul",
    "clear_denominators",
    "nullspace",
    "rref",
    "rank",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_eye",
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
    "ColumnSolver",
    "SpanBuilder",
]


def clear_denominators(row):
    """Scale a row of rationals to a primitive integer row (row-space safe)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    out = [int(x * den) if isinstance(x, Fraction) else x * den for x in row]
    g = 0
    for x in out:
        if x:
            g = gcd(g, abs(x))
            if g == 1:
                break
    if g > 1:
        out = [x // g for x in out]
    return out


def nullspace(rows, ncols=None):
    """Right-kernel basis (primitive integer vectors) of a rational matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    int_rows = [clear_denominators(r) for r in rows]
    return int_nullspace(int_rows, ncols)


def rref(rows):
    """Canonical primitive-integer RREF rows of a rational matrix."""
    if not rows:
        return [], []
    int_rows = [clear_denominators(r) for r in rows]
    return int_rref(int_rows)


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[0])


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def mat_eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


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


class ColumnSolver:
    """Repeated exact solves of B x = v against a fixed column basis.

    Row-reduces the augmented block [B | I] once; each later solve is a
    single matrix-vector product.  Any row combination (r | e) of the
    augmented block satisfies r = e B, so pivot rows read off coordinates
    and zero rows are membership constraints.
    """

    def __init__(self, columns, nrows=None):
        self.m = len(columns)
        self.n = len(columns[0]) if columns else (nrows or 0)
        aug = []
        for i in range(self.n):
            row = [columns[j][i] for j in range(self.m)]
            row += [Fraction(int(i == j)) for j in range(self.n)]
            aug.append(clear_denominators(row))
        red, pivots = int_rref(aug) if aug else ([], [])
        self._coord_rows = []
        self._null_rows = []
        for row, piv in zip(red, pivots):
            e = row[self.m :]
            if piv < self.m:
                self._coord_rows.append((piv, row[piv], e))
            else:
                self._null_rows.append(e)

    def solve(self, v):
        """Coordinates of v in the column span, or None if outside."""
        support = [(i, vi) for i, vi in enumerate(v) if vi]
        for e in self._null_rows:
            if sum(e[i] * vi for i, vi in support):
                return None
        coords = [Fraction(0)] * self.m
        for piv, val, e in self._coord_rows:
            num = sum(e[i] * vi for i, vi in support)
            coords[piv] = Fraction(num) / val
        return coords

    def block(self, images, keep=None):
        """Coordinate block of a list of images.

        Column j holds the first ``keep`` (default all) coordinates of
        ``images[j]``; a None image is a zero column.  Returns None if an
        image lies outside the column span.
        """
        keep = self.m if keep is None else keep
        out = [[Fraction(0)] * len(images) for _ in range(keep)]
        for j, img in enumerate(images):
            if img is None:
                continue
            coords = self.solve(img)
            if coords is None:
                return None
            for i in range(keep):
                out[i][j] = coords[i]
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
                vec = [a * p - b * v for a, b in zip(vec, row)]
                g = 0
                for x in vec:
                    if x:
                        g = gcd(g, abs(x))
                        if g == 1:
                            break
                if g > 1:
                    vec = [x // g for x in vec]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        if vec[piv] < 0:
            vec = [-x for x in vec]
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, piv)
        return True

    def basis(self):
        return [list(r) for r in self.rows]
