"""Exact linear-algebra kernels.

These are the hot inner loops of the whole package: row elimination
(singular spaces, Verma radicals, Krylov spans), dense matrix products
(commutator checks) and exact characteristic polynomials by Berkowitz's
division-free recursion.  They are plain Python on Python ints and
Fractions (the char poly clears denominators and then works on ints
alone); this module is their one implementation.

``SpanBuilder.add`` is the one row elimination: it clears a row's
denominators and reduces it against echelon rows of primitive integers,
using row operations only.  ``int_nullspace`` reads the right kernel off
those rows by back-substitution, normalized so that it depends on the
row space alone.

``BACKEND`` names the implementation for records that outlive a run: the
benchmark stamps it into every result and refuses to compare results
stamped with different backends.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul

BACKEND = "python"


def mat_mul(A, B):
    """Dense product of two matrices (lists of rows, int or Fraction)."""
    n = len(A)
    if n == 0:
        return []
    k = len(B)
    m = len(B[0]) if k else 0
    if len(A[0]) != k:
        raise ValueError("shape mismatch in mat_mul")
    Bcols = [[B[r][c] for r in range(k)] for c in range(m)]
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for c in range(m):
            Bc = Bcols[c]
            acc = 0
            for r in range(k):
                a = Ai[r]
                if a:
                    acc += a * Bc[r]
            row.append(acc)
        out.append(row)
    return out


def _row_primitive(row):
    """Divide a row of ints by the gcd of its entries; make leading entry > 0."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, abs(x) if isinstance(x, int) else abs(int(x)))
            if g == 1:
                break
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def clear_denominators(row):
    """Scale a row of rationals to a primitive integer row whose leading
    nonzero entry is positive (row-space safe).  Entries are ints or
    Fractions, tested by exact type: ``Fraction`` is an ABC, and an
    ``isinstance`` test on it costs a Python-level call per entry.  A row
    of ints alone is not scaled, and comes back as the same list when it
    is already primitive with a positive leading entry."""
    dens = [x.denominator for x in row if type(x) is Fraction]
    if not dens:
        return _row_primitive(row)
    den = lcm(*dens)
    return _row_primitive([int(x * den) if type(x) is Fraction else x * den for x in row])


class SpanBuilder:
    """Incremental exact row span in echelon form: the one row elimination.

    Rows are primitive integer vectors with a positive pivot (leading
    entry), sorted by pivot; they are not reduced above their pivots, so
    they depend, deterministically, on the insertion order.
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
        pos = bisect_left(self.pivots, piv)
        self.rows.insert(pos, vec)
        self.pivots.insert(pos, piv)
        return True

    def basis(self):
        return [list(r) for r in self.rows]


def int_nullspace(rows, ncols):
    """Primitive integer basis of the right kernel of a rational matrix.

    One vector per free column f of the ``SpanBuilder`` rows, in ascending
    order: 1 at f, 0 at every other free column, and its pivot entries by
    back-substitution up the rows (a row pivoting right of f meets only
    zeros), kept integral, then made primitive with a positive leading
    entry (``int_nullspace([[1, 1]], 2) == [[1, -1]]``).  That vector is
    unique, so the basis depends on the row space alone; each vector ends
    at its free column, the echelon form ``linalg.echelon_block`` reads.
    """
    span = SpanBuilder(ncols)
    for row in rows:
        span.add(row)
    basis = []
    for free in sorted(set(range(ncols)).difference(span.pivots)):
        vec = [0] * ncols
        vec[free] = 1
        support = [free]
        for row, piv in zip(reversed(span.rows), reversed(span.pivots)):
            s = sum(row[c] * vec[c] for c in support)
            if s:
                # row[piv] > 0: rescale so that -s / row[piv] is an integer
                g = gcd(s, row[piv])
                for c in support:
                    vec[c] *= row[piv] // g
                vec[piv] = -(s // g)
                support.append(piv)
        basis.append(_row_primitive(vec))
    return basis


def charpoly(A):
    """Characteristic polynomial of a square rational matrix.

    Returns coefficients ``[c_0, ..., c_n]`` of ``det(t I - A) = sum c_k
    t^k`` as Fractions, with ``c_n = 1``.  With D the lcm of the entry
    denominators, B = D A is an integer matrix and c_k(A) = c_k(B) /
    D^(n-k).  Berkowitz's recursion gives det(t I - B) without division:
    if the leading block B_{k+1} is [[B_k, C], [R, b]], its char poly is
    T q_k, where q_k is that of B_k and T is the lower-triangular Toeplitz
    matrix with first column (1, -b, -R C, -R B_k C, ..., -R B_k^{k-1} C)
    (Berkowitz, Inform. Process. Lett. 18 (1984) 147-150).  O(n^4)
    integer operations.
    """
    n = len(A)
    D = lcm(1, *(x.denominator for row in A for x in row))
    B = [[x.numerator * (D // x.denominator) for x in row] for row in A]
    q = [1]  # det(t I - B_k), leading coefficient first
    for k in range(n):
        col = [1, -B[k][k]]
        v = [B[i][k] for i in range(k)]
        for _ in range(k):
            # map stops at len(v) = k: B[k] reads as R, B[i] as row i of B_k
            col.append(-sum(map(mul, B[k], v)))
            v = [sum(map(mul, B[i], v)) for i in range(k)]
        q = [sum(col[i - j] * q[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return [Fraction(q[n - k], D ** (n - k)) for k in range(n + 1)]
