"""Exact linear-algebra kernels.

These are the hot inner loops of the whole package: integer row reduction
(singular spaces, Gram radicals, Krylov spans), dense matrix products
(commutator checks) and exact characteristic polynomials.  They are plain
Python on Python ints and Fractions; this module is their one
implementation.

All integer routines work on lists of lists of Python ints and rely on row
operations only, so they compute row-space canonical forms: scaling the
input rows never changes the result up to the stated normalization.

``BACKEND`` names the implementation for records that outlive a run: the
benchmark stamps it into every result and refuses to compare results
stamped with different backends.  ``charpoly`` calls ``mat_mul`` through
this module's globals, so a wrapper installed on ``kernels.mat_mul`` sees
those calls too.
"""

from fractions import Fraction
from math import gcd

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


def int_rref(rows):
    """Canonical reduced echelon form of an integer matrix.

    Returns ``(reduced_rows, pivot_columns)``.  Each returned row is a
    primitive integer vector (gcd 1, pivot positive) and entries above and
    below every pivot are zero; this is the rational RREF with each row
    rescaled to clear denominators, hence canonical for the row space.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = -1
        for r in range(rank, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        pval = prow[col]
        for r in range(len(work)):
            if r == rank:
                continue
            v = work[r][col]
            if v:
                row = work[r]
                work[r] = _row_primitive(
                    [row[c] * pval - prow[c] * v for c in range(ncols)]
                )
        work[rank] = _row_primitive(prow)
        pivots.append(col)
        rank += 1
    work = [w for w in work[:rank]]
    return work, pivots


def int_nullspace(rows, ncols):
    """Primitive integer basis of the right kernel of an integer matrix.

    Deterministic: one basis vector per free column, in ascending column
    order, scaled to a primitive integer vector with positive entry at the
    free position.
    """
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    red, pivots = int_rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -Fraction(red[r][free], red[r][col])
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        ivec = [int(v * den) for v in vec]
        basis.append(_row_primitive(ivec))
    return basis


def charpoly(A):
    """Characteristic polynomial of a square rational matrix.

    Faddeev-LeVerrier recursion; returns coefficients ``[c_0, ..., c_n]``
    of ``det(t I - A) = sum c_k t^k`` as Fractions, with ``c_n = 1``.
    """
    n = len(A)
    if n == 0:
        return [Fraction(1)]
    A = [[Fraction(x) for x in row] for row in A]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        M = mat_mul(A, M)
        trace = sum(M[i][i] for i in range(n))
        coeffs[n - k] = -Fraction(trace) / k
    return coeffs
