"""Exact linear-algebra kernels.

These are the hot inner loops of the whole package: integer row reduction
(singular spaces, Gram radicals, Krylov spans), dense matrix products
(commutator checks) and exact characteristic polynomials by Berkowitz's
division-free recursion.  They are plain Python on Python ints and
Fractions (the char poly clears denominators and then works on ints
alone); this module is their one implementation.

All integer routines work on lists of lists of Python ints and rely on row
operations only, so they compute row-space canonical forms: scaling the
input rows never changes the result up to the stated normalization.

``BACKEND`` names the implementation for records that outlive a run: the
benchmark stamps it into every result and refuses to compare results
stamped with different backends.
"""

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
    order, scaled to a primitive integer vector whose leading nonzero
    entry is positive (so ``int_nullspace([[1, 1]], 2) == [[1, -1]]``).
    The vector of a free column f is L at f and -red[r][f] * (L / p_r) at
    the pivot column of row r, p_r its pivot and L the lcm of the pivots.
    Since red[r][f] vanishes unless row r pivots left of f, that vector is
    nonzero at f and otherwise only at pivot columns to its left: f is its
    last nonzero entry, and the pivot columns are exactly the columns at
    which no kernel vector ends.  Each kernel vector ends at its free
    column and is zero at every other free column, so the basis is in the
    echelon form that ``linalg.echelon_block`` reads, at the free columns.
    """
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    red, pivots = int_rref(rows)
    pivset = set(pivots)
    L = lcm(*(red[r][col] for r, col in enumerate(pivots)))
    scales = [L // red[r][col] for r, col in enumerate(pivots)]
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [0] * ncols
        vec[free] = L
        for r, col in enumerate(pivots):
            vec[col] = -red[r][free] * scales[r]
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
