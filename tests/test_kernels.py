"""The exact kernels: fixed cases plus properties on random matrices."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin import kernels
from supergaudin.linalg import is_zero_matrix, poly_eval_matrix

from oracles import int_rref


def random_int_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def det_by_permutations(A):
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= A[i][perm[i]]
        total += sign * prod
    return total


@st.composite
def int_matrices(draw, max_rows=5, max_cols=6):
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    entry = st.integers(-6, 6)
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))


@st.composite
def square_matrices(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def row_equivalent_pairs(draw):
    """A matrix and a row-equivalent one: shuffled, scaled by nonzero ints,
    with integer multiples of other rows added."""
    A = draw(int_matrices())
    scales = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(A), max_size=len(A)))
    B = [[s * x for x in row] for s, row in zip(scales, draw(st.permutations(A)))]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(B) - 1))
        k = draw(st.integers(0, len(B) - 1))
        c = draw(st.integers(-3, 3))
        if i != k:
            B[i] = [x + c * y for x, y in zip(B[i], B[k])]
    return A, B


def test_mat_mul_small():
    A = [[1, 2], [3, 4]]
    B = [[0, 1], [1, 0]]
    assert kernels.mat_mul(A, B) == [[2, 1], [4, 3]]


def test_nullspace_annihilates_and_has_right_dimension():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        A = random_int_matrix(rng, n, m)
        _, pivots = int_rref(A)
        basis = kernels.int_nullspace(A, m)
        assert len(basis) == m - len(pivots)
        for vec in basis:
            for row in A:
                assert sum(a * v for a, v in zip(row, vec)) == 0


# oracles.int_rref is the reference the kernel basis is checked against:
# fraction_nullspace reads its rows as canonical and reduced
def test_rref_is_row_space_canonical():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(2, 6)
        A = random_int_matrix(rng, n, m)
        red, piv = int_rref(A)
        shuffled = [row[:] for row in A]
        rng.shuffle(shuffled)
        scaled = [[(3 if i % 2 else -2) * x for x in row] for i, row in enumerate(shuffled)]
        red2, piv2 = int_rref(scaled)
        assert red == red2 and piv == piv2


@settings(max_examples=80, deadline=None)
@given(row_equivalent_pairs())
def test_rref_depends_only_on_the_row_space(pair):
    A, B = pair
    assert int_rref(A) == int_rref(B)


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_rref_rows_are_primitive_reduced_and_pivot_positive(A):
    red, pivots = int_rref(A)
    assert len(red) == len(pivots)
    assert pivots == sorted(set(pivots))
    for r, (row, col) in enumerate(zip(red, pivots)):
        assert row[col] > 0
        assert all(not x for x in row[:col])
        g = 0
        for x in row:
            g = gcd(g, abs(x))
        assert g == 1
        for other, orow in enumerate(red):
            if other != r:
                assert orow[col] == 0


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_span_builder_rows_are_primitive_echelon_and_pivot_positive(A):
    # SpanBuilder.add is the package's one elimination; its rows are in
    # echelon form but not reduced above their pivots
    m = len(A[0])
    span = kernels.SpanBuilder(m)
    grew = [span.add(row) for row in A]
    _, pivots = int_rref(A)
    assert sum(grew) == len(span) == len(pivots)
    assert span.pivots == sorted(set(span.pivots)) == pivots
    for row, col in zip(span.rows, span.pivots):
        assert row[col] > 0
        assert all(not x for x in row[:col])
        assert gcd(*row) == 1
    # the rows span the row space: every input row now reduces to zero
    assert not any(span.add(row) for row in A)


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_nullspace_annihilates_with_dimension_ncols_minus_rank(A):
    m = len(A[0])
    _, pivots = int_rref(A)
    basis = kernels.int_nullspace(A, m)
    assert len(basis) == m - len(pivots)
    for vec in basis:
        for row in A:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    # independent, and with the rows of A it spans everything
    assert int_rref(basis + A)[1] == list(range(m))


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_nullspace_vectors_end_exactly_at_the_free_columns(A):
    # the Gram quotient reads its pivots off the radical this way
    m = len(A[0])
    _, pivots = int_rref(A)
    basis = kernels.int_nullspace(A, m)
    ends = [max(i for i, x in enumerate(vec) if x) for vec in basis]
    assert set(ends) == set(range(m)) - set(pivots)
    # each vector is zero at every other free column: the end-column form
    # that linalg.echelon_block reads coordinates in
    for k, vec in enumerate(basis):
        assert all(not vec[end] for j, end in enumerate(ends) if j != k)


def test_nullspace_vectors_have_a_positive_leading_entry():
    # the sign rule is on the leading nonzero entry, not on the free one
    assert kernels.int_nullspace([[1, 1]], 2) == [[1, -1]]
    assert kernels.int_nullspace([[1, 0, 2], [0, 1, -3]], 3) == [[2, -3, -1]]


def fraction_nullspace(A, m):
    """Kernel vectors over Q (1 at the free column, -red/pivot at the
    pivots of the reduced echelon form), then scaled to primitive
    integers, leading entry positive."""
    red, pivots = int_rref(A)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -Fraction(red[r][free], red[r][col])
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        ivec = [int(v * den) for v in vec]
        g = 0
        for x in ivec:
            g = gcd(g, x)
        ivec = [x // g for x in ivec]
        basis.append([-x for x in ivec] if next(x for x in ivec if x) < 0 else ivec)
    return basis


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_nullspace_matches_the_rational_construction(A):
    m = len(A[0])
    assert kernels.int_nullspace(A, m) == fraction_nullspace(A, m)


@st.composite
def fraction_matrices(draw, max_rows=5, max_cols=6):
    """Rational matrices over mixed denominators, often with zero entries
    and with rows that are rational combinations of earlier ones."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 7]))
    entry = st.one_of(st.just(Fraction(0)), nonzero)
    A = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    for r in range(1, n):
        if draw(st.booleans()):
            c = draw(st.lists(nonzero, min_size=r, max_size=r))
            A[r] = [sum(c[k] * A[k][j] for k in range(r)) for j in range(m)]
    return A


@settings(max_examples=100, deadline=None)
@given(fraction_matrices())
def test_nullspace_of_fraction_rows_matches_the_rational_construction(A):
    # the kernel clears each row's denominators itself, as the singular
    # spaces and Gram radicals hand it rows of Fractions
    m = len(A[0])
    basis = kernels.int_nullspace(A, m)
    assert basis == fraction_nullspace(A, m)
    assert all(type(x) is int for vec in basis for x in vec)
    for vec in basis:
        for row in A:
            assert sum(a * v for a, v in zip(row, vec)) == 0


@settings(max_examples=60, deadline=None)
@given(row_equivalent_pairs())
def test_nullspace_is_deterministic(pair):
    A, B = pair
    m = len(A[0])
    basis = kernels.int_nullspace(A, m)
    assert kernels.int_nullspace([row[:] for row in A], m) == basis
    assert kernels.int_nullspace(B, m) == basis


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_charpoly_is_monic_with_trace_and_cayley_hamilton(A):
    n = len(A)
    p = kernels.charpoly(A)
    assert len(p) == n + 1 and p[n] == 1
    assert all(isinstance(c, Fraction) for c in p)
    assert p[n - 1] == -sum(A[i][i] for i in range(n))
    assert is_zero_matrix(poly_eval_matrix(p, A))


def faddeev_leverrier(A):
    """Reference char poly: M_k = A (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k."""
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        M = [[sum(A[i][r] * M[r][c] for r in range(n)) for c in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(M[i][i] for i in range(n)) / k
    return coeffs


@st.composite
def charpoly_inputs(draw):
    """Square rational matrices, n = 0..6, often sparse, singular or block
    triangular (so the border row and column of a leading block are often
    zero), or over mixed denominators (so the common denominator D is large
    and the D^(n-k) rescale of each coefficient matters)."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["plain", "singular", "block", "hessenberg", "mixed"]))
    if kind == "mixed":
        nonzero = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11]))
    else:
        nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entry = draw(st.sampled_from([nonzero, st.one_of(st.just(Fraction(0)), nonzero)]))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and kind == "singular":
        # last row a rational combination of the others
        c = draw(st.lists(nonzero, min_size=n - 1, max_size=n - 1))
        A[-1] = [sum(c[r] * A[r][k] for r in range(n - 1)) for k in range(n)]
    elif n >= 2 and kind == "block":
        cut = draw(st.integers(1, n - 1))
        for r in range(cut, n):
            for k in range(cut):
                A[r][k] = Fraction(0)
    elif kind == "hessenberg":
        # already Hessenberg, with some sub-diagonal entries zeroed
        for r in range(n):
            for k in range(r - 1):
                A[r][k] = Fraction(0)
        for r in draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3)):
            if r < n:
                A[r][r - 1] = Fraction(0)
    return A


@settings(max_examples=150, deadline=None)
@given(charpoly_inputs())
def test_charpoly_equals_faddeev_leverrier(A):
    p = kernels.charpoly(A)
    assert p == faddeev_leverrier(A)
    assert all(isinstance(c, Fraction) for c in p)


def test_charpoly_small_and_structured_cases():
    assert kernels.charpoly([]) == [1]
    assert kernels.charpoly([[Fraction(3, 2)]]) == [Fraction(-3, 2), 1]
    # nilpotent shift: every sub-diagonal entry is zero
    shift = [[1 if c == r + 1 else 0 for c in range(4)] for r in range(4)]
    assert kernels.charpoly(shift) == [0, 0, 0, 0, 1]
    # a permutation matrix: its leading blocks are diagonal, and only the
    # last border row and column couple its first and last indices
    perm = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert kernels.charpoly(perm) == faddeev_leverrier(perm) == [1, -1, -1, 1]


def test_charpoly_matches_permutation_determinant():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 4)
        A = random_int_matrix(rng, n, n)
        p = kernels.charpoly(A)
        assert p[n] == 1
        # det(tI - A) at t = 0 is (-1)^n det A
        det = det_by_permutations(A)
        assert p[0] == (-1) ** n * det
        # and the trace appears with the usual sign
        assert p[n - 1] == -sum(A[i][i] for i in range(n))


def test_charpoly_entries_stay_rational():
    p = kernels.charpoly([[0]])
    assert all(isinstance(c, Fraction) for c in p)


def test_backend_marker():
    assert kernels.BACKEND == "python"
