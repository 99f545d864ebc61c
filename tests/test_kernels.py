"""The exact kernels: fixed cases plus properties on random matrices."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin import kernels
from supergaudin.linalg import is_zero_matrix, poly_eval_matrix


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
        red, pivots = kernels.int_rref([row[:] for row in A])
        basis = kernels.int_nullspace(A, m)
        assert len(basis) == m - len(pivots)
        for vec in basis:
            for row in A:
                assert sum(a * v for a, v in zip(row, vec)) == 0


def test_rref_is_row_space_canonical():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(2, 6)
        A = random_int_matrix(rng, n, m)
        red, piv = kernels.int_rref(A)
        shuffled = [row[:] for row in A]
        rng.shuffle(shuffled)
        scaled = [[(3 if i % 2 else -2) * x for x in row] for i, row in enumerate(shuffled)]
        red2, piv2 = kernels.int_rref(scaled)
        assert red == red2 and piv == piv2


@settings(max_examples=80, deadline=None)
@given(row_equivalent_pairs())
def test_rref_depends_only_on_the_row_space(pair):
    A, B = pair
    assert kernels.int_rref(A) == kernels.int_rref(B)


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_rref_rows_are_primitive_reduced_and_pivot_positive(A):
    red, pivots = kernels.int_rref(A)
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
def test_nullspace_annihilates_with_dimension_ncols_minus_rank(A):
    m = len(A[0])
    _, pivots = kernels.int_rref(A)
    basis = kernels.int_nullspace(A, m)
    assert len(basis) == m - len(pivots)
    for vec in basis:
        for row in A:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    # independent, and with the rows of A it spans everything
    assert kernels.int_rref(basis + A)[1] == list(range(m))


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
