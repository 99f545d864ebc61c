"""echelon_block: coordinates by substitution against an echelon basis,
checked against sympy on the three kinds of basis the package builds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.linalg import SpanBuilder, echelon_block, end_columns, nullspace

from oracles import solve_coordinates

ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _vectors(draw, count, n):
    return draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=count, max_size=count))


@st.composite
def span_builder_bases(draw):
    """The rows and pivots of a SpanBuilder grown from random vectors."""
    n = draw(st.integers(1, 5))
    span = SpanBuilder(n)
    for vec in _vectors(draw, draw(st.integers(1, n + 1)), n):
        span.add(vec)
    return span.basis(), span.pivots


@st.composite
def nullspace_bases(draw):
    """A kernel basis at its end columns, as a singular space holds it."""
    n = draw(st.integers(1, 5))
    basis = nullspace(_vectors(draw, draw(st.integers(0, n)), n), n)
    return basis, end_columns(basis)


@st.composite
def radical_and_unit_bases(draw):
    """A Gram radical at its free columns, then the pivot units, as an
    irreducible quotient orders them."""
    n = draw(st.integers(1, 5))
    radical = nullspace(_vectors(draw, draw(st.integers(0, n)), n), n)
    free = end_columns(radical)
    pivots = sorted(set(range(n)).difference(free))
    units = [[int(r == p) for r in range(n)] for p in pivots]
    return radical + units, free + pivots


@st.composite
def cases(draw):
    """An echelon basis with images: in its span, None, or arbitrary."""
    basis, pivots = draw(st.one_of(span_builder_bases(), nullspace_bases(), radical_and_unit_bases()))
    n = len(basis[0]) if basis else draw(st.integers(1, 4))
    images = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["span", "none", "any"]))
        if kind == "none":
            images.append(None)
        elif kind == "span":
            coeffs = draw(st.lists(ENTRY, min_size=len(basis), max_size=len(basis)))
            images.append([sum(c * vec[i] for c, vec in zip(coeffs, basis)) for i in range(n)])
        else:
            images.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    return basis, pivots, images


@settings(max_examples=150, deadline=None)
@given(cases())
def test_echelon_block_matches_the_sympy_oracle(case):
    basis, pivots, images = case
    block = echelon_block(basis, pivots, images)
    solved = solve_coordinates(basis, [img for img in images if img is not None])
    if None in solved:
        # an image outside the span leaves a residual
        assert block is None
        return
    solved = iter(solved)
    want = [[0] * len(basis) if img is None else next(solved) for img in images]
    assert len(block) == len(basis)
    assert [[row[j] for row in block] for j in range(len(images))] == want
    # ints where integral, Fractions otherwise
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in block for x in row)


def test_echelon_block_reads_zero_columns_and_refuses_out_of_span():
    # a SpanBuilder basis: each row is zero left of its pivot
    basis = [[1, 1, 0], [0, 2, 0]]
    pivots = [0, 1]
    images = [[2, 3, 0], None, [0, 1, 0]]
    block = echelon_block(basis, pivots, images)
    assert block == [[2, 0, 0], [Fraction(1, 2), 0, Fraction(1, 2)]]
    assert [type(x) for x in block[1]] == [Fraction, int, Fraction]
    assert echelon_block(basis, pivots, [None, None]) == [[0, 0], [0, 0]]
    assert echelon_block(basis, pivots, [[2, 3, 0], [0, 0, 1]]) is None


def test_end_columns_refuse_what_substitution_cannot_read():
    assert end_columns([[1, -2, 0], [1, 0, -2]]) == [1, 2]
    assert end_columns([]) == []
    with pytest.raises(ValueError, match="end-column form at vector 0"):
        end_columns([[1, 1], [1, -1]])
    # a zero vector has no last nonzero column
    with pytest.raises(ValueError, match="end-column form at vector 1"):
        end_columns([[1, 0], [0, 0]])
