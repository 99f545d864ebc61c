"""ColumnSolver: coordinate blocks against a fixed column basis."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.linalg import ColumnSolver


@st.composite
def bases_and_images(draw):
    """Rational columns (possibly dependent) and images in their span, with
    some images left out as None."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vec = st.lists(entry, min_size=n, max_size=n)
    columns = draw(st.lists(vec, min_size=m, max_size=m))
    images = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            images.append(None)
            continue
        coeffs = draw(st.lists(entry, min_size=m, max_size=m))
        images.append([sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(n)])
    return columns, images


@settings(max_examples=80, deadline=None)
@given(bases_and_images())
def test_block_is_column_by_column_solve(case):
    columns, images = case
    solver = ColumnSolver(columns)
    block = solver.block(images)
    assert len(block) == len(columns)
    for j, img in enumerate(images):
        col = [row[j] for row in block]
        if img is None:
            assert not any(col)
        else:
            assert col == solver.solve(img)
            # the coordinates reproduce the image
            assert [sum(c * v[i] for c, v in zip(col, columns)) for i in range(len(img))] == img
    for keep in range(len(columns) + 1):
        assert solver.block(images, keep=keep) == block[:keep]


def test_block_keep_none_and_out_of_span():
    columns = [[1, 0, 0], [1, 1, 0]]
    solver = ColumnSolver(columns)
    images = [[2, 3, 0], None, [0, Fraction(1, 2), 0]]
    assert solver.block(images) == [[-1, 0, Fraction(-1, 2)], [3, 0, Fraction(1, 2)]]
    assert solver.block(images, keep=1) == [[-1, 0, Fraction(-1, 2)]]
    assert solver.block(images, keep=0) == []
    assert solver.block([None, None]) == [[0, 0], [0, 0]]
    assert solver.block([[2, 3, 0], [0, 0, 1]]) is None
    assert solver.solve([0, 0, 1]) is None
