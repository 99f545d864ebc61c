"""Partition combinatorics and the hook-tableau oracle."""

from itertools import permutations

import pytest

from supergaudin.partitions import (
    GeneralizedPartition,
    Partition,
    all_partitions,
    frobenius_theta,
    hook_tableau_contents,
    partition_from_hook_data,
)
from supergaudin.verify import _oracle_dims

from oracles import hook_tableau_dimension


def test_conjugate_examples():
    assert Partition([]).conjugate() == Partition([])
    assert Partition([1]).conjugate() == Partition([1])
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])


def test_conjugate_involution_exhaustive_to_eight_boxes():
    for lam in all_partitions(8):
        conj = lam.conjugate()
        assert conj.conjugate() == lam
        assert conj.size == lam.size


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    assert Partition([2, 1, 0, 0]).parts == (2, 1)


def test_frobenius_examples():
    assert frobenius_theta(Partition([]), 6) == [0, 0, 0, 0, 0, 0]
    assert frobenius_theta(Partition([1]), 4) == [1, 0, 0, 0]
    assert frobenius_theta(Partition([2, 1]), 4) == [2, 1, 0, 0]


def test_frobenius_length_contract():
    with pytest.raises(ValueError):
        frobenius_theta(Partition([1]), 0)
    assert len(frobenius_theta(Partition([4, 4, 2]), 9)) == 9


def test_generalized_partition():
    lam = GeneralizedPartition([2, 1, 0, -1])
    assert lam.depth == 4
    assert lam.plus() == Partition([2, 1])
    assert lam.minus() == Partition([1])
    with pytest.raises(ValueError):
        GeneralizedPartition([1, 2])
    with pytest.raises(ValueError):
        GeneralizedPartition([])


def test_hook_oracle_examples():
    # natural module
    contents = hook_tableau_contents(Partition([1]), 1, 1)
    assert contents == {(1, 0): 1, (0, 1): 1}
    # one-row shape: no repeated odd letter in a row
    c2 = hook_tableau_contents(Partition([2]), 1, 1)
    assert c2[(1, 1)] == 1 and (0, 2) not in c2
    assert hook_tableau_dimension(Partition([2]), 1, 1) == 2
    # one-column shape: the mirror statement
    c11 = hook_tableau_contents(Partition([1, 1]), 1, 1)
    assert c11 == {(1, 1): 1, (0, 2): 1}


def test_hook_oracle_result_is_read_only():
    # the result is cached: a caller's mutation would reach every later one
    contents = hook_tableau_contents(Partition([2, 1]), 1, 1)
    with pytest.raises(AttributeError):
        contents.clear()
    with pytest.raises(TypeError):
        contents[(9, 9)] = 1
    assert hook_tableau_contents(Partition([2, 1]), 1, 1) == {(2, 1): 1, (1, 2): 1}
    assert len(_oracle_dims(Partition([2, 1]), 1, 1)) == 2


def test_hook_oracle_budget():
    with pytest.raises(ValueError):
        hook_tableau_contents(Partition([5, 4]), 2, 2)


def count_standard_tableaux(lam):
    """Independent SYT count by brute-force placement."""
    cells = [(r, c) for r, width in enumerate(lam.parts) for c in range(width)]
    n = len(cells)
    count = 0
    for order in permutations(range(n)):
        grid = {}
        ok = True
        for value, pos in enumerate(order):
            r, c = cells[pos]
            left = grid.get((r, c - 1))
            up = grid.get((r - 1, c))
            if (c > 0 and left is None) or (r > 0 and up is None):
                ok = False
                break
            grid[(r, c)] = value
            if (left is not None and left > value) or (up is not None and up > value):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("m,n,boxes", [(1, 1, 4), (2, 1, 4), (2, 2, 5)])
def test_schur_weyl_dimension_identity(m, n, boxes):
    """sum over shapes of (SYT count) x (hook dimension) = (m+n)^N."""
    total = 0
    for lam in all_partitions(boxes, boxes):
        total += count_standard_tableaux(lam) * hook_tableau_dimension(lam, m, n)
    assert total == (m + n) ** boxes


def test_hook_condition_gives_zero_dimension():
    # (1,1,1) needs two even rows or odd columns at (1|1)... it fits;
    # (2,2) does not fit the (1|1) hook and must enumerate to nothing
    assert hook_tableau_dimension(Partition([2, 2]), 1, 1) == 0
    assert not Partition([2, 2]).hook_ok(1, 1)
    assert Partition([2, 1]).hook_ok(1, 1)


def test_partition_from_hook_data_round_trip():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3)):
        for lam in all_partitions(6):
            if not lam.hook_ok(m, n):
                continue
            conj = lam.conjugate()
            rows = [lam.part(i) for i in range(1, m + 1)]
            cols = [max(conj.part(j) - m, 0) for j in range(1, n + 1)]
            assert partition_from_hook_data(m, n, rows, cols) == lam
