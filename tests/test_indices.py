"""Index sets and their total orders."""

from fractions import Fraction

import pytest

from supergaudin.indices import HalfIndex, IndexSet, idx


def doubled_list(index_set):
    return [h.doubled for h in index_set]


def test_half_index_basics():
    h = idx("3/2")
    assert h.doubled == 3 and h.parity == 1 and h.value == Fraction(3, 2)
    assert idx(2).parity == 0
    assert idx(Fraction(-1, 2)).doubled == -1
    with pytest.raises(ValueError):
        idx(0)
    with pytest.raises(ValueError):
        idx(Fraction(1, 3))
    with pytest.raises(AttributeError):
        h.doubled = 5


def test_super_order_interleaves_blocks():
    iset = IndexSet.gl(2, 2, 2, 3)
    # -2 < -1 < -3/2 < -1/2 < 1 < 2 < 1/2 < 3/2 < 5/2
    assert doubled_list(iset) == [-4, -2, -3, -1, 2, 4, 1, 3, 5]


def test_classical_and_wide_orders_are_numeric():
    cl = IndexSet.classical(1, 2)
    assert doubled_list(cl) == [-1, 1, 3]
    wd = IndexSet("wide", p=1, n=1)
    assert doubled_list(wd) == [-2, -1, 1, 2]


def test_membership():
    iset = IndexSet.gl(1, 1, 1, 1)
    assert idx(-1) in iset and idx("-1/2") in iset and idx(1) in iset and idx("1/2") in iset
    assert idx(-2) not in iset and idx("3/2") not in iset
    cl = IndexSet.classical(0, 2)
    assert idx("1/2") in cl and idx("3/2") in cl and idx(1) not in cl


def test_simple_pairs():
    gl11 = IndexSet.gl(0, 1, 0, 1)
    assert [(a.doubled, b.doubled) for a, b in gl11.simple_pairs()] == [(2, 1)]
    gl21 = IndexSet.gl(0, 2, 0, 1)
    assert [(a.doubled, b.doubled) for a, b in gl21.simple_pairs()] == [(2, 4), (4, 1)]
    cl = IndexSet.classical(0, 2)
    assert [(a.doubled, b.doubled) for a, b in cl.simple_pairs()] == [(1, 3)]


def test_validation():
    with pytest.raises(ValueError):
        IndexSet("weird")
    with pytest.raises(ValueError):
        IndexSet.gl(0, 1, 0, 0)


def test_indices_have_no_order_of_their_own():
    # a numeric order on doubled values is wrong for the super flavor, so
    # the set's iteration order is the only one
    with pytest.raises(TypeError):
        sorted(IndexSet.gl(1, 1, 1, 1))
    with pytest.raises(TypeError):
        idx(1) < idx("1/2")


@pytest.mark.parametrize(
    "iset, message",
    [
        (IndexSet.gl(1, 1, 0, 1), "widgets need p = q = 0"),
        (IndexSet.gl(0, 1, 1, 1), "widgets need p = q = 0"),
        (IndexSet.classical(1, 2), "widgets need p = 0"),
        (IndexSet("wide", p=0, n=1), "unsupported flavor for widgets"),
    ],
    ids=repr,
)
def test_the_polynomial_flavor_rule_names_its_caller(iset, message):
    with pytest.raises(ValueError, match=message):
        iset.require_polynomial("widgets")
    IndexSet.gl(0, 2, 0, 1).require_polynomial("widgets")
    IndexSet.classical(0, 2).require_polynomial("widgets")
