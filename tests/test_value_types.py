"""The immutable value types: interned weights, read-only coefficients,
and copy and pickle through each type's public constructor."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.algebra import AlgebraElement, E
from supergaudin.indices import HalfIndex, IndexSet, idx
from supergaudin.partitions import GeneralizedPartition, Partition
from supergaudin.weights import Weight, eps, highest_weight

GL11 = IndexSet.gl(0, 1, 0, 1)
DOUBLED = st.sampled_from([-3, -2, -1, 1, 2, 3, 4])
LEVELS = st.sampled_from([0, 2, Fraction(4, 2), "1/3"])


def _key(coeffs, level):
    """The (coefficients, level) pair a weight is interned under."""
    return frozenset((d, v) for d, v in coeffs.items() if v), Fraction(level)


def _combine(sign, a, b):
    coeffs = dict(a[1])
    for d, v in b[1].items():
        coeffs[d] = coeffs.get(d, 0) + sign * v
    return coeffs, Fraction(a[2]) + sign * Fraction(b[2])


@st.composite
def _leaf(draw):
    """(weight, coefficients, level) from one of the public constructors."""
    how = draw(st.sampled_from(["constructor", "from_json", "eps", "highest_weight"]))
    level = draw(LEVELS)
    if how == "eps":
        d = draw(DOUBLED)
        return eps(Fraction(d, 2)), {d: 1}, 0
    if how == "highest_weight":
        # a (1|1)-hook partition: e(1) carries lam_1, e(1/2) the rows below
        first = draw(st.integers(0, 3))
        below = draw(st.integers(0, 2)) if first else 0
        lam = Partition([first] + [1] * below)
        return highest_weight(GL11, lam, level=level), {2: first, 1: below}, level
    coeffs = draw(st.dictionaries(DOUBLED, st.integers(-2, 2), max_size=4))
    if how == "constructor":
        return Weight(coeffs, level), coeffs, level
    doc = {"coeffs": [[d, v] for d, v in coeffs.items()], "level": str(level)}
    return Weight.from_json(doc), coeffs, level


def _extend(inner):
    plus = st.tuples(inner, inner).map(lambda ab: (ab[0][0] + ab[1][0],) + _combine(1, *ab))
    minus = st.tuples(inner, inner).map(lambda ab: (ab[0][0] - ab[1][0],) + _combine(-1, *ab))
    neg = inner.map(lambda a: (-a[0], {d: -v for d, v in a[1].items()}, -Fraction(a[2])))
    return plus | minus | neg


WEIGHTS = st.recursive(_leaf(), _extend, max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS, WEIGHTS)
def test_weights_are_one_object_exactly_when_equal(x, y):
    (a, ca, la), (b, cb, lb) = x, y
    assert _key(a.coeffs, a.level) == _key(ca, la)
    assert (a is b) == (_key(ca, la) == _key(cb, lb))
    assert Weight(ca, la) is a
    # the level is an int whenever it is integral
    assert type(a.level) is (int if Fraction(la).denominator == 1 else Fraction)


def test_weight_coeffs_are_read_only():
    w = eps(1) + eps("1/2")
    with pytest.raises(TypeError):
        w.coeffs[2] = 5
    with pytest.raises(TypeError):
        del w.coeffs[2]
    with pytest.raises(AttributeError, match="immutable"):
        w.coeffs = {2: 5}
    assert w(idx(1)) == 1 and w is eps(1) + eps("1/2")
    # sums copy the coefficients they start from
    assert (w + w)(idx(1)) == 2 and w(idx(1)) == 1


VALUES = [
    Weight({2: 3, -1: -2}, Fraction(5, 7)),
    HalfIndex(-3),
    E(1, "1/2"),
    AlgebraElement({E(1, "1/2"): Fraction(1, 3), E(2, 2): -1}, 2),
    IndexSet.gl(1, 2, 1, 1),
    IndexSet.classical(1, 2),
    Partition([3, 1]),
    GeneralizedPartition([2, -1]),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_copy_and_pickle_through_their_constructor(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        if isinstance(value, Weight):
            assert twin is value
