"""Integer-first exact scalars: ints where values are integral, same outputs.

Weight levels and AlgebraElement coefficients are ints when integral and
Fractions otherwise.  ``Fraction(3) == 3`` and the two hash and print
alike, so these properties pin that the choice never shows: sums built by
the trusted constructor equal the publicly constructed weight, and
elements built from ints or integral Fractions are indistinguishable.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.algebra import AlgebraElement, BasisElement, iota, star_omega, supercommutator, supertrace
from supergaudin.indices import IndexSet
from supergaudin.weights import Weight, exact_scalar

# small coefficient ranges make cancellations (zero sums) common
coeff_dicts = st.dictionaries(st.integers(-5, 5).filter(bool), st.integers(-2, 2), max_size=5)
levels = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)

MEMBERS = list(IndexSet.gl(1, 1, 1, 1))


def test_exact_scalar():
    assert exact_scalar(3) == 3 and type(exact_scalar(3)) is int
    for value in (Fraction(6, 2), "3", 3.0):
        assert type(exact_scalar(value)) is int and exact_scalar(value) == 3
    assert exact_scalar(Fraction(1, 2)) == exact_scalar("1/2") == Fraction(1, 2)
    for bad in (float("inf"), float("nan"), "x", 1j):
        with pytest.raises((ValueError, OverflowError, TypeError)):
            exact_scalar(bad)


def _combined(a, b, sign):
    return {d: a.get(d, 0) + sign * b.get(d, 0) for d in set(a) | set(b)}


def _same_weight(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.coeffs == want.coeffs and all(got.coeffs.values())
    assert repr(got) == repr(want) and got.to_json() == want.to_json()
    assert type(got.level) is (int if got.level.denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(coeff_dicts, levels, coeff_dicts, levels)
def test_weight_arithmetic_matches_the_public_constructor(ca, la, cb, lb):
    a, b = Weight(ca, la), Weight(cb, lb)
    _same_weight(a + b, Weight(_combined(ca, cb, 1), la + lb))
    _same_weight(a - b, Weight(_combined(ca, cb, -1), la - lb))
    _same_weight(-a, Weight({d: -v for d, v in ca.items()}, -la))
    _same_weight(a - a, Weight())


def test_weight_level_is_an_int_when_integral():
    assert type(Weight({2: 1}, Fraction(4, 2)).level) is int
    assert type((Weight({}, Fraction(1, 2)) + Weight({}, Fraction(1, 2))).level) is int
    assert Weight({}, "1/3").level == Fraction(1, 3)


def test_integral_coefficients_and_traces_are_ints():
    half = Fraction(1, 2)
    x = AlgebraElement({BasisElement(1, 1): half, BasisElement("1/2", "1/2"): -half}, "3/3")
    assert type(x.central) is int and supertrace(x) == 1 and type(supertrace(x)) is int
    assert all(type(v) is int for v in (x + x).terms.values()) and type((x * 2).central) is int


@st.composite
def homogeneous(draw):
    """(parity, element) with int and Fraction coefficients mixed."""
    parity = draw(st.integers(0, 1))
    terms = {}
    for a, b, v in draw(st.lists(st.tuples(st.sampled_from(MEMBERS), st.sampled_from(MEMBERS), scalars), max_size=3)):
        if a.parity ^ b.parity == parity:
            terms[BasisElement(a, b)] = v
    return parity, AlgebraElement(terms, draw(scalars))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from(MEMBERS), st.sampled_from(MEMBERS)), st.integers(-3, 3), max_size=4), st.integers(-3, 3))
def test_int_and_integral_fraction_elements_are_indistinguishable(terms, central):
    as_int = AlgebraElement({BasisElement(a, b): v for (a, b), v in terms.items()}, central)
    as_frac = AlgebraElement({BasisElement(a, b): Fraction(v) for (a, b), v in terms.items()}, Fraction(central))
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert repr(as_int) == repr(as_frac)
    assert all(type(v) is int for v in as_frac.terms.values()) and type(as_frac.central) is int


@settings(max_examples=150, deadline=None)
@given(homogeneous(), homogeneous(), homogeneous())
def test_super_jacobi_on_mixed_int_and_fraction_elements(xp, yp, zp):
    (px, x), (py, y), (_, z) = xp, yp, zp
    sign = -1 if px and py else 1
    for central in (False, True):
        lhs = supercommutator(x, supercommutator(y, z, central), central)
        rhs = supercommutator(supercommutator(x, y, central), z, central)
        rhs = rhs + sign * supercommutator(y, supercommutator(x, z, central), central)
        assert (lhs - rhs).is_zero()


@settings(max_examples=150, deadline=None)
@given(homogeneous(), homogeneous())
def test_iota_and_omega_on_mixed_int_and_fraction_elements(xp, yp):
    (_, x), (_, y) = xp, yp
    assert iota(supercommutator(x, y)) == supercommutator(iota(x), iota(y), central=True)
    assert star_omega(star_omega(x)) == x
    assert star_omega(supercommutator(x, y)) == supercommutator(star_omega(y), star_omega(x))
    for value in list(supercommutator(x, y, True).terms.values()) + [iota(x).central, supertrace(x)]:
        assert type(value) is (int if value.denominator == 1 else Fraction)
