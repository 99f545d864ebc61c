"""Structure constants, central extension and the star-structure."""

import random
from fractions import Fraction

import pytest

from supergaudin.algebra import (
    AlgebraElement,
    BasisElement,
    E,
    bracket_units,
    cocycle_units,
    iota,
    simple_raising_ops,
    star_omega,
    supercommutator,
    supertrace,
)
from supergaudin.indices import IndexSet, idx


def elem(*terms, central=0):
    return AlgebraElement({E(i, j): c for i, j, c in terms}, central)


def test_bracket_examples():
    # odd-odd pair closes onto the Cartan
    x = elem((1, "1/2", 1))
    y = elem(("1/2", 1, 1))
    assert supercommutator(x, y) == elem((1, 1, 1), ("1/2", "1/2", 1))
    # an even element with itself
    h = elem((1, 1, 1))
    assert supercommutator(h, h).is_zero()
    # mixed example: [E_{1,2}, E_{2,1}] = E_11 - E_22
    a = elem((1, 2, 1))
    b = elem((2, 1, 1))
    assert supercommutator(a, b) == elem((1, 1, 1), (2, 2, -1))


@pytest.mark.parametrize("iset", [IndexSet.gl(1, 1, 1, 1), IndexSet.gl(0, 2, 0, 1)], ids=repr)
def test_bracket_units_is_the_supercommutator_of_units(iset):
    # the PBW straightening reads bracket_units directly; a zero entry
    # (only [E_aa, E_aa]) is skipped there and dropped by AlgebraElement
    keys = [(a.doubled, b.doubled) for a in iset for b in iset]
    for k1 in keys:
        for k2 in keys:
            table = {k: v for k, v in bracket_units(*k1, *k2).items() if v}
            assert table == supercommutator(AlgebraElement({k1: 1}), AlgebraElement({k2: 1})).terms


def test_parity():
    assert E(1, "1/2").parity == 1
    assert E(1, 2).parity == 0
    assert E("1/2", "3/2").parity == 0


def test_cocycle_vanishes_on_positive_indices():
    for i in (1, 2, "1/2", "3/2"):
        for j in (1, 2, "1/2", "3/2"):
            x = elem((i, j, 1))
            y = elem((j, i, 1))
            assert supercommutator(x, y, central=True).central == 0


def test_cocycle_examples():
    # tau(E_{i,j}, E_{j,i}) = ([j<0]-[i<0]) (-1)^{parity(i)}; checked by hand
    # against Str([J, A] B): e.g. A = E_{1,-1/2} has [J, A] = A and
    # Str(A E_{-1/2,1}) = Str(E_{1,1}) = 1
    assert cocycle_units(2, -1, -1, 2) == 1
    assert cocycle_units(-1, 2, 2, -1) == 1
    assert cocycle_units(-2, 1, 1, -2) == -1
    assert cocycle_units(2, 4, 4, 2) == 0


def test_cocycle_antisymmetry():
    rng = random.Random(4)
    members = list(IndexSet.gl(1, 2, 1, 2))
    for _ in range(200):
        a, b, c, d = (rng.choice(members) for _ in range(4))
        x = AlgebraElement({BasisElement(a, b): 1})
        y = AlgebraElement({BasisElement(c, d): 1})
        px = BasisElement(a, b).parity
        py = BasisElement(c, d).parity
        txy = supercommutator(x, y, central=True).central
        tyx = supercommutator(y, x, central=True).central
        sign = -1 if (px and py) else 1
        assert txy == -sign * tyx


def test_iota_examples():
    assert iota(elem((1, 1, 1))) == elem((1, 1, 1))
    assert iota(AlgebraElement({}, 1)) == AlgebraElement({}, 1)
    assert iota(elem((-1, -1, 1))) == elem((-1, -1, 1), central=-1)
    # a negative half-odd index flips the sign of the correction
    assert iota(elem(("-1/2", "-1/2", 1))) == elem(("-1/2", "-1/2", 1), central=1)


def test_iota_is_a_bracket_isomorphism():
    rng = random.Random(12)
    members = list(IndexSet.gl(1, 1, 1, 1))

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[BasisElement(rng.choice(members), rng.choice(members))] = Fraction(
                rng.randint(-3, 3)
            )
        return AlgebraElement(terms, rng.randint(-2, 2))

    for _ in range(100):
        x, y = rand_elem(), rand_elem()
        lhs = iota(supercommutator(x, y))
        rhs = supercommutator(iota(x), iota(y), central=True)
        assert (lhs - rhs).is_zero()


def test_supertrace():
    assert supertrace(elem((1, 1, 1), ("1/2", "1/2", 1))) == 0
    assert supertrace(elem((1, 1, 2), (1, 2, 7))) == 2


def test_supertrace_kills_brackets():
    rng = random.Random(8)
    members = list(IndexSet.gl(1, 2, 1, 1))
    for _ in range(200):
        a, b, c, d = (rng.choice(members) for _ in range(4))
        x = AlgebraElement({BasisElement(a, b): Fraction(rng.randint(-3, 3))})
        y = AlgebraElement({BasisElement(c, d): Fraction(rng.randint(-3, 3))})
        assert supertrace(supercommutator(x, y)) == 0


def test_omega_examples():
    assert star_omega(elem((1, "1/2", 1))) == elem(("1/2", 1, 1))
    assert star_omega(AlgebraElement({}, 1)) == AlgebraElement({}, 1)
    assert star_omega(elem((1, "1/2", Fraction(2, 3)))) == elem(("1/2", 1, Fraction(2, 3)))
    # negative integer rows pick up the tau sign
    assert star_omega(elem((-1, 1, 1))) == elem((1, -1, -1))
    assert star_omega(elem((-1, -2, 1))) == elem((-2, -1, 1))
    assert star_omega(elem(("-1/2", 1, 1))) == elem((1, "-1/2", 1))


def test_omega_is_an_anti_involution():
    rng = random.Random(21)
    members = list(IndexSet.gl(1, 1, 1, 2))

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[BasisElement(rng.choice(members), rng.choice(members))] = Fraction(
                rng.randint(-3, 3)
            )
        return AlgebraElement(terms)

    for _ in range(150):
        x, y = rand_elem(), rand_elem()
        assert (star_omega(star_omega(x)) - x).is_zero()
        lhs = star_omega(supercommutator(x, y))
        rhs = supercommutator(star_omega(y), star_omega(x))
        assert (lhs - rhs).is_zero()


def test_simple_raising_ops():
    assert simple_raising_ops(IndexSet.gl(0, 1, 0, 1)) == [E(1, "1/2")]
    assert simple_raising_ops(IndexSet.gl(0, 2, 0, 1)) == [E(1, 2), E(2, "1/2")]
    assert simple_raising_ops(IndexSet.classical(0, 2)) == [E("1/2", "3/2")]
