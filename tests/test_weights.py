"""Weight constructions and the duality bijections."""

import json
from fractions import Fraction

import pytest

from supergaudin.duality import DualitySetup, build_setup
from supergaudin.indices import IndexSet, idx
from supergaudin.modules import polynomial_highest_weight
from supergaudin.partitions import GeneralizedPartition, Partition, all_partitions
from supergaudin.weights import Weight, eps, highest_weight, unitarizable_weight

from oracles import hook_weight_to_partition


def test_weight_basics():
    w = eps(1) + eps("1/2") - eps(1)
    assert w == eps("1/2")
    assert w(idx("1/2")) == 1 and w(idx(1)) == 0
    assert sum((eps(1) + eps(1)).coeffs.values()) == 2
    assert eps("1/2").parity == 1 and eps(1).parity == 0
    with pytest.raises(ValueError):
        Weight({2: 1}, level=1.5 + 2j)
    with pytest.raises(ValueError):
        Weight({0: 1})


def test_weight_json_round_trip():
    w = Weight({2: 3, -1: -2}, Fraction(5, 7))
    doc = w.to_json()
    assert doc == {"level": "5/7", "coeffs": [[-1, -2], [2, 3]]}
    assert Weight.from_json(doc) == w


def test_weight_refuses_non_integral_values():
    # integral Fraction and float values are exact integers and stay accepted
    assert Weight({2: Fraction(4, 2), 1.0: 3.0}) == Weight({2: 2, 1: 3})
    inf = float("inf")
    non_integral = ({2: Fraction(3, 2)}, {2: 1.7}, {Fraction(3, 2): 1}, {2.5: 1}, {2: inf}, {inf: 1}, {2: float("nan")})
    for coeffs in non_integral:
        with pytest.raises(ValueError, match="must be integers"):
            Weight(coeffs)
    for level in (inf, -inf, float("nan"), "1/0"):
        with pytest.raises(ValueError, match="exact rational"):
            Weight({}, level)
    with pytest.raises(ValueError, match="malformed weight document"):
        Weight.from_json({"coeffs": [[2, 1.5], [1, 0.5]], "level": "0"})
    with pytest.raises(ValueError, match="malformed weight document"):
        Weight.from_json({"coeffs": [[2.5, 1]], "level": "0"})
    infinite = ('[[2, Infinity]], "level": "0"', '[[2, 1e999]], "level": "0"', '[], "level": Infinity', '[], "level": "1/0"')
    for doc in ('{"coeffs": %s}' % body for body in infinite):
        with pytest.raises(ValueError, match="malformed weight document"):
            Weight.from_json(json.loads(doc))
    assert Weight.from_json({"coeffs": [[2, 1.0]], "level": "0"}) == eps(1)


def test_weight_from_json_refuses_a_repeated_index():
    for coeffs in ([[2, 1], [2, 3]], [[2, 1], [2.0, 1]], [[-1, 0], [-1, 0]]):
        with pytest.raises(ValueError, match="malformed weight document.*repeated index"):
            Weight.from_json({"coeffs": coeffs, "level": "0"})


def test_weight_from_json_refuses_bools():
    # JSON true and false are no numbers, as in the shipped schemas
    for doc in ('{"coeffs": [[1, true]], "level": "0"}', '{"coeffs": [[true, 1]], "level": "0"}',
                '{"coeffs": [[2, false]], "level": "0"}', '{"coeffs": [], "level": true}'):
        with pytest.raises(ValueError, match="malformed weight document.*true or false"):
            Weight.from_json(json.loads(doc))


GL11 = IndexSet.gl(0, 1, 0, 1)


def test_weight_super_examples():
    assert highest_weight(GL11, Partition([]), level=3) == Weight({}, 3)
    assert highest_weight(GL11, Partition([1])) == eps(1)
    assert highest_weight(GL11, Partition([1, 1])) == eps(1) + eps("1/2")


def test_weight_super_hook_errors_name_the_inequality():
    with pytest.raises(ValueError, match="lam\\+"):
        highest_weight(IndexSet.gl(0, 0, 0, 1), Partition([2]))
    with pytest.raises(ValueError, match="lam-"):
        highest_weight(GL11, Partition([]), Partition([1]))


def test_weight_classical_and_wide():
    lam = Partition([2, 1])
    w = highest_weight(IndexSet.classical(0, 2), lam)
    assert w == Weight({1: 2, 3: 1})
    with pytest.raises(ValueError):
        highest_weight(IndexSet.classical(0, 2), Partition([3]))
    ww = highest_weight(IndexSet("wide", p=1, n=1), Partition([1]), level=2)
    assert ww == Weight({1: 1}, 2)
    with pytest.raises(ValueError):
        highest_weight(IndexSet("wide", p=0, n=1), Partition([3, 3, 3]))


def test_unitarizable_examples():
    assert unitarizable_weight(GL11, GeneralizedPartition([1])) == eps(1)
    assert unitarizable_weight(GL11, GeneralizedPartition([1, 1])) == eps(1) + eps("1/2")
    w = unitarizable_weight(IndexSet.gl(0, 0, 1, 1), GeneralizedPartition([-1]))
    assert w == Weight({-2: -2})
    # p = 2, q = 1, depth 3: the weight of ((1), (1)) is -1 on e(-1/2) and
    # 1 on e(1); the depth moves e(-1), e(-2) by -3 and e(-1/2) by +3
    w = unitarizable_weight(IndexSet.gl(1, 1, 2, 1), GeneralizedPartition([1, 0, -1]))
    assert w == Weight({-2: -3, -4: -3, -1: 2, 2: 1})
    with pytest.raises(ValueError, match="lam_2"):
        unitarizable_weight(GL11, GeneralizedPartition([3, 2]))
    with pytest.raises(ValueError, match="lam_1"):
        unitarizable_weight(IndexSet.gl(1, 1, 0, 1), GeneralizedPartition([-2]))
    with pytest.raises(ValueError, match="super flavor"):
        unitarizable_weight(IndexSet.classical(0, 2), GeneralizedPartition([1]))


def duality_weights(lam, m, n, k):
    """The matched super and classical weights of a master partition, as
    ``DualitySetup`` reads them: the hook weights on gl(m|n) and on the
    purely odd gl(k)."""
    return (
        polynomial_highest_weight(IndexSet.gl(0, m, 0, n), lam),
        polynomial_highest_weight(IndexSet.classical(0, k), lam),
    )


def test_hook_correspondence_examples():
    sup, cla = duality_weights(Partition([1]), 1, 1, 1)
    assert sup == eps(1) and cla == eps("1/2")
    sup, cla = duality_weights(Partition([1, 1]), 1, 1, 2)
    assert sup == eps(1) + eps("1/2") and cla == Weight({1: 2})
    sup, cla = duality_weights(Partition([2]), 1, 1, 2)
    assert sup == Weight({2: 2}) and cla == eps("1/2") + eps("3/2")
    with pytest.raises(ValueError, match=r"outside the \(1\|1\) hook"):
        duality_weights(Partition([2, 2]), 1, 1, 4)
    # a classical rank below lam_1 is the (0|k) hook on the classical side
    with pytest.raises(ValueError, match=r"outside the \(0\|2\) hook"):
        duality_weights(Partition([3]), 3, 1, 2)
    setup = build_setup([[1], [1]], 1, 1, [1, 1])
    assert (setup.super_weight, setup.classical_weight) == duality_weights(Partition([1, 1]), 1, 1, 2)


def test_hook_correspondence_refuses_the_hook_before_the_rank():
    # (2,2) misses the (1|1) hook by one box and is too wide for k = 1; the
    # setup reads the super weight first, so a super hook check loosened
    # by one (lam'_2 > m + 1) would pass it on to the classical rank
    with pytest.raises(ValueError, match=r"lam\+ = Partition\(\[2, 2\]\) lies outside the \(1\|1\) hook"):
        DualitySetup((), 1, 1, Partition([2, 2]), 1)


def test_hook_correspondence_grades_by_box_count():
    for lam in all_partitions(6):
        for m, n in ((1, 1), (2, 1), (2, 2)):
            if not lam.hook_ok(m, n):
                continue
            k = max(lam.part(1), 1)
            sup, cla = duality_weights(lam, m, n, k)
            assert sum(sup.coeffs.values()) == lam.size == sum(cla.coeffs.values())


def test_super_weight_round_trips():
    # lam -> hook weight -> lam, and positivity of the Cartan values
    for lam in all_partitions(8):
        for m, n in ((1, 1), (2, 2), (3, 3)):
            if not lam.hook_ok(m, n):
                continue
            w = highest_weight(IndexSet.gl(0, m, 0, n), lam, level=2)
            assert all(v >= 0 for v in w.coeffs.values())
            assert hook_weight_to_partition(w, m, n) == lam
    # negative parts and a level: lam+ = (2, 1) fills e(1), e(2); the
    # lam- = (3, 1) row past q = 2 gives -1 on e(-1); its conjugate
    # (2, 1, 1) gives -2, -1 on e(-1/2), e(-3/2)
    w = highest_weight(IndexSet.gl(2, 2, 2, 2), Partition([2, 1]), Partition([3, 1]), Fraction(1, 2))
    assert w == Weight({2: 2, 4: 1, -2: -1, -1: -2, -3: -1}, Fraction(1, 2))
