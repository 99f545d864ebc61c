"""Super-duality setups, spectrum matching and truncation reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.duality import (
    DualitySetup,
    build_setup,
    cubic_spectrum_match,
    spectrum_match,
    truncation_check,
)
from supergaudin.gaudin import central_shift
from supergaudin.indices import IndexSet
from supergaudin.modules import (
    irreducible_truncated,
    polynomial_highest_weight,
    polynomial_module,
    singular_space,
    tensor_product,
)
from supergaudin.partitions import Partition, all_partitions
from supergaudin.weights import Weight, eps

from oracles import hook_tableau_dimension, hook_weight_to_partition


def test_build_setup_examples():
    setup = build_setup([[1], [1]], 1, 1, [1, 1])
    # every first part is 1, so gl(1) holds every shape: mu' = (2) is one row
    assert setup.k == 1
    assert setup.super_weight == eps(1) + eps("1/2")
    assert setup.classical_weight == Weight({1: 2})
    assert [f.total_dim for f in setup.super_tensor.factors] == [2, 2]
    assert [f.total_dim for f in setup.classical_tensor.factors] == [1, 1]
    twin = DualitySetup(setup.partitions, 1, 1, setup.mu, 2)
    assert twin.classical_weight == setup.classical_weight
    assert [f.total_dim for f in twin.classical_tensor.factors] == [2, 2]

    setup2 = build_setup([[1], [1]], 1, 1, [2])
    assert setup2.classical_weight == eps("1/2") + eps("3/2")

    setup3 = build_setup([[2], [1]], 1, 1, [2, 1])
    # classical factors carry the conjugate highest weights
    assert setup3.classical_tensor.factors[0].highest_weight == eps("1/2") + eps("3/2")
    assert setup3.classical_weight == Weight({1: 2, 3: 1})


# the shapes of one to three boxes and a small grid of rational points
SHAPES = all_partitions(3, 1)
Z_GRID = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})


@st.composite
def small_setups(draw):
    """gl(m|n) with (m|n) <= (2|1), ell in {2, 3} hook factors of at most
    three boxes in all, a hook mu of the same size and distinct points."""
    m, n = draw(st.sampled_from(((0, 1), (1, 1), (2, 1))))
    ell = draw(st.sampled_from((2, 3)))
    fits = [lam for lam in SHAPES if lam.hook_ok(m, n)]
    lams = []
    for slot in range(ell):
        budget = 3 - sum(lam.size for lam in lams) - (ell - slot - 1)
        lams.append(draw(st.sampled_from([lam for lam in fits if lam.size <= budget])))
    total = sum(lam.size for lam in lams)
    mu = draw(st.sampled_from([nu for nu in all_partitions(total, total) if nu.hook_ok(m, n)]))
    z = draw(st.lists(st.sampled_from(Z_GRID), min_size=ell, max_size=ell, unique=True))
    return build_setup(lams, m, n, mu), z


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_setups())
def test_duality_holds_at_the_smallest_rank_and_that_rank_is_stable(case):
    """Super and classical char polys agree at k_min for the quadratic and
    both cubic kinds, and gl(k_min + 1) gives the same classical ones."""
    setup, z = case
    lams, mu = setup.partitions, setup.mu
    assert setup.k == max([lam.part(1) for lam in lams] + [mu.part(1), 1])
    twin = DualitySetup(lams, setup.m, setup.n, mu, setup.k + 1)
    for match in (spectrum_match, cubic_spectrum_match):
        here, above = match(setup, z), match(twin, z)
        assert here["equal"], here
        del here["setup"], above["setup"]
        assert above == here


def test_build_setup_hook_errors():
    with pytest.raises(ValueError, match="hook"):
        build_setup([[2, 2]], 1, 1, [2, 2])
    with pytest.raises(ValueError, match="hook"):
        build_setup([[1], [1]], 1, 1, [2, 2])


def test_build_setup_refuses_a_mu_of_the_wrong_size():
    # such a mu is no weight of the tensor product: both singular spaces
    # would be zero and every comparison would hold vacuously
    for mu in ([3], [1], [2, 1, 1]):
        with pytest.raises(ValueError, match="mu has %d boxes; the factors have 2" % sum(mu)):
            build_setup([[1], [1]], 1, 1, mu)
    assert build_setup([[2], [1]], 1, 1, [3]).k == 3


def test_spectrum_match_worked_cases():
    setup = build_setup([[1], [1]], 1, 1, [1, 1])
    rep = spectrum_match(setup, [0, 1])
    assert rep["equal"] and rep["dims"] == {"super": 1, "classical": 1}
    # eigenvalue -1/(z1 - z2) = 1 on both sides: char poly t - 1
    assert rep["per_i"][0]["charpoly_super"] == ["-1", "1"]
    assert rep["per_i"][0]["charpoly_classical"] == ["-1", "1"]

    rep2 = spectrum_match(build_setup([[1], [1]], 1, 1, [2]), [0, 1])
    assert rep2["per_i"][0]["charpoly_super"] == ["1", "1"]

    rep3 = spectrum_match(build_setup([[1], [1], [1]], 1, 1, [2, 1]), [0, 1, 3])
    assert rep3["equal"] and rep3["dims"] == {"super": 2, "classical": 2}


def test_cubic_spectrum_match():
    rng = random.Random(6)
    for lams, mu, ell in (([[1], [1]], [1, 1], 2), ([[1], [1], [1]], [2, 1], 3)):
        setup = build_setup(lams, 1, 1, mu)
        z = [Fraction(k) for k in range(ell)]
        rep = cubic_spectrum_match(setup, z)
        assert rep["equal"], rep
    # vacuously equal on an empty singular space
    setup = build_setup([[1], [1]], 1, 1, [1, 1])
    rep = cubic_spectrum_match(setup, [0, 1])
    assert rep["dims"]["super"] == 1


def test_dimension_match_across_grid():
    """dim of the super singular space equals the classical one for all
    setups with few boxes (the computable face of the isomorphism)."""
    for m, n in ((1, 1), (2, 1), (1, 2)):
        shapes = [lam for lam in all_partitions(2, 1) if lam.hook_ok(m, n)]
        lists = [[a, b] for a in shapes for b in shapes if a.size + b.size <= 4]
        for lams in lists:
            total = sum(l.size for l in lams)
            for mu in all_partitions(total, total):
                if not mu.hook_ok(m, n):
                    continue
                setup = build_setup(lams, m, n, mu)
                sup, cla = setup.singular_pair()
                assert sup.dim == cla.dim, (m, n, lams, mu)


def test_multiplicity_accounting_on_both_sides():
    setup = build_setup([[1], [2]], 1, 1, [2, 1])
    for tensor, iset, hook_m, hook_n in (
        (setup.super_tensor, setup.super_set, setup.m, setup.n),
        (setup.classical_tensor, setup.classical_set, 0, setup.k),
    ):
        total = 0
        for w in tensor.weights():
            s = singular_space(tensor, w)
            if not s.dim:
                continue
            lam = hook_weight_to_partition(w, hook_m, hook_n)
            total += s.dim * hook_tableau_dimension(lam, hook_m, hook_n)
        assert total == tensor.total_dim


def test_per_mu_counts_agree_across_sides():
    setup = build_setup([[1], [1], [1]], 1, 1, [2, 1])
    total = sum(l.size for l in setup.partitions)
    for mu in all_partitions(total, total):
        if not mu.hook_ok(1, 1):
            continue
        s = build_setup(list(setup.partitions), 1, 1, mu)
        sup, cla = s.singular_pair()
        assert sup.dim == cla.dim


def test_central_shift_examples():
    z = [Fraction(0), Fraction(1)]
    assert central_shift(IndexSet.gl(0, 1, 0, 1), [1, 1], z, 1) == 0
    assert central_shift(IndexSet.gl(0, 1, 1, 1), [1, 1], z, 1) == -1
    assert central_shift(IndexSet.gl(1, 1, 1, 1), [1, 1], z, 1) == 0


def test_truncation_check_reports():
    big_set = IndexSet.classical(0, 3)
    mod = polynomial_module(big_set, Partition([2]))
    rep = truncation_check(mod, IndexSet.classical(0, 2))
    assert rep["expected"] == "irreducible" and rep["equal"]
    rep_zero = truncation_check(mod, IndexSet.classical(0, 1))
    assert rep_zero["expected"] == "zero" and rep_zero["equal"]
    rep_same = truncation_check(mod, big_set)
    assert rep_same["equal"]


def test_truncation_check_rebuilds_a_gram_quotient():
    # an irreducible_truncated module is rebuilt by the Gram quotient at
    # the smaller rank and the same depth, not by the Pieri recursion
    big_set = IndexSet.classical(0, 3)
    cases = (([2, 1], 2, "irreducible"), ([2], 2, "irreducible"), ([1, 1], 1, "irreducible"), ([2, 1], 1, "zero"))
    for shape, rank, expected in cases:
        hw = polynomial_highest_weight(big_set, Partition(shape))
        mod = irreducible_truncated(big_set, hw, 4)
        rep = truncation_check(mod, IndexSet.classical(0, rank))
        assert rep["expected"] == expected and rep["equal"], (shape, rank, rep)


def test_cached_singular_basis_cannot_be_mutated():
    # singular_pair() is memoized per setup and its basis keys the stored
    # restricted blocks, so an edit would corrupt every later match
    setup = build_setup([[1], [1], [1]], 2, 1, [2, 1])
    before = spectrum_match(setup, [0, 1, 3])
    sup, cla = setup.singular_pair()
    assert isinstance(sup.basis, tuple) and all(isinstance(v, tuple) for v in sup.basis)
    with pytest.raises(TypeError):
        sup.basis[0][0] += 1
    with pytest.raises(TypeError):
        cla.basis[0][0] = 0
    assert setup.singular_pair() == (sup, cla)
    assert spectrum_match(setup, [0, 1, 3]) == before
