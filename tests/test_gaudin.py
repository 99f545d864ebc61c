"""Gaudin Hamiltonians against an independent brute-force oracle.

The oracle works on explicit tensor words of natural-module indices and
applies matrix units slot by slot with hand-rolled Koszul signs; it shares
no code with the package's tensor machinery.
"""

import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supergaudin.algebra import BasisElement, E, off_diagonal_units
from supergaudin.duality import truncation_check
from supergaudin.gaudin import (
    KINDS,
    HamiltonianFamily,
    _omega_spec,
    _stored_block,
    casimir,
    central_shift,
    commutator_residual,
    cyclic_vector_test,
    joint_diagonalize,
    pairwise_commutator_residual,
)
from supergaudin.indices import IndexSet
from supergaudin.linalg import is_zero_matrix, mat_add, mat_mul, mat_sub
from supergaudin.modules import NaturalModule, polynomial_module, singular_space, tensor_product
from supergaudin.partitions import Partition
from supergaudin.weights import Weight, eps

from oracles import restrict_to_basis

GL11 = IndexSet.gl(0, 1, 0, 1)


class WordOracle:
    """Tensor powers of the natural module on explicit index words."""

    def __init__(self, index_set, ell):
        self.members = list(index_set)
        self.ell = ell

    def words(self):
        out = [()]
        for _ in range(self.ell):
            out = [w + (h,) for w in out for h in self.members]
        return out

    def weight_of(self, word):
        coeffs = {}
        for h in word:
            coeffs[h.doubled] = coeffs.get(h.doubled, 0) + 1
        return Weight(coeffs)

    def apply_unit(self, a, b, slot, state):
        """E_{a,b} on one slot with the Koszul sign, on a word dict."""
        out = {}
        for word, coeff in state.items():
            if word[slot] != b:
                continue
            prefix_parity = sum(h.parity for h in word[:slot]) & 1
            sign = -1 if (prefix_parity and (a.parity ^ b.parity)) else 1
            new = word[:slot] + (a,) + word[slot + 1 :]
            out[new] = out.get(new, Fraction(0)) + sign * coeff
        return {k: v for k, v in out.items() if v}

    def matrix_of(self, op_apply, weight):
        words = [w for w in self.words() if self.weight_of(w) == weight]
        index = {w: i for i, w in enumerate(words)}
        mat = [[Fraction(0)] * len(words) for _ in range(len(words))]
        for col, word in enumerate(words):
            for out_word, coeff in op_apply({word: Fraction(1)}).items():
                mat[index[out_word]][col] += coeff
        return mat, words

    def casimir_pair(self, i, j, state):
        """sum (-1)^{2b} E_{a,b}^{(i)} E_{b,a}^{(j)} applied to a state."""
        total = {}
        for a in self.members:
            for b in self.members:
                sign = -1 if b.parity else 1
                mid = self.apply_unit(b, a, j, state)
                fin = self.apply_unit(a, b, i, mid)
                for word, coeff in fin.items():
                    total[word] = total.get(word, Fraction(0)) + sign * coeff
        return {k: v for k, v in total.items() if v}

    def quadratic(self, i, z, state):
        total = {}
        for j in range(self.ell):
            if j == i:
                continue
            part = self.casimir_pair(i, j, state)
            scale = Fraction(1) / (z[i] - z[j])
            for word, coeff in part.items():
                total[word] = total.get(word, Fraction(0)) + scale * coeff
        return {k: v for k, v in total.items() if v}

    def cubic_sign(self, r, s, t):
        two_st = (s.parity + t.parity) % 2
        factor = (r.parity + t.parity + 1) % 2
        return -1 if (two_st * factor) % 2 else 1

    def cubic(self, i, z, kind, state):
        total = {}

        def add(part, scale):
            for word, coeff in part.items():
                total[word] = total.get(word, Fraction(0)) + scale * coeff

        for r in self.members:
            for s in self.members:
                for t in self.members:
                    sign = self.cubic_sign(r, s, t)
                    if kind == "cubicD":
                        for j in range(self.ell):
                            if j == i:
                                continue
                            part = self.apply_unit(s, t, i, state)
                            part = self.apply_unit(t, r, i, part)
                            part = self.apply_unit(r, s, j, part)
                            add(part, Fraction(sign) / (z[i] - z[j]))
                        continue
                    for j in range(self.ell):
                        if j == i:
                            continue
                        for k in range(self.ell):
                            if k in (i, j):
                                continue
                            part = self.apply_unit(s, t, k, state)
                            part = self.apply_unit(t, r, j, part)
                            part = self.apply_unit(r, s, i, part)
                            add(part, Fraction(sign) / ((z[i] - z[j]) * (z[i] - z[k])))
                        sq = Fraction(sign) / (z[i] - z[j]) ** 2
                        part = self.apply_unit(s, t, j, state)
                        part = self.apply_unit(t, r, j, part)
                        part = self.apply_unit(r, s, i, part)
                        add(part, sq)
                        part = self.apply_unit(s, t, i, state)
                        part = self.apply_unit(t, r, i, part)
                        part = self.apply_unit(r, s, j, part)
                        add(part, -sq)
        return {k: v for k, v in total.items() if v}


def package_matrix(fam, i, w):
    return fam.matrix(i, w)


def oracle_matrix_matches(index_set, ell, z, weight, build_package, build_oracle):
    oracle = WordOracle(index_set, ell)
    mat_oracle, words = oracle.matrix_of(build_oracle(oracle), weight)
    nat = NaturalModule(index_set)
    tensor = tensor_product([nat] * ell)
    mat_pkg = build_package(tensor)
    # align bases: package tuples are ((weight, 0), ...), oracle words are
    # plain index tuples; on natural factors these correspond one to one
    tuples = tensor.basis_tuples(weight)
    perm = []
    for tup in tuples:
        word = tuple(
            next(h for h in index_set if eps(h.value) == fw) for fw, _ in tup
        )
        perm.append(words.index(word))
    d = len(tuples)
    remapped = [[mat_oracle[perm[r]][perm[c]] for c in range(d)] for r in range(d)]
    assert [[Fraction(x) for x in row] for row in mat_pkg] == remapped


def test_casimir_term_lists():
    cas = casimir(GL11)
    expected = [
        (Fraction(1), E(1, 1), E(1, 1)),
        (Fraction(-1), E(1, "1/2"), E("1/2", 1)),
        (Fraction(1), E("1/2", 1), E(1, "1/2")),
        (Fraction(-1), E("1/2", "1/2"), E("1/2", "1/2")),
    ]
    assert sorted(cas, key=lambda t: (t[1].key(), t[2].key())) == sorted(
        expected, key=lambda t: (t[1].key(), t[2].key())
    )
    cl1 = casimir(IndexSet.classical(0, 1))
    assert list(cl1) == [(Fraction(-1), E("1/2", "1/2"), E("1/2", "1/2"))]
    # p = q = 0 flavors never get central terms
    assert len(casimir(IndexSet.gl(0, 2, 0, 2), central=True)) == len(
        casimir(IndexSet.gl(0, 2, 0, 2))
    )
    # p = 1 adds two K terms for the negative index
    with_k = casimir(IndexSet.gl(0, 1, 1, 1), central=True)
    k_terms = [t for t in with_k if "K" in (t[1], t[2])]
    assert len(k_terms) == 2


def test_apply_pair_examples():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    omega = _omega_spec(False, 1, 2, None)
    assert _stored_block(t2, omega, Weight({2: 2})) == ((Fraction(1),),)
    assert _stored_block(t2, omega, Weight({1: 2})) == ((Fraction(-1),),)


def test_pair_matrix_matches_word_oracle():
    z = [Fraction(0), Fraction(1), Fraction(3)]
    for iset in (GL11, IndexSet.gl(0, 2, 0, 1)):
        nat_weights = [eps(h.value) for h in iset]
        mixed = nat_weights[0] + nat_weights[-1] + nat_weights[0]
        for i in (1, 2, 3):
            oracle_matrix_matches(
                iset,
                3,
                z,
                mixed,
                lambda tensor, i=i: HamiltonianFamily(tensor, z).matrix(i, mixed),
                lambda oracle, i=i: (lambda state: oracle.quadratic(i - 1, z, state)),
            )


def test_quadratic_worked_case():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    fam = HamiltonianFamily(t2, [0, 1])
    mu = eps(1) + eps("1/2")
    space = singular_space(t2, mu)
    h1 = fam.restricted(1, space)
    h2 = fam.restricted(2, space)
    assert h1 == [[Fraction(1)]]
    assert mat_add(h1, h2) == [[Fraction(0)]]
    top = fam.matrix(1, Weight({2: 2}))
    assert top == [[Fraction(-1)]]


REFUSALS = {
    "z-point-count": (lambda t2: HamiltonianFamily(t2, [0, 1, 2]), "need one z point per tensor factor"),
    "site-index": (lambda t2: HamiltonianFamily(t2, [0, 1]).terms(3), "site index out of range"),
    "site-index-zero": (lambda t2: HamiltonianFamily(t2, [0, 1]).terms(0), "site index out of range"),
    # a natural module has no highest weight to rebuild the band from
    "truncation-without-highest-weight": (
        lambda t2: truncation_check(t2.factors[0], GL11),
        "truncation_check needs an irreducible realization",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_family_and_truncation_refusals_name_their_input(call, message):
    nat = NaturalModule(GL11)
    with pytest.raises(ValueError, match=message):
        call(tensor_product([nat, nat]))


def test_coincident_z_rejected():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    with pytest.raises(ValueError):
        HamiltonianFamily(t2, [1, 1])
    with pytest.raises(ValueError):
        HamiltonianFamily(t2, [2, 2], "cubicC")


def test_one_level_per_tensor_factor():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    for levels in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="need one level per tensor factor"):
            HamiltonianFamily(t2, [0, 1], convention="central", levels=levels)
    assert HamiltonianFamily(t2, [0, 1], convention="central", levels=[1, 2]).levels == [1, 2]


def test_restrict_to_basis_needs_an_invariant_subspace():
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert restrict_to_basis(swap, [[1, 1]]) == [[Fraction(1)]]
    assert restrict_to_basis(swap, [[1, 1], [1, -1]]) == [[1, 0], [0, -1]]
    with pytest.raises(ValueError, match="subspace is not invariant under the operator"):
        restrict_to_basis(swap, [[1, 0]])


def test_cubic_matches_word_oracle():
    z = [Fraction(0), Fraction(1)]
    mixed = eps(1) + eps("1/2")
    for kind in ("cubicC", "cubicD"):
        for i in (1, 2):
            oracle_matrix_matches(
                GL11,
                2,
                z,
                mixed,
                lambda tensor, i=i, kind=kind: HamiltonianFamily(tensor, z, kind).matrix(i, mixed),
                lambda oracle, i=i, kind=kind: (
                    lambda state: oracle.cubic(i - 1, z, kind, state)
                ),
            )
    z3 = [Fraction(0), Fraction(1), Fraction(7, 2)]
    w3 = eps(1) + eps(1) + eps("1/2")
    oracle_matrix_matches(
        GL11,
        3,
        z3,
        w3,
        lambda tensor: HamiltonianFamily(tensor, z3, "cubicC").matrix(2, w3),
        lambda oracle: (lambda state: oracle.cubic(1, z3, "cubicC", state)),
    )


def test_cubic_rejects_central_flavors():
    iset = IndexSet.gl(0, 1, 1, 1)
    nat = NaturalModule(iset)
    t2 = tensor_product([nat, nat])
    with pytest.raises(ValueError, match="p = q = 0"):
        HamiltonianFamily(t2, [0, 1], "cubicC")


# the cubic C_i and D_i exist only for p = q = 0 and in the plain
# convention; each of these used to build a family without a word
@pytest.mark.parametrize(
    "iset, kind, convention, message",
    [
        (GL11, "bogus", "plain", "kind must be one of quadratic, cubicC, cubicD, got 'bogus'"),
        (GL11, "quadratic", "weird", "convention must be plain or central"),
        (GL11, "cubicC", "central", "cubic Hamiltonians exist only in the plain convention"),
        (IndexSet.gl(1, 1, 1, 1), "cubicD", "plain", "cubic Hamiltonians need p = q = 0"),
        (IndexSet("wide", p=0, n=2), "cubicC", "plain", "unsupported flavor for cubic Hamiltonians"),
    ],
    ids=["unknown-kind", "unknown-convention", "cubic-central", "cubic-gl(1+1|1+1)", "cubic-wide"],
)
def test_the_family_constructor_refuses_what_the_paper_does_not_define(iset, kind, convention, message):
    tensor = tensor_product([NaturalModule(iset)] * 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        HamiltonianFamily(tensor, [0, 1], kind, convention, None)


def test_classical_cubic_signs_are_positive():
    from supergaudin.gaudin import _cubic_sign
    from supergaudin.indices import idx

    for r in ("1/2", "3/2", "5/2"):
        for s in ("1/2", "3/2"):
            for t in ("3/2", "5/2"):
                assert _cubic_sign(idx(r), idx(s), idx(t)) == 1


def test_commutators_and_equivariance():
    nat = NaturalModule(GL11)
    t3 = tensor_product([nat] * 3)
    z = [Fraction(0), Fraction(1), Fraction(3)]
    fam = HamiltonianFamily(t3, z)
    famc = HamiltonianFamily(t3, z, "cubicC")
    famd = HamiltonianFamily(t3, z, "cubicD")
    members = list(GL11)
    for w in t3.weights():
        # every member of all three families commutes with every other
        mats = fam.matrices(w) + famc.matrices(w) + famd.matrices(w)
        assert pairwise_commutator_residual(mats) == 0
        total = fam.matrix(1, w)
        for i in (2, 3):
            total = mat_add(total, fam.matrix(i, w))
        assert is_zero_matrix(total)
        for a in members:
            for b in members:
                res = t3.act(BasisElement(a, b), w)
                if res is None or res[0] != w:
                    continue
                for i in (1, 2, 3):
                    assert commutator_residual(fam.matrix(i, w), res[1]) == 0
                    assert commutator_residual(famc.matrix(i, w), res[1]) == 0
                    assert commutator_residual(famd.matrix(i, w), res[1]) == 0


# the hook shapes of at most two boxes, over every gl(m|n) with m, n >= 1
SMALL_SHAPES = (None, (1,), (2,), (1, 1))
Z_GRID = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})


@st.composite
def small_polynomial_tensors(draw):
    """gl(m|n)^{(x) ell} with p = q = 0, m + n <= 4 and ell in {2, 3}, of
    natural factors (None) or 2-box hook polynomial modules, at distinct
    points of a small rational grid.  The total dimension is capped at
    64 to keep the exact checks near 5 s in pure Python on 2 cores, where
    a total of 128 takes about 2.5 s alone and gl(2|2) with three 2-box
    factors (512) about 40 s."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 - m))
    ell = draw(st.sampled_from((2, 3)))
    iset = IndexSet.gl(0, m, 0, n)
    shapes = draw(st.lists(st.sampled_from(SMALL_SHAPES), min_size=ell, max_size=ell))
    tensor = tensor_product([NaturalModule(iset) if s is None else polynomial_module(iset, Partition(s)) for s in shapes])
    assume(tensor.total_dim <= 64)
    z = draw(st.lists(st.sampled_from(Z_GRID), min_size=ell, max_size=ell, unique=True))
    return tensor, z


@settings(max_examples=20, deadline=10_000, derandomize=True)
@given(small_polynomial_tensors())
def test_the_quadratic_and_cubic_families_commute_are_invariant_and_h_sums_to_zero(case):
    """The paper's claims on every weight space: H^i, C_i and D_i all
    commute, each commutes with every off-diagonal unit (E maps the
    w-space to the w'-space, so E M(w) = M(w') E), and sum_i H^i = 0."""
    tensor, z = case
    fams = [HamiltonianFamily(tensor, z, kind) for kind in KINDS]
    mats = {w: [m for fam in fams for m in fam.matrices(w)] for w in tensor.weights()}
    ell = len(z)
    for w, here in mats.items():
        assert pairwise_commutator_residual(here) == 0
        assert is_zero_matrix(functools.reduce(mat_add, here[:ell]))
        for gen in off_diagonal_units(tensor.index_set):
            res = tensor.act(gen, w)
            if res is None:
                continue
            target, block = res
            for a, b in zip(here, mats[target]):
                assert mat_mul(block, a) == mat_mul(b, block)


def test_hamiltonians_preserve_singular_spaces():
    nat = NaturalModule(GL11)
    t3 = tensor_product([nat] * 3)
    fam = HamiltonianFamily(t3, [Fraction(0), Fraction(1), Fraction(3)])
    for w in t3.weights():
        space = singular_space(t3, w)
        if space.dim:
            for i in (1, 2, 3):
                fam.restricted(i, space)  # raises if not invariant


def test_joint_diagonalize():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    fam = HamiltonianFamily(t2, [0, 1])
    mu = eps(1) + eps("1/2")
    space = singular_space(t2, mu)
    mats = [fam.restricted(i, space) for i in (1, 2)]
    jd = joint_diagonalize(mats, random.Random(1))
    assert jd.all_certified
    assert abs(jd.eigenvalues[0][0] - 1.0) < 1e-12
    # joint eigenvalues across the family sum to zero vector by vector
    t3 = tensor_product([nat] * 3)
    fam3 = HamiltonianFamily(t3, [Fraction(1, 7), Fraction(5, 7), Fraction(13, 7)])
    w = eps(1) + eps("1/2") + eps("1/2")
    space3 = singular_space(t3, w)
    mats3 = [fam3.restricted(i, space3) for i in (1, 2, 3)]
    jd3 = joint_diagonalize(mats3, random.Random(2))
    assert jd3.all_certified
    for kvec in range(space3.dim):
        assert abs(sum(jd3.eigenvalues[i][kvec] for i in range(3))) < 1e-9


def test_joint_diagonalize_rejects_noncommuting():
    with pytest.raises(ValueError, match="commute"):
        joint_diagonalize([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], random.Random(0))


def test_trivial_commutator():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    fam = HamiltonianFamily(t2, [0, 1])
    m = fam.matrix(1, eps(1) + eps("1/2"))
    assert commutator_residual(m, m) == 0


def test_cyclic_vector():
    nat = NaturalModule(GL11)
    for ell, z in ((2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3])):
        tensor = tensor_product([nat] * ell)
        fam = HamiltonianFamily(tensor, z)
        for w in tensor.weights():
            space = singular_space(tensor, w)
            if not space.dim:
                continue
            mats = [fam.restricted(i, space) for i in range(1, ell + 1)]
            found, profile = cyclic_vector_test(mats, space.dim, random.Random(5))
            assert found, (ell, w, profile)


def test_central_shift_examples():
    z = [Fraction(0), Fraction(1)]
    assert central_shift(GL11, [1, 1], z, 1) == 0
    assert central_shift(IndexSet.gl(0, 1, 1, 1), [1, 1], z, 1) == -1
    assert central_shift(IndexSet.gl(1, 1, 1, 1), [2, 3], z, 1) == 0
    assert central_shift(IndexSet.classical(1, 1), [1, 1], z, 1) == 1


@pytest.mark.parametrize(
    "flavor, p, q, c",
    [("super", 2, 1, 1), ("super", 1, 2, -1), ("classical", 2, 0, -2), ("wide", 3, 0, 0)],
)
def test_central_shift_is_one_flavor_constant_times_the_pole_sum(flavor, p, q, c):
    # c = sum over the negative indices a of (-1)^{2a}
    z = [Fraction(0), Fraction(1, 2), Fraction(3)]
    levels = [2, 3, Fraction(1, 2)]
    poles = Fraction(-12) + Fraction(-1, 3)  # 2 * 3 / (0 - 1/2) + 2 * (1/2) / (0 - 3)
    assert central_shift(IndexSet(flavor, p=p, q=q), levels, z, 1) == c * poles


@pytest.mark.parametrize(
    "iset",
    [IndexSet("wide", p=1, n=1), IndexSet.classical(1, 2), IndexSet.gl(0, 1, 2, 1), IndexSet.gl(1, 1, 1, 1)],
    ids=repr,
)
def test_central_minus_plain_is_the_shift_on_every_flavor(iset):
    """The honest K and iota words of the central convention land exactly
    central_shift away from the plain family; on the wide flavor c = 0, so
    the two families are equal matrices."""
    tensor = tensor_product([NaturalModule(iset)] * 3)
    z = [Fraction(0), Fraction(1, 2), Fraction(2)]
    levels = [Fraction(2), Fraction(3), Fraction(-1, 3)]
    plain = HamiltonianFamily(tensor, z)
    central = HamiltonianFamily(tensor, z, convention="central", levels=levels)
    for w in tensor.weights():
        d = tensor.dim(w)
        for i in (1, 2, 3):
            s = central_shift(iset, levels, z, i)
            eye = [[s if r == c else 0 for c in range(d)] for r in range(d)]
            assert mat_sub(plain.matrix(i, w), central.matrix(i, w)) == eye
            if iset.flavor == "wide":
                assert plain.matrix(i, w) == central.matrix(i, w)


def test_central_convention_differs_by_the_shift_matrix():
    """The honest central assembly lands exactly shift away from plain."""
    from supergaudin.modules import irreducible_truncated
    from supergaudin.partitions import GeneralizedPartition
    from supergaudin.weights import unitarizable_weight

    iset = IndexSet.gl(0, 1, 1, 1)
    mods = []
    for d, parts in ((1, (1,)), (2, (2, 1))):
        xi = unitarizable_weight(iset, GeneralizedPartition(parts))
        mod = irreducible_truncated(iset, xi, 2)
        mods.append(mod)
    tensor = tensor_product(mods)
    levels = [Fraction(1), Fraction(2)]
    z = [Fraction(2, 7), Fraction(9, 7)]
    plain = HamiltonianFamily(tensor, z)
    central = HamiltonianFamily(tensor, z, convention="central", levels=levels)
    for w in tensor.weights():
        d = tensor.dim(w)
        for i in (1, 2):
            s = central_shift(iset, levels, z, i)
            diff = mat_sub(plain.matrix(i, w), central.matrix(i, w))
            expected = [
                [s if r == c else Fraction(0) for c in range(d)] for r in range(d)
            ]
            assert diff == expected


def test_all_matrices_are_exact_rationals():
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    fam = HamiltonianFamily(t2, [Fraction(1, 3), Fraction(2)])
    for w in t2.weights():
        for row in fam.matrix(1, w):
            for x in row:
                assert isinstance(x, (int, Fraction))
