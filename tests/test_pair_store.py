"""The pair-block store against the dense formula it replaced.

The reference below rebuilds each two-site Casimir from dense slot blocks
(``slot_act``) multiplied with ``mat_mul``, K terms and the iota
correction included, exactly as the package did before the sparse core.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.gaudin import (
    K_SYMBOL,
    casimir,
    cubic_family,
    pair_matrix,
    quadratic_family,
    restrict_to_basis,
)
from supergaudin.indices import IndexSet
from supergaudin.linalg import mat_mul
from supergaudin.modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_module,
    singular_space,
    tensor_product,
)
from supergaudin.partitions import GeneralizedPartition, Partition
from supergaudin.weights import Weight, unitarizable_weight

FLAVORS = {
    "gl(1|1)": IndexSet.gl(0, 1, 0, 1),
    "gl(2|1)": IndexSet.gl(0, 2, 0, 1),
    "gl(3)": IndexSet.classical(0, 3),
    # a negative index, so the central convention has K terms and iota
    "gl(1|1+1)": IndexSet.gl(0, 1, 1, 1),
}
SHAPES = ((1,), (2,), (1, 1))


def dense_pair(tensor, cas, i, j, w, levels):
    """sum of coeff * left^{(i)} right^{(j)} from dense blocks, or None."""
    d = tensor.dim(w)

    def block(op, slot, cur):
        scalar = 0
        if op == K_SYMBOL:
            scalar = levels[slot]
            res = None
        else:
            res = tensor.slot_act(op, slot, cur)
            if cas.central and op.is_diagonal and op.row.doubled < 0:
                scalar = (-1 if op.row.parity else 1) * levels[slot]
        if not scalar:
            return res
        eye = [[scalar if r == c else 0 for c in range(d)] for r in range(d)]
        if res is None:
            return cur, eye
        return cur, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(res[1], eye)]

    total = None
    for coeff, left, right in cas.terms:
        first = block(right, j - 1, w)
        if first is None:
            continue
        second = block(left, i - 1, first[0])
        if second is None:
            continue
        assert second[0] == w
        prod = mat_mul(second[1], first[1])
        if total is None:
            total = [[Fraction(0)] * d for _ in range(d)]
        for trow, prow in zip(total, prod):
            for c, x in enumerate(prow):
                trow[c] += coeff * x
    return total


@st.composite
def tensors(draw):
    name = draw(st.sampled_from(sorted(FLAVORS)))
    iset = FLAVORS[name]
    ell = draw(st.integers(2, 3))
    factors = []
    for _ in range(ell):
        # polynomial modules need p = q = 0
        if iset.p or draw(st.booleans()):
            factors.append(NaturalModule(iset))
        else:
            factors.append(polynomial_module(iset, Partition(draw(st.sampled_from(SHAPES)))))
    tensor = tensor_product(factors)
    convention = draw(st.sampled_from(("plain", "central")))
    levels = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(ell)]
    w = draw(st.sampled_from(tensor.weights()))
    return tensor, convention, levels, w


def zs(ell):
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        min_size=ell,
        max_size=ell,
        unique=True,
    )


@settings(max_examples=40, deadline=None)
@given(tensors())
def test_stored_pair_matches_dense_reference_and_is_symmetric(case):
    tensor, convention, levels, w = case
    cas = casimir(tensor.index_set, central=(convention == "central"))
    ell = len(tensor.factors)
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            if i == j:
                continue
            ref = dense_pair(tensor, cas, i, j, w, levels)
            got = pair_matrix(tensor, cas, i, j, w, levels=levels)
            if ref is None:
                assert got is None
            else:
                assert got == ref
                assert dense_pair(tensor, cas, j, i, w, levels) == ref


@settings(max_examples=30, deadline=None)
@given(tensors(), st.data())
def test_restricted_from_store_equals_restricting_the_full_hamiltonian(case, data):
    tensor, convention, levels, _ = case
    ell = len(tensor.factors)
    z = data.draw(zs(ell))
    spaces = [s for s in (singular_space(tensor, w) for w in tensor.weights()) if s.dim]
    space = data.draw(st.sampled_from(spaces))
    fams = [quadratic_family(tensor, z, convention=convention, levels=levels)]
    # the cubic blocks T(a, b, c) live in the same store (p = q = 0 only)
    if not tensor.index_set.p and not tensor.index_set.q:
        fams += [cubic_family(tensor, z, kind) for kind in ("C", "D")]
    for fam in fams:
        for i in range(1, ell + 1):
            expected = restrict_to_basis(fam.matrix(i, space.weight), space.basis)
            assert fam.restricted(i, space) == expected, (fam.kind, i)


def test_plain_and_central_families_keep_their_own_restrictions():
    # gl(1|1+1) irreducibles with distinct levels: the plain and central
    # Omega^{(12)} differ, so a restriction keyed without the convention
    # or the levels would hand one family the other's blocks
    iset = FLAVORS["gl(1|1+1)"]
    mods = []
    for d, parts in ((1, (1,)), (2, (1, 1))):
        xi = unitarizable_weight(GeneralizedPartition(parts), 1, 0, 1, 1)
        mods.append(irreducible_truncated(iset, Weight(xi.coeffs, d), 3))
    tensor = tensor_product(mods)
    spaces = [s for s in (singular_space(tensor, w) for w in tensor.weights()) if s.dim]
    assert spaces
    z = [Fraction(1, 7), 2]
    plain = quadratic_family(tensor, z)
    central = quadratic_family(tensor, z, convention="central", levels=[1, 2])
    differ = False
    for fam in (plain, central, plain, central):
        for space in spaces:
            for i in (1, 2):
                got = fam.restricted(i, space)
                assert got == restrict_to_basis(fam.matrix(i, space.weight), space.basis)
                differ |= got != plain.restricted(i, space)
    assert differ


def _natural_pair():
    iset = FLAVORS["gl(2|1)"]
    tensor = tensor_product([NaturalModule(iset)] * 3)
    w = max(tensor.weights(), key=tensor.dim)
    return tensor, w


def _assert_unshared(get):
    first = get()
    pristine = copy.deepcopy(first)
    first[0][0] += 99
    first.append(["junk"])
    assert get() == pristine


def test_pair_matrix_result_is_not_shared():
    tensor, w = _natural_pair()
    cas = casimir(tensor.index_set)
    _assert_unshared(lambda: pair_matrix(tensor, cas, 1, 2, w))
    _assert_unshared(lambda: pair_matrix(tensor, cas, 2, 1, w))


def test_family_matrix_result_is_not_shared():
    tensor, w = _natural_pair()
    fam = quadratic_family(tensor, [0, 1, 3])
    _assert_unshared(lambda: fam.matrix(1, w))
    # a second family over the same tensor reads the same stored blocks
    assert quadratic_family(tensor, [0, 1, 3]).matrix(1, w) == fam.matrix(1, w)


def test_restricted_result_is_not_shared():
    tensor, _ = _natural_pair()
    space = next(s for s in (singular_space(tensor, w) for w in tensor.weights()) if s.dim > 1)
    fam = quadratic_family(tensor, [0, 1, 3])
    _assert_unshared(lambda: fam.restricted(2, space))
    other = quadratic_family(tensor, [Fraction(1, 2), 2, 5])
    assert other.restricted(2, space) == restrict_to_basis(other.matrix(2, space.weight), space.basis)


def test_cubic_matrix_and_restricted_results_are_not_shared():
    tensor, w = _natural_pair()
    space = next(s for s in (singular_space(tensor, v) for v in tensor.weights()) if s.dim > 1)
    for kind in ("C", "D"):
        fam = cubic_family(tensor, [0, 1, 3], kind)
        _assert_unshared(lambda: fam.matrix(1, w))
        _assert_unshared(lambda: fam.restricted(2, space))
        other = cubic_family(tensor, [0, 1, 3], kind)
        assert other.matrix(1, w) == fam.matrix(1, w)
        assert other.restricted(2, space) == restrict_to_basis(other.matrix(2, space.weight), space.basis)
