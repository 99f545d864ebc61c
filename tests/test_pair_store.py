"""The block store, and the one-site Casimir words, against the dense
formulas they replaced.

The references below rebuild each two-site Casimir and each one-site
Casimir from dense slot blocks (the oracle ``slot_act``) multiplied with
``mat_mul``, K terms and the iota correction included, exactly as the
package did before the sparse core.
"""

import copy
from fractions import Fraction
from itertools import product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin.algebra import BasisElement
from supergaudin.gaudin import (
    K_SYMBOL,
    _block_terms,
    _omega_spec,
    _stored_block,
    casimir,
    cubic_family,
    family_levels,
    quadratic_family,
)
from supergaudin.indices import IndexSet
from supergaudin.linalg import mat_mul
from supergaudin.modules import (
    NaturalModule,
    SingularSpace,
    irreducible_truncated,
    polynomial_module,
    singular_space,
    tensor_product,
)
from supergaudin.partitions import GeneralizedPartition, Partition
from supergaudin.weights import Weight, unitarizable_weight

from oracles import restrict_to_basis, slot_act

FLAVORS = {
    "gl(1|1)": IndexSet.gl(0, 1, 0, 1),
    "gl(2|1)": IndexSet.gl(0, 2, 0, 1),
    "gl(3)": IndexSet.classical(0, 3),
    # a negative index, so the central convention has K terms and iota
    "gl(1|1+1)": IndexSet.gl(0, 1, 1, 1),
}
SHAPES = ((1,), (2,), (1, 1))


def dense_pair(tensor, central, i, j, w, levels):
    """sum of coeff * left^{(i)} right^{(j)} over the Casimir terms, from
    dense blocks, or None."""
    d = tensor.dim(w)

    def block(op, slot, cur):
        scalar = 0
        if op == K_SYMBOL:
            scalar = levels[slot]
            res = None
        else:
            res = slot_act(tensor, op, slot, cur)
            if central and op.is_diagonal and op.row.doubled < 0:
                scalar = (-1 if op.row.parity else 1) * levels[slot]
        if not scalar:
            return res
        eye = [[scalar if r == c else 0 for c in range(d)] for r in range(d)]
        if res is None:
            return cur, eye
        return cur, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(res[1], eye)]

    total = None
    for coeff, left, right in casimir(tensor.index_set, central):
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


def dense_site(tensor, k, slot, w):
    """sum over chains r_0 .. r_{k-1} of (-1)^{2(r_1 + ... + r_{k-1})}
    E_{r_0 r_1} ... E_{r_{k-1} r_0} on the 1-based slot, from dense blocks."""
    d = tensor.dim(w)
    total = [[Fraction(0)] * d for _ in range(d)]
    for chain in product(list(tensor.index_set), repeat=k):
        sign = (-1) ** sum(h.parity for h in chain[1:])
        cur, mat = w, None
        for t in reversed(range(k)):
            res = slot_act(tensor, BasisElement(chain[t], chain[(t + 1) % k]), slot - 1, cur)
            if res is None:
                break
            cur, block = res
            mat = block if mat is None else mat_mul(block, mat)
        else:
            assert cur == w
            for trow, mrow in zip(total, mat):
                for c, x in enumerate(mrow):
                    trow[c] += sign * x
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
    central = convention == "central"
    checked = family_levels(tensor, convention, levels)
    ell = len(tensor.factors)
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            if i == j:
                continue
            ref = dense_pair(tensor, central, i, j, w, levels)
            got = _stored_block(tensor, _omega_spec(central, i, j, checked), w)
            if ref is None:
                assert got is None
            else:
                assert got == ref
                assert dense_pair(tensor, central, j, i, w, levels) == ref


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_stored_site_casimirs_match_dense_reference(case):
    # the ("site", k, slot) words, as the Lax closed forms read them
    tensor, _, _, w = case
    d = tensor.dim(w)
    units = [[int(r == c) for r in range(d)] for c in range(d)]
    for k in (1, 2, 3):
        for slot in range(1, len(tensor.factors) + 1):
            ref = dense_site(tensor, k, slot, w)
            got = tensor.apply(list(_block_terms(tensor, ("site", k, slot))), w, units)
            if got is None:
                assert not any(map(any, ref)), (k, slot)
            else:
                assert got[0] == w
                assert [list(row) for row in zip(*got[1])] == ref, (k, slot)


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


def test_a_restricted_block_never_builds_the_full_block():
    # the words act on the basis vectors only, so only restricted keys fill
    iset = FLAVORS["gl(2|1)"]
    tensor = tensor_product([polynomial_module(iset, Partition(p)) for p in ((2,), (1,), (1,))])
    space = next(s for s in (singular_space(tensor, w) for w in tensor.weights()) if s.dim > 1)
    z = [0, 1, 3]
    for fam in (quadratic_family(tensor, z), cubic_family(tensor, z, "C"), cubic_family(tensor, z, "D")):
        for i in (1, 2, 3):
            fam.restricted(i, space)
    # the diagonal action (for the singular space) shares the store
    gaudin_keys = [key for key in tensor.block_store if key[0][0] in ("omega", "cubic")]
    assert gaudin_keys
    assert all(basis is not None for _, _, basis in gaudin_keys)
    # the store holds operator blocks only: every key names an operator
    assert all(name[0] in ("delta", "omega", "cubic") for name, _, _ in tensor.block_store)


def _two_naturals():
    iset = FLAVORS["gl(1|1)"]
    tensor = tensor_product([NaturalModule(iset)] * 2)
    w = max(tensor.weights(), key=tensor.dim)
    assert tensor.dim(w) == 2
    return tensor, w


def test_the_store_refuses_a_subspace_the_operator_leaves():
    # the first unit vector is in end-column form, but Omega^{(12)} moves
    # it into the other unit
    tensor, w = _two_naturals()
    fam = quadratic_family(tensor, [0, 1])
    with pytest.raises(ValueError, match="subspace is not invariant under the operator"):
        fam.restricted(1, SingularSpace(tensor, w, ((1, 0),)))
    # the whole weight space is invariant, and in end-column form
    units = SingularSpace(tensor, w, ((1, 0), (0, 1)))
    assert fam.restricted(1, units) == fam.matrix(1, w)


def test_the_store_refuses_a_basis_not_in_end_column_form():
    # both vectors end at column 1, so no coordinate reads off by
    # substitution; the basis is refused before any operator acts on it
    tensor, w = _two_naturals()
    fam = quadratic_family(tensor, [0, 1])
    with pytest.raises(ValueError, match="end-column form"):
        fam.restricted(1, SingularSpace(tensor, w, ((1, 1), (1, -1))))
    assert not any(basis for _, _, basis in tensor.block_store)


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
