"""Tensor products: basis order, one-slot blocks, the column-application
core, and the shared duality tensors.

``slot_act_sparse`` is checked against a reference built directly from each
factor's public ``act`` blocks and the Koszul sign, so its diagonal path
(the scalar fw(E_a) on each column) has a check that does not go through
the tensor's own block code.  ``TensorModule.apply`` is checked against
products of the dense ``slot_act`` blocks of the test oracles.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin import modules
from supergaudin.algebra import BasisElement
from supergaudin.duality import build_setup, spectrum_match
from supergaudin.gaudin import HamiltonianFamily
from supergaudin.indices import IndexSet
from supergaudin.linalg import charpoly, mat_add, mat_mul
from supergaudin.modules import (
    NaturalModule,
    polynomial_module,
    polynomial_tensor,
    singular_space,
    tensor_product,
)
from supergaudin.partitions import Partition
from supergaudin.weights import Weight

from oracles import mat_scale, slot_act

FLAVORS = {
    "gl(1|1)": IndexSet.gl(0, 1, 0, 1),
    "gl(2|1)": IndexSet.gl(0, 2, 0, 1),
    "gl(3)": IndexSet.classical(0, 3),
}
SHAPES = ((1,), (2,), (1, 1), (2, 1))


@st.composite
def tensors(draw, max_factors=3):
    iset = FLAVORS[draw(st.sampled_from(sorted(FLAVORS)))]
    factors = []
    for _ in range(draw(st.integers(1, max_factors))):
        if draw(st.booleans()):
            factors.append(NaturalModule(iset))
        else:
            factors.append(polynomial_module(iset, Partition(draw(st.sampled_from(SHAPES)))))
    return tensor_product(factors)


def old_basis(factors):
    """The enumeration the tensor used to make: every tuple, then a sort of
    each weight space by the slot-wise (sort_key, k) order."""
    stack = [((), Weight({}, 0))]
    for f in factors:
        stack = [
            (prefix + ((fw, k),), tot + fw)
            for prefix, tot in stack
            for fw in f.weights()
            for k in range(f.dim(fw))
        ]
    basis = {}
    for tup, tot in stack:
        basis.setdefault(tot, []).append(tup)
    for tups in basis.values():
        tups.sort(key=lambda tup: tuple((fw.sort_key(), k) for fw, k in tup))
    return basis


@settings(max_examples=40, deadline=None)
@given(tensors(max_factors=4))
def test_basis_order_equals_the_sorted_enumeration(tensor):
    ref = old_basis(tensor.factors)
    assert set(tensor.weights()) == set(ref)
    for w, tups in ref.items():
        assert tensor.basis_tuples(w) == tuple(tups)
        assert tensor.dim(w) == len(tups)


def reference_slot_block(tensor, gen, slot, w):
    """Dense gen^{(slot)} on the w-space from the factor's act blocks."""
    src = tensor.basis_tuples(w)
    target = w if gen.is_diagonal else w + gen.weight_shift()
    rows = tensor.basis_tuples(target)
    block = [[0] * len(src) for _ in rows]
    factor = tensor.factors[slot]
    for c, tup in enumerate(src):
        fw, k = tup[slot]
        res = factor.act(gen, fw)
        if res is None:
            continue
        ftarget, fblock = res
        earlier = sum(pw.parity for pw, _ in tup[:slot])
        sign = -1 if gen.parity and earlier % 2 else 1
        for r, frow in enumerate(fblock):
            if frow[k]:
                out = tup[:slot] + ((ftarget, r),) + tup[slot + 1 :]
                block[rows.index(out)][c] += sign * frow[k]
    return target, block


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_slot_act_sparse_matches_factor_blocks_with_koszul_signs(tensor, data):
    members = list(tensor.index_set)
    kind = data.draw(st.sampled_from(["diagonal", "even", "odd"]))
    pairs = [
        (a, b)
        for a in members
        for b in members
        if {"diagonal": a == b, "even": a != b and a.parity == b.parity,
            "odd": a.parity != b.parity}[kind]
    ]
    if not pairs:  # gl(3) has no odd units
        pairs = [(a, a) for a in members]
    gen = BasisElement(*data.draw(st.sampled_from(pairs)))
    for slot in range(len(tensor.factors)):
        for w in tensor.weights():
            sparse = tensor.slot_act_sparse(gen, slot, w)
            target, ref = reference_slot_block(tensor, gen, slot, w)
            if sparse is None:
                assert not any(map(any, ref))
            else:
                assert slot_act(tensor, gen, slot, w) == (target, ref)


def reference_apply(tensor, terms, w, columns):
    """``apply`` from dense ``slot_act`` blocks: each word is the product of
    its factors gen^{(slot)}, the rightmost first, the empty word the
    identity."""
    total = target = None
    for coeff, word in terms:
        cur, mat = w, [[int(r == c) for c in range(tensor.dim(w))] for r in range(tensor.dim(w))]
        for gen, slot in reversed(word):
            res = slot_act(tensor, gen, slot, cur)
            if res is None:
                break
            cur, mat = res[0], mat_mul(res[1], mat)
        else:
            assert target in (None, cur)
            target, mat = cur, mat_scale(mat, coeff)
            total = mat if total is None else mat_add(total, mat)
    if target is None:
        return None
    return target, [list(row) for row in zip(*mat_mul(total, [list(c) for c in zip(*columns)]))]


@st.composite
def sums_of_words(draw, tensor):
    """Up to three words that shuffle one list of units over random slots,
    so every word that survives ends in one weight.  Each unit may be
    dropped from a word when it is diagonal, since those do not move the
    weight, so empty words and words of diagonal units mix in."""
    members = list(tensor.index_set)
    units = draw(st.lists(st.tuples(st.sampled_from(members), st.sampled_from(members)), min_size=0, max_size=3))
    slots = st.integers(0, len(tensor.factors) - 1)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        word = [
            (BasisElement(a, b), draw(slots))
            for a, b in draw(st.permutations(units))
            if a != b or draw(st.booleans())
        ]
        terms.append((draw(st.sampled_from([1, -1, 3, Fraction(2, 3)])), word))
    return terms


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_apply_matches_products_of_dense_slot_blocks(tensor, data):
    w = data.draw(st.sampled_from(tensor.weights()))
    terms = data.draw(sums_of_words(tensor))
    entries = st.integers(-3, 3)
    columns = data.draw(st.lists(st.lists(entries, min_size=tensor.dim(w), max_size=tensor.dim(w)), min_size=1, max_size=3))
    assert tensor.apply(terms, w, columns) == reference_apply(tensor, terms, w, columns)


def test_apply_reads_the_empty_word_as_the_identity():
    iset = FLAVORS["gl(2|1)"]
    tensor = tensor_product([NaturalModule(iset)] * 2)
    w = next(w for w in tensor.weights() if tensor.dim(w) == 2)
    columns = [[2, -1], [0, 3]]
    assert tensor.apply([(Fraction(1, 2), [])], w, columns) == (w, [[1, Fraction(-1, 2)], [0, Fraction(3, 2)]])
    assert tensor.apply([(1, []), (-1, [])], w, columns) == (w, [[0, 0], [0, 0]])


def test_apply_refuses_words_that_end_in_different_weights():
    iset = FLAVORS["gl(3)"]
    tensor = tensor_product([NaturalModule(iset)] * 2)
    a, b, c = list(iset)
    w = next(w for w in tensor.weights() if w(a) == w(b) == 1)
    units = [[1 if r == k else 0 for r in range(tensor.dim(w))] for k in range(tensor.dim(w))]
    one, other = [(BasisElement(c, a), 0)], [(BasisElement(c, b), 0)]
    assert tensor.apply([(1, one)], w, units) is not None
    assert tensor.apply([(1, other)], w, units) is not None
    with pytest.raises(ValueError, match="different weights"):
        tensor.apply([(1, one), (1, other)], w, units)
    # the empty word stays at w, so it cannot join a word that moves
    with pytest.raises(ValueError, match="different weights"):
        tensor.apply([(1, one), (1, [])], w, units)


def test_diagonal_slot_block_rejects_a_unit_outside_the_index_set():
    iset = FLAVORS["gl(2|1)"]
    tensor = tensor_product([polynomial_module(iset, Partition([2])), NaturalModule(iset)])
    with pytest.raises(ValueError, match="outside"):
        tensor.slot_act_sparse(BasisElement(3, 3), 0, tensor.weights()[0])


def test_polynomial_tensor_is_memoized_per_index_set_and_partitions():
    gl21, gl11 = FLAVORS["gl(2|1)"], FLAVORS["gl(1|1)"]
    t = polynomial_tensor(gl21, (Partition([2]), Partition([1])))
    assert polynomial_tensor(IndexSet.gl(0, 2, 0, 1), [Partition([2]), Partition([1])]) is t
    assert polynomial_tensor(gl11, (Partition([2]), Partition([1]))) is not t
    assert polynomial_tensor(gl21, (Partition([1]), Partition([2]))) is not t
    assert t.factors == tuple(polynomial_module(gl21, Partition(p)) for p in ([2], [1]))


def test_duality_setups_share_one_tensor_per_factor_list():
    parts = [[2], [1], [1]]
    a = build_setup(parts, 1, 1, [2, 1, 1])
    b = build_setup(parts, 1, 1, [3, 1])
    c = build_setup(parts, 2, 1, [2, 2])
    assert a.super_tensor is b.super_tensor and a.super_tensor is not c.super_tensor
    # same partitions and the same k: one classical tensor for both flavors;
    # mu = (3, 1) needs gl(3), the others fit gl(2)
    assert (a.k, b.k, c.k) == (2, 3, 2)
    assert a.classical_tensor is c.classical_tensor is not b.classical_tensor
    assert b.classical_tensor is build_setup(parts, 1, 1, [3, 1]).classical_tensor
    gl11 = FLAVORS["gl(1|1)"]
    assert list(a.super_tensor.factors) == [polynomial_module(gl11, Partition(p)) for p in parts]
    assert list(a.classical_tensor.factors) == [
        polynomial_module(IndexSet.classical(0, a.k), Partition(p)) for p in parts
    ]


def _mutate(res):
    # a shared block is a tuple of row tuples: it takes no entry and no row
    if res is not None:
        with pytest.raises(TypeError):
            res[1][0][0] += 99
        with pytest.raises(AttributeError):
            res[1].append(["junk"])


def test_mutating_returned_blocks_leaves_a_later_setup_unchanged(monkeypatch):
    monkeypatch.setattr(modules, "_TENSOR_CACHE", {})
    parts, mu, z = [[2], [1], [1]], [3, 1], [0, 1, 3]
    first = build_setup(parts, 2, 1, mu)
    # the expected char polys, from an unshared tensor on the same factors
    fresh = tensor_product(list(first.super_tensor.factors))
    space = singular_space(fresh, first.super_weight)
    assert space.dim > 1
    fam = HamiltonianFamily(fresh, z)
    expected = [[str(c) for c in charpoly(fam.restricted(i, space))] for i in (1, 2, 3)]
    for tensor in (first.super_tensor, first.classical_tensor):
        members = list(tensor.index_set)
        gens = [BasisElement(a, b) for a in members for b in members]
        for w in tensor.weights():
            with pytest.raises(AttributeError):
                tensor.basis_tuples(w).reverse()
            for gen in gens:
                _mutate(tensor.act(gen, w))
        for f in tensor.factors:
            for fw in f.weights():
                for gen in gens:
                    _mutate(f.act(gen, fw))
    second = build_setup(parts, 2, 1, mu)
    assert second.super_tensor is first.super_tensor
    rep = spectrum_match(second, z)
    assert rep["equal"] and rep["dims"]["super"] == space.dim
    assert [entry["charpoly_super"] for entry in rep["per_i"]] == expected
