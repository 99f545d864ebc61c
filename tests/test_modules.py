"""Module realizations: dimensions, action relations, singular spaces."""

import signal
from fractions import Fraction
from functools import cache
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from supergaudin import modules
from supergaudin.algebra import AlgebraElement, BasisElement, E, off_diagonal_units, supercommutator
from supergaudin.gaudin import HamiltonianFamily, _block_terms
from supergaudin.indices import HalfIndex, IndexSet
from supergaudin.linalg import charpoly, echelon_block, is_zero_matrix, mat_mul, mat_sub, nullspace
from supergaudin.modules import (
    ExplicitModule,
    NaturalModule,
    TensorModule,
    irreducible_truncated,
    polynomial_highest_weight,
    polynomial_module,
    polynomial_tensor,
    singular_space,
    tensor_product,
    truncate_module,
    verma_size,
    verma_truncated,
    _VermaBuilder,
)
from supergaudin.partitions import GeneralizedPartition, Partition, all_partitions
from supergaudin.serialize import module_from_json, module_to_json
from supergaudin.weights import Weight, eps, unitarizable_weight
from supergaudin.verify import _oracle_dims

from oracles import (
    LengthTruncatedVerma,
    ReferenceStraightening,
    gram_matrices,
    hook_tableau_dimension,
    hook_weight_to_partition,
    realize_every_unit,
    slot_act,
)


GL11 = IndexSet.gl(0, 1, 0, 1)
GL21 = IndexSet.gl(0, 2, 0, 1)
CL2 = IndexSet.classical(0, 2)


def dims_of(module):
    return {w: module.dim(w) for w in module.weights()}


def test_natural_module_dims():
    assert dims_of(NaturalModule(GL11)) == {eps(1): 1, eps("1/2"): 1}
    assert dims_of(NaturalModule(GL21)) == {eps(1): 1, eps(2): 1, eps("1/2"): 1}
    assert dims_of(NaturalModule(CL2)) == {eps("1/2"): 1, eps("3/2"): 1}


def test_tensor_square_dims():
    t2 = tensor_product([NaturalModule(GL11)] * 2)
    assert dims_of(t2) == {
        Weight({2: 2}): 1,
        eps(1) + eps("1/2"): 2,
        Weight({1: 2}): 1,
    }
    assert t2.level == 0


def test_koszul_signs_on_slots():
    """Independent sign computation: x^{(i)} acts with (-1)^{|x| sum of
    earlier factor parities}."""
    nat = NaturalModule(GL11)
    t2 = tensor_product([nat, nat])
    gen = E("1/2", 1)  # odd lowering operator
    # slot 2 acting on v_{1/2} (x) v_1: earlier parity 1, so a sign -1
    w = eps("1/2") + eps(1)
    tuples = t2.basis_tuples(w)
    src = tuples.index(((eps("1/2"), 0), (eps(1), 0)))
    res = slot_act(t2, gen, 1, w)
    target, block = res
    assert target == Weight({1: 2})
    assert block[0][src] == -1
    # slot 1 acting on v_1 (x) v_1: no earlier factors, sign +1
    w2 = Weight({2: 2})
    res2 = slot_act(t2, gen, 0, w2)
    target2, block2 = res2
    assert target2 == eps("1/2") + eps(1)
    col = t2.basis_tuples(w2).index(((eps(1), 0), (eps(1), 0)))
    out_row = t2.basis_tuples(target2).index(((eps("1/2"), 0), (eps(1), 0)))
    assert block2[out_row][col] == 1


def test_verma_examples():
    vm = verma_truncated(GL11, eps(1), 1)
    assert dims_of(vm) == {eps(1): 1, eps("1/2"): 1}
    any_weight = Weight({2: 5, 1: -3})
    vm0 = verma_truncated(GL11, any_weight, 0)
    assert dims_of(vm0) == {any_weight: 1}
    # depth 1 keeps the highest weight and those one simple root below; the
    # height-2 weight e(1) + e(1/2) is left out whole
    vm2 = verma_truncated(GL21, Weight({2: 2}), 1)
    expected = {
        Weight({2: 2}): 1,
        eps(1) + eps(2): 1,
        Weight({2: 2, 4: -1, 1: 1}): 1,
    }
    assert dims_of(vm2) == expected
    assert dict(vm2.heights) == {Weight({2: 2}): 0, eps(1) + eps(2): 1, Weight({2: 2, 4: -1, 1: 1}): 1}
    assert dims_of(verma_truncated(GL21, Weight({2: 2}), 2))[eps(1) + eps("1/2")] == 2


def test_verma_enumeration_stops_when_no_monomial_is_left():
    # gl(1|1) has one lowering generator, an odd one, so the Verma module
    # of e(1) has dimension 2 at every depth; the monomials once ran on
    # through range(depth) with an empty frontier
    def overrun(signum, frame):
        raise TimeoutError("verma_truncated kept enumerating an empty frontier")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(5)
    try:
        vm = verma_truncated(GL11, eps(1), 10**20)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert dims_of(vm) == {eps(1): 1, eps("1/2"): 1}
    assert dict(vm.heights) == {eps(1): 0, eps("1/2"): 1}


def test_verma_out_of_band_query_is_refused():
    vm = verma_truncated(GL21, Weight({2: 2}), 1)
    with pytest.raises(ValueError, match="band"):
        vm.act(E("1/2", 1), eps(1) + eps(2))
    # truncating to gl(1|1) queries E_{1/2,1} on the kept e(1) space, whose
    # target e(1/2) lies outside the depth-0 band: refused, not dropped
    with pytest.raises(ValueError, match="band"):
        truncate_module(verma_truncated(GL21, eps(1), 0), GL11)


@pytest.mark.parametrize(
    "index_set, xi, depth",
    [
        (GL21, Weight({2: 2}), 1),
        (GL21, eps(1), 2),
        (IndexSet.gl(0, 2, 0, 2), Weight({2: 1, 1: -1}), 2),
        (IndexSet.gl(1, 1, 1, 1), Weight({2: 1, -2: 2}), 2),
        (CL2, Weight({1: 2}), 3),
    ],
)
def test_truncated_verma_raises_exactly_where_it_does_not_represent(index_set, xi, depth):
    # _block refuses in the same walk that fills the block, exactly where
    # the reference straightening sends a stored monomial to one the depth
    # band does not hold, on every unit and weight, the band edges included
    vm = verma_truncated(index_set, xi, depth)
    ref = ReferenceStraightening(index_set, xi)
    refused = 0
    for gen in off_diagonal_units(index_set):
        for w in vm.weights():
            stored = vm.labels.get(w + gen.weight_shift(), ())
            if all(mm in stored for mono in vm.labels[w] for mm in ref.act(gen.key(), mono)):
                vm.act(gen, w)
                continue
            refused += 1
            with pytest.raises(ValueError, match="leaves the depth-%d band" % depth):
                vm.act(gen, w)
    assert refused


STRAIGHTENING_SETS = [
    IndexSet.gl(1, 1, 1, 1),
    GL21,
    IndexSet.gl(0, 1, 0, 2),
    IndexSet.gl(0, 2, 0, 2),
    IndexSet.classical(0, 3),
]


@pytest.mark.parametrize("index_set", STRAIGHTENING_SETS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verma_straightening_matches_the_two_recursion_reference(index_set, data):
    # one builder's act against the act/insert pair on one highest weight;
    # each unit is any matrix unit or one of the monomial's own generators,
    # so a lowering generator meets its equal at the head
    members = [h.doubled for h in index_set]
    xi = Weight({d: data.draw(st.integers(-3, 3)) for d in members})
    builder, reference = _VermaBuilder(index_set, xi), ReferenceStraightening(index_set, xi)
    units = [(a, b) for a in members for b in members]
    monos = [mono for mono, _, _ in builder.monomials(3)]
    for _ in range(data.draw(st.integers(1, 6))):
        mono = data.draw(st.sampled_from(monos))
        key = data.draw(st.sampled_from(units + [builder.gens[g] for g in mono]))
        assert builder.act(key, mono) == reference.act(key, mono), (key, mono)


def test_verma_labels_are_read_only():
    vm = verma_truncated(GL21, Weight({2: 2}), 2)
    w = vm.weights()[-1]
    monos = vm.labels[w]
    assert isinstance(monos, tuple) and list(monos) == sorted(monos)
    with pytest.raises(TypeError):
        vm.labels[w] = ()
    with pytest.raises(TypeError):
        del vm.labels[w]
    with pytest.raises(AttributeError):
        monos.append(())
    assert vm.labels[w] is monos


def test_irreducible_examples():
    irr = irreducible_truncated(GL11, eps(1) + eps("1/2"), 2)
    assert dims_of(irr) == {eps(1) + eps("1/2"): 1, Weight({1: 2}): 1}
    irr2 = irreducible_truncated(GL11, Weight({2: 2}), 2)
    assert dims_of(irr2) == {Weight({2: 2}): 1, eps(1) + eps("1/2"): 1}
    irr3 = irreducible_truncated(CL2, Weight({1: 2}), 2)
    assert dims_of(irr3) == {
        Weight({1: 2}): 1,
        eps("1/2") + eps("3/2"): 1,
        Weight({3: 2}): 1,
    }


def test_irreducible_rejects_unsupported_weights():
    with pytest.raises(ValueError, match="unitarizable"):
        irreducible_truncated(GL11, -eps(1), 2)
    with pytest.raises(ValueError, match="dominant"):
        irreducible_truncated(CL2, eps("3/2"), 2)
    with pytest.raises(ValueError, match="flavor"):
        irreducible_truncated(IndexSet("wide", p=1, n=1), eps(1), 2)


def test_polynomial_examples():
    pm1 = polynomial_module(GL11, Partition([1]))
    assert dims_of(pm1) == dims_of(NaturalModule(GL11))
    pm2 = polynomial_module(GL11, Partition([2]))
    assert dims_of(pm2) == {Weight({2: 2}): 1, eps(1) + eps("1/2"): 1}
    pm11 = polynomial_module(GL11, Partition([1, 1]))
    assert dims_of(pm11) == {eps(1) + eps("1/2"): 1, Weight({1: 2}): 1}


def test_singular_space_examples():
    t2 = tensor_product([NaturalModule(GL11)] * 2)
    s = singular_space(t2, eps(1) + eps("1/2"))
    assert s.dim == 1
    # the antisymmetric combination, up to overall scale
    tuples = t2.basis_tuples(eps(1) + eps("1/2"))
    i_up = tuples.index(((eps(1), 0), (eps("1/2"), 0)))
    i_dn = tuples.index(((eps("1/2"), 0), (eps(1), 0)))
    vec = s.basis[0]
    assert vec[i_up] == -vec[i_dn] and vec[i_up] != 0
    assert singular_space(t2, Weight({2: 2})).dim == 1
    ct = tensor_product([NaturalModule(CL2)] * 2)
    assert singular_space(ct, Weight({1: 2})).dim == 1
    assert singular_space(t2, Weight({5: 1})).dim == 0


def relations_hold(module, max_checks=10**9):
    """matrix([x,y]) == matrix(x) matrix(y) - (+-) matrix(y) matrix(x).

    For band-truncated realizations the relation is only claimed when the
    intermediate weights lie inside the band (an absent target cannot be
    told apart from a cut-off one there).
    """
    members = list(module.index_set)
    gens = [BasisElement(a, b) for a in members for b in members]
    weights = module.weights()
    banded = module.provenance in ("verma", "irreducible", "truncation")
    for x in gens:
        for y in gens:
            bracket = supercommutator(AlgebraElement({x: 1}), AlgebraElement({y: 1}))
            sign = -1 if (x.parity and y.parity) else 1
            for w in weights:
                d = module.dim(w)
                mid_y = w + y.weight_shift()
                mid_x = w + x.weight_shift()
                if banded and not (module.dim(mid_y) and module.dim(mid_x)):
                    continue
                ry = module.act(y, w)
                xy = None
                if ry is not None:
                    rx = module.act(x, ry[0])
                    if rx is not None:
                        xy = mat_mul(rx[1], ry[1])
                rx0 = module.act(x, w)
                yx = None
                if rx0 is not None:
                    ry0 = module.act(y, rx0[0])
                    if ry0 is not None:
                        yx = mat_mul(ry0[1], rx0[1])
                target = w + x.weight_shift() + y.weight_shift()
                if not module.dim(target):
                    continue
                td = module.dim(target)
                lhs = [[Fraction(0)] * d for _ in range(td)]
                for (row, col), coeff in bracket.terms.items():
                    rb = module.act(BasisElement(HalfIndex(row), HalfIndex(col)), w)
                    if rb is not None and rb[0] == target:
                        for r in range(td):
                            for c in range(d):
                                lhs[r][c] += coeff * rb[1][r][c]
                rhs = [[Fraction(0)] * d for _ in range(td)]
                if xy is not None:
                    rhs = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(rhs, xy)]
                if yx is not None:
                    rhs = [
                        [a - sign * b for a, b in zip(r1, r2)] for r1, r2 in zip(rhs, yx)
                    ]
                if not is_zero_matrix(mat_sub(lhs, rhs)):
                    return False
    return True


@pytest.mark.parametrize(
    "factory",
    [
        lambda: tensor_product([NaturalModule(GL11)] * 3),
        lambda: tensor_product([NaturalModule(IndexSet.gl(0, 2, 0, 2))] * 2),
        lambda: polynomial_module(GL21, Partition([2, 1])),
        lambda: irreducible_truncated(GL11, eps(1) + eps("1/2"), 3),
        lambda: irreducible_truncated(IndexSet.gl(0, 1, 1, 1), Weight({2: 1, -2: -1}), 2),
        lambda: tensor_product([NaturalModule(CL2)] * 2),
    ],
)
def test_supercommutator_relations_hold_exactly(factory):
    assert relations_hold(factory())


def is_psd(gram):
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    Uses the alternating-sign test on det(tI - G): all eigenvalues are
    nonnegative iff (-1)^(n-k) c_k >= 0 for every coefficient.
    """
    p = charpoly(gram)
    n = len(p) - 1
    return all(((-1) ** (n - k)) * p[k] >= 0 for k in range(n + 1))


def test_gram_matrices_positive_semidefinite():
    for lam in all_partitions(4, 1):
        if not lam.hook_ok(1, 1):
            continue
        hw = polynomial_module(GL11, lam).highest_weight
        vm = verma_truncated(GL11, hw, 4)
        for gram in gram_matrices(vm).values():
            assert is_psd(gram)


# (q, m, p, n) of super index sets with p, q > 0
UNITARIZABLE_SETS = [(1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1)]
POLYNOMIAL_SETS = [IndexSet.gl(0, 2, 0, 1), IndexSet.gl(0, 1, 0, 2), IndexSet.gl(0, 2, 0, 2), IndexSet.classical(0, 3)]


@st.composite
def irreducible_highest_weights(draw):
    """(index set, highest weight, depth) that ``irreducible_truncated``
    accepts: a unitarizable super weight, a dominant classical weight or
    the hook weight of a polynomial module."""
    kind = draw(st.sampled_from(["unitarizable", "classical", "hook"]))
    if kind == "unitarizable":
        iset = IndexSet.gl(*draw(st.sampled_from(UNITARIZABLE_SETS)))
        parts = sorted(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)), reverse=True)
        try:
            xi = unitarizable_weight(iset, GeneralizedPartition(parts))
        except ValueError:
            reject()
        return iset, xi, draw(st.integers(1, 3))
    if kind == "classical":
        iset = IndexSet.classical(0, draw(st.integers(2, 4)))
        vals = sorted(draw(st.lists(st.integers(-1, 2), min_size=len(iset), max_size=len(iset))), reverse=True)
        return iset, Weight({h.doubled: v for h, v in zip(iset, vals)}), draw(st.integers(1, 3))
    iset = draw(st.sampled_from(POLYNOMIAL_SETS))
    m = 0 if iset.flavor == "classical" else iset.m
    lam = draw(st.sampled_from([lam for lam in all_partitions(4, 1) if lam.hook_ok(m, iset.n)]))
    return iset, polynomial_highest_weight(iset, lam), draw(st.integers(1, 4))


def recursion_radicals(verma):
    """The radical ``_radical_recursion`` gives on every weight:
    the leading rows of its echelon basis, or all of M_w where it found a
    zero quotient."""
    echelon, _ = modules._radical_recursion(verma)
    out = {}
    for w in verma.heights:
        if w in echelon:
            skip, basis = echelon[w][:2]
            out[w] = basis[:skip]
        else:
            out[w] = nullspace([], verma.dim(w))
    return echelon, out


@settings(max_examples=40, deadline=None)
@given(irreducible_highest_weights())
def test_radical_recursion_equals_the_gram_kernels(case):
    # the recursion reads N_w off the simple raising units; the oracle's
    # Gram matrix of every weight must have the same kernel
    verma = verma_truncated(*case)
    _, radicals = recursion_radicals(verma)
    grams = gram_matrices(verma)
    assert radicals.keys() == grams.keys()
    for w, gram in grams.items():
        assert radicals[w] == nullspace(gram, verma.dim(w)), w


@settings(max_examples=40, deadline=None)
@given(irreducible_highest_weights())
def test_every_simple_unit_maps_the_radical_into_the_radical(case):
    # the recursion builds N_w from the raising units alone; a lowering
    # unit, and a raising one read through the Verma module's own blocks,
    # must still send each radical vector to zero in the target quotient
    iset = case[0]
    verma = verma_truncated(*case)
    echelon, radicals = recursion_radicals(verma)
    simple = [BasisElement(a, b) for a, b in iset.simple_pairs()]
    simple += [BasisElement(b, a) for a, b in iset.simple_pairs()]
    for gen in simple:
        for w, radical in radicals.items():
            target = w + gen.weight_shift()
            if target not in echelon or not radical:
                # no target space, one past the depth, or L_target = 0
                continue
            res = verma.act(gen, w)
            if res is None:
                continue
            images = [[sum(x * v for x, v in zip(row, vec)) for row in res[1]] for vec in radical]
            skip, basis, cols = echelon[target]
            coords = echelon_block(basis, cols, images)
            assert not any(map(any, coords[skip:])), (gen, w)


def test_polynomial_matches_irreducible_small_grid():
    for m, n in ((1, 1), (2, 1)):
        iset = IndexSet.gl(0, m, 0, n)
        for lam in all_partitions(4, 1):
            if not lam.hook_ok(m, n):
                continue
            oracle = _oracle_dims(lam, m, n)
            poly = polynomial_module(iset, lam)
            assert dims_of(poly) == oracle, (m, n, lam)


def test_complete_reducibility_accounting():
    """sum over mu of dim(singular at mu) x dim L(mu) equals the tensor
    dimension, for small unitarizable tensor products."""
    for m, n, ell in ((1, 1, 2), (1, 1, 3), (2, 1, 2)):
        iset = IndexSet.gl(0, m, 0, n)
        tensor = tensor_product([NaturalModule(iset)] * ell)
        total = 0
        for w in tensor.weights():
            s = singular_space(tensor, w)
            if not s.dim:
                continue
            lam = hook_weight_to_partition(w, m, n)
            total += s.dim * hook_tableau_dimension(lam, m, n)
        assert total == tensor.total_dim


def test_truncation_functor_examples():
    # class. irreducible for lam' = (2) at rank 3, truncated to rank 2,
    # equals the rank-2 symmetric square
    big = polynomial_module(IndexSet.classical(0, 3), Partition([2]))
    small_set = IndexSet.classical(0, 2)
    small = truncate_module(big, small_set)
    rebuilt = polynomial_module(small_set, Partition([2]))
    assert dims_of(small) == dims_of(rebuilt)
    # truncation below the support of the highest weight kills everything:
    # lam = (2) has highest weight e(1/2) + e(3/2), gone at rank one
    tiny = truncate_module(
        polynomial_module(IndexSet.classical(0, 3), Partition([2])),
        IndexSet.classical(0, 1),
    )
    assert tiny.total_dim == 0
    # truncation to the same band is the identity on dims
    same = truncate_module(big, IndexSet.classical(0, 3))
    assert dims_of(same) == dims_of(big)
    # a weight off the band goes, whatever the signs of its coefficients
    gl21_nat = truncate_module(NaturalModule(GL21), GL11)
    assert dims_of(gl21_nat) == {eps(1): 1, eps("1/2"): 1}


@pytest.mark.parametrize(
    "module",
    [
        NaturalModule(IndexSet.gl(0, 1, 1, 1)),
        irreducible_truncated(
            IndexSet.gl(1, 1, 0, 1), unitarizable_weight(IndexSet.gl(1, 1, 0, 1), GeneralizedPartition((1,))), 2
        ),
    ],
    ids=["natural-gl(0+1|1+1)", "unitarizable-gl(1+1|1)"],
)
def test_truncation_to_its_own_index_set_is_the_identity(module):
    # each module has a weight with a positive coefficient on a negative
    # index, e(-1) and the highest weight e(-1/2) + e(1): the band rule
    # reads the support only, not the signs
    same = truncate_module(module, module.index_set)
    assert dims_of(same) == dims_of(module)
    members = list(module.index_set)
    for w in module.weights():
        for a in members:
            for b in members:
                gen = BasisElement(a, b)
                assert same.act(gen, w) == module.act(gen, w), (gen, w)


def smaller_sets(iset):
    """Every index set of the flavor inside ``iset``, itself included."""
    if iset.flavor == "classical":
        return [IndexSet.classical(0, n) for n in range(1, iset.n + 1)]
    ranges = (range(iset.q + 1), range(iset.m + 1), range(iset.p + 1), range(1, iset.n + 1))
    return [IndexSet.gl(*qmpn) for qmpn in product(*ranges)]


@st.composite
def unitarizable_irreducibles(draw):
    q, m, p, n = draw(st.sampled_from(UNITARIZABLE_SETS))
    parts = sorted(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)), reverse=True)
    iset = IndexSet.gl(q, m, p, n)
    try:
        xi = unitarizable_weight(iset, GeneralizedPartition(parts))
    except ValueError:
        reject()
    depth = draw(st.integers(1, 3))
    return iset, lambda: irreducible_truncated(iset, xi, depth)


@st.composite
def realizations_to_derive(draw):
    """(kind, build): ``build`` makes the realization through ``_realize``."""
    kind = draw(
        st.sampled_from(
            ["irreducible-super", "irreducible-classical", "truncated-polynomial", "truncated-irreducible", "truncated-verma"]
        )
    )
    if kind == "irreducible-super":
        return kind, draw(unitarizable_irreducibles())[1]
    if kind == "irreducible-classical":
        iset = IndexSet.classical(0, draw(st.integers(2, 4)))
        vals = sorted(draw(st.lists(st.integers(-1, 2), min_size=len(iset), max_size=len(iset))), reverse=True)
        xi = Weight({h.doubled: v for h, v in zip(iset, vals)})
        depth = draw(st.integers(1, 3))
        return kind, lambda: irreducible_truncated(iset, xi, depth)
    if kind == "truncated-polynomial":
        iset = draw(st.sampled_from(POLYNOMIAL_SETS))
        # the classical flavor of rank n takes the (0|n) hook
        m = 0 if iset.flavor == "classical" else iset.m
        lam = draw(st.sampled_from([lam for lam in all_partitions(3, 1) if lam.hook_ok(m, iset.n)]))
        smaller = draw(st.sampled_from(smaller_sets(iset)))
        return kind, lambda: truncate_module(polynomial_module(iset, lam), smaller)
    if kind == "truncated-irreducible":
        iset, build = draw(unitarizable_irreducibles())
        smaller = draw(st.sampled_from(smaller_sets(iset)))
        return kind, lambda: truncate_module(build(), smaller)
    q, m, p, n = draw(st.sampled_from([(0, 2, 0, 1), (0, 1, 0, 2), (1, 1, 1, 1), (0, 1, 1, 1)]))
    iset = IndexSet.gl(q, m, p, n)
    xi = Weight({h.doubled: draw(st.integers(-1, 2)) for h in iset})
    depth = draw(st.integers(0, 2))
    smaller = draw(st.sampled_from(smaller_sets(iset)))
    return kind, lambda: truncate_module(verma_truncated(iset, xi, depth), smaller)


@settings(max_examples=60, deadline=2000)
@given(realizations_to_derive())
def test_derived_blocks_equal_the_blocks_read_off_the_source(case):
    # _realize reads the simple units and derives the rest; the oracle
    # reads every unit off the same source.  A truncated Verma may refuse
    # (at a different unit first), but then both must refuse
    kind, build = case
    try:
        derived = module_to_json(build())
    except ValueError as exc:
        assert kind == "truncated-verma" and "band" in str(exc)
        with patch.object(modules, "_realize", realize_every_unit), pytest.raises(ValueError, match="band"):
            build()
        return
    with patch.object(modules, "_realize", realize_every_unit):
        read = module_to_json(build())
    assert derived == read


def test_polynomial_embedding_is_invariant():
    pm = polynomial_module(GL21, Partition([2]))
    assert pm.total_dim == sum(_oracle_dims(Partition([2]), 2, 1).values())
    assert pm.level == 0


def test_modules_reject_attribute_assignment():
    pm = polynomial_module(GL21, Partition([2, 1]))
    with pytest.raises(AttributeError, match="immutable"):
        pm.level = Fraction(3)
    with pytest.raises(AttributeError, match="immutable"):
        pm.highest_weight = eps(1)
    assert pm.level == 0
    # the memo hands out the same, unchanged object
    assert polynomial_module(GL21, Partition([2, 1])) is pm
    irr = irreducible_truncated(GL11, eps(1) + eps("1/2"), 2)
    with pytest.raises(AttributeError, match="immutable"):
        irr.depth = 5
    with pytest.raises(AttributeError, match="immutable"):
        verma_truncated(GL11, eps(1), 2).depth = 5
    # duality tensors are memoized and shared: no assignment, tuple factors
    tensor = polynomial_tensor(GL11, (Partition([1]), Partition([1])))
    assert isinstance(tensor.factors, tuple)
    for name, value in (("factors", []), ("block_store", {}), ("level", Fraction(1))):
        with pytest.raises(AttributeError, match="TensorModule is immutable"):
            setattr(tensor, name, value)
    # the natural module is a factor of every Pieri build, so assigning
    # its weight spaces would reshape every later tensor
    nat = NaturalModule(GL11)
    for name, value in (("_dims", {}), ("index_set", GL21), ("level", Fraction(1))):
        with pytest.raises(AttributeError, match="NaturalModule is immutable"):
            setattr(nat, name, value)
    pair = tensor_product([nat, nat])
    assert pair.total_dim == 4
    assert singular_space(pair, eps(1) + eps("1/2")).dim == 1


# one small instance of every realization; modules are immutable, so each
# is built once and shared by the examples
REALIZATIONS = {
    "natural": lambda: NaturalModule(GL21),
    "polynomial": lambda: polynomial_module(IndexSet.gl(0, 2, 0, 2), Partition([2, 1])),
    "irreducible-super": lambda: irreducible_truncated(GL11, eps(1) + eps("1/2"), 2),
    "irreducible-classical": lambda: irreducible_truncated(CL2, Weight({1: 2}), 2),
    "verma": lambda: verma_truncated(GL21, eps(1), 2),
    "truncation": lambda: truncate_module(
        polynomial_module(IndexSet.classical(0, 3), Partition([2])), CL2
    ),
    "tensor": lambda: tensor_product([NaturalModule(GL11), polynomial_module(GL11, Partition([2]))]),
    "json": lambda: module_from_json(module_to_json(polynomial_module(GL21, Partition([2, 1])))),
}


@cache
def realization(name):
    return REALIZATIONS[name]()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(REALIZATIONS)), st.data())
def test_every_block_target_is_the_shifted_weight(name, data):
    # each realization decides a block's target where it builds the block;
    # it must be w + shift, and an explicit module's own weight object
    module = realization(name)
    w = data.draw(st.sampled_from(module.weights()))
    gen = data.draw(st.sampled_from(off_diagonal_units(module.index_set)))
    try:
        res = module.act(gen, w)
    except ValueError as exc:
        # only the truncated Verma refuses, a block that leaves its band
        assert name == "verma" and "leaves the depth-2 band" in str(exc)
        return
    if res is None:
        return
    target = res[0]
    assert target == w + gen.weight_shift()
    if isinstance(module, ExplicitModule):
        assert [v for v in module.weights() if v == target][0] is target


def _handed_out(name, call, *args):
    """call(*args), or None where the truncated Verma refuses a block that
    leaves its band."""
    try:
        return call(*args)
    except ValueError as exc:
        assert name == "verma" and "leaves the depth-2 band" in str(exc)
        return None


def _is_tuple_of_tuples(block):
    return type(block) is tuple and all(type(row) is tuple for row in block)


@pytest.mark.parametrize("name", sorted(REALIZATIONS))
def test_every_block_handed_out_is_a_tuple_of_tuples(name):
    # blocks are cached and shared, so each is a tuple of row tuples from
    # where it is built on, and act, stored and slot_act_sparse hand it out
    # as it is; so do basis_tuples and a family's terms
    module = realization(name)
    units = [BasisElement(a, b) for a in module.index_set for b in module.index_set]
    for w in module.weights():
        for gen in units:
            res = _handed_out(name, module.act, gen, w)
            assert res is None or _is_tuple_of_tuples(res[1]), (gen, w)
    tensor = module
    if not isinstance(module, TensorModule):
        tensor = tensor_product([module, NaturalModule(module.index_set)])
    families = [HamiltonianFamily(tensor, [0, 1])]
    if module.index_set.p == module.index_set.q == 0:
        families.append(HamiltonianFamily(tensor, [0, 1], "cubicC"))
    specs = set()
    for fam in families:
        for i in (1, 2):
            assert type(fam.terms(i)) is tuple
            specs.update(spec for _, spec in fam.terms(i))
    for w in tensor.weights():
        assert type(tensor.basis_tuples(w)) is tuple
        for gen in units:
            for slot in (0, 1):
                res = _handed_out(name, tensor.slot_act_sparse, gen, slot, w)
                assert res is None or _is_tuple_of_tuples(res[2]), (gen, slot, w)
                assert res is None or all(map(_is_tuple_of_tuples, res[2])), (gen, slot, w)
        space = _handed_out(name, singular_space, tensor, w)
        bases = [None] + ([space.basis] if space is not None and space.dim else [])
        for spec in specs:
            for basis in bases:
                res = _handed_out(name, tensor.stored, spec, _block_terms(tensor, spec), w, basis)
                assert res is None or _is_tuple_of_tuples(res[1]), (spec, w, basis)


@pytest.mark.parametrize(
    "index_set",
    [GL11, GL21, IndexSet.gl(0, 2, 0, 2), IndexSet.gl(0, 1, 0, 3), IndexSet.gl(1, 1, 1, 1), CL2, IndexSet.gl(0, 3, 0, 2)],
)
def test_verma_size_counts_the_builder_monomials(index_set):
    builder = _VermaBuilder(index_set, Weight({}))
    for depth in (0, 1, 2, 4, 6):
        assert verma_size(index_set, depth) == len(builder.monomials(depth)), depth


def test_verma_size_of_the_larger_flavors():
    # the sizes the CLI's --depth budget weighs, V_(1) or any other weight
    assert verma_size(IndexSet.gl(0, 2, 0, 2), 20) == 2484
    assert verma_size(IndexSet.gl(0, 1, 0, 3), 20) == 5057
    sizes = [verma_size(IndexSet.gl(0, 3, 0, 2), depth) for depth in (6, 10, 20)]
    assert sizes == [473, 3992, 96672]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STRAIGHTENING_SETS), st.data())
def test_truncated_verma_lists_whole_weight_spaces_to_its_depth(index_set, data):
    # every listed weight lies at deficit height <= depth and holds the
    # whole Verma weight space: all the monomials the length truncation
    # (which reaches every monomial of such a weight) has there
    xi = Weight({h.doubled: data.draw(st.integers(-3, 3)) for h in index_set}, data.draw(st.integers(-2, 2)))
    depth = data.draw(st.integers(0, 5))
    verma = verma_truncated(index_set, xi, depth)
    assert verma.total_dim == verma_size(index_set, depth)
    assert dict(verma.heights) == {w: modules.deficit_height(index_set, xi, w) for w in verma.weights()}
    assert max(verma.heights.values()) <= depth
    reference = LengthTruncatedVerma(index_set, xi, depth)
    assert dict(verma.labels) == {w: reference.labels[w] for w in reference.heights}


HOOK_SETS = [IndexSet.gl(0, m, 0, n) for m in (1, 2) for n in (1, 2)]


@st.composite
def hook_weights_to_full_depth(draw):
    """(gl(m|n) with (m|n) <= (2|2), the hook weight of a shape of <= 4
    boxes, a depth from 0 up to the largest deficit height of a weight of
    its module)."""
    iset = draw(st.sampled_from(HOOK_SETS))
    lam = draw(st.sampled_from([lam for lam in all_partitions(4, 1) if lam.hook_ok(iset.m, iset.n)]))
    hw = polynomial_highest_weight(iset, lam)
    full = max(modules.deficit_height(iset, hw, w) for w in _oracle_dims(lam, iset.m, iset.n))
    return iset, hw, draw(st.integers(0, full))


@settings(max_examples=40, deadline=None)
@given(hook_weights_to_full_depth())
def test_irreducible_quotient_matches_the_one_read_over_the_length_truncation(case):
    # the length truncation also lists parts of the weight spaces below
    # the depth; the quotient read over it must come out the same
    ours = module_to_json(irreducible_truncated(*case))
    with patch.object(modules, "verma_truncated", side_effect=LengthTruncatedVerma) as reference:
        theirs = module_to_json(irreducible_truncated(*case))
    assert reference.call_count == 1
    assert ours == theirs


def test_explicit_module_refuses_a_block_target_outside_its_weights():
    dims = {eps(1): 1, eps("1/2"): 1}
    # E_{1,1/2} maps the e(1/2)-space to the e(1)-space
    key = BasisElement(1, "1/2").key()
    with pytest.raises(ValueError, match="not a weight of the module"):
        ExplicitModule(GL11, 0, dims, {(key, eps("1/2")): (eps(1) + eps(1), [[1]])}, "explicit")
    # weights are interned, so an equal target is the module's own weight object
    fresh = eps(1) + Weight({})
    module = ExplicitModule(GL11, 0, dims, {(key, eps("1/2")): (fresh, [[1]])}, "explicit")
    target, block = module.act(BasisElement(1, "1/2"), eps("1/2"))
    assert block == ((1,),)
    assert target is next(w for w in dims if w == fresh)
