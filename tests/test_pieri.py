"""Pieri-recursive polynomial modules and the recursive Gram form.

Polynomial modules are built as the cyclic submodule of V_{lam^-} (x) V
generated at the hook weight of lam.  The properties below check the
result against the tableau oracle and the superalgebra relations, check
the Pieri rule behind the construction (every singular space of
V_{lam^-} (x) V is 1-dimensional and sits at the hook weight of a shape
lam^- + one box), and check the oracle ``gram_matrices``, which builds
each Gram matrix from the ones above it, against a letter-by-letter
reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin import modules
from supergaudin.algebra import AlgebraElement, BasisElement, star_omega
from supergaudin.indices import HalfIndex, IndexSet
from supergaudin.modules import (
    NaturalModule,
    polynomial_highest_weight,
    polynomial_module,
    singular_space,
    tensor_product,
    verma_truncated,
)
from supergaudin.partitions import Partition, all_partitions
from supergaudin.verify import _oracle_dims
from supergaudin.weights import Weight

import oracles
from oracles import ambient_polynomial_module, gram_matrices
from test_modules import relations_hold

# (index set, m, n) with the oracle's hook parameters; classical gl(3)
# carries lam' on its three half-odd indices, the (0|3)-hook case
POLY_FLAVORS = {
    "gl(1|1)": (IndexSet.gl(0, 1, 0, 1), 1, 1),
    "gl(2|1)": (IndexSet.gl(0, 2, 0, 1), 2, 1),
    "gl(1|2)": (IndexSet.gl(0, 1, 0, 2), 1, 2),
    "gl(3)": (IndexSet.classical(0, 3), 0, 3),
}
VERMA_FLAVORS = {
    "gl(2|1)": IndexSet.gl(0, 2, 0, 1),
    "gl(2|2)": IndexSet.gl(0, 2, 0, 2),
    "gl(3)": IndexSet.classical(0, 3),
    "gl(1|1) with p = q = 1": IndexSet.gl(1, 1, 1, 1),
}


# flavors for the derived blocks: super gl(1|1) to gl(1|3) and classical
# gl(4), the (0|4)-hook case
DERIVED_FLAVORS = {
    "gl(1|1)": (IndexSet.gl(0, 1, 0, 1), 1, 1),
    "gl(2|1)": (IndexSet.gl(0, 2, 0, 1), 2, 1),
    "gl(1|2)": (IndexSet.gl(0, 1, 0, 2), 1, 2),
    "gl(2|2)": (IndexSet.gl(0, 2, 0, 2), 2, 2),
    "gl(1|3)": (IndexSet.gl(0, 1, 0, 3), 1, 3),
    "gl(4)": (IndexSet.classical(0, 4), 0, 4),
}


def dims_of(module):
    return {w: module.dim(w) for w in module.weights()}


def minus_box(lam):
    parts = list(lam.parts)
    parts[-1] -= 1
    return Partition(parts)


def plus_boxes(lam):
    """Every partition obtained from lam by adding one box."""
    parts = list(lam.parts)
    out = []
    for i in range(len(parts) + 1):
        grown = parts + [0]
        grown[i] += 1
        if i == 0 or grown[i] <= grown[i - 1]:
            out.append(Partition(grown))
    return out


@st.composite
def hook_shapes(draw, max_size=4, flavors=POLY_FLAVORS):
    name = draw(st.sampled_from(sorted(flavors)))
    iset, m, n = flavors[name]
    shapes = [lam for lam in all_partitions(max_size, 1) if lam.hook_ok(m, n)]
    return iset, m, n, draw(st.sampled_from(shapes))


@settings(max_examples=25, deadline=None)
@given(hook_shapes())
def test_pieri_module_matches_oracle_and_relations(case):
    iset, m, n, lam = case
    module = polynomial_module(iset, lam)
    assert dims_of(module) == _oracle_dims(lam, m, n)
    assert module.highest_weight == polynomial_highest_weight(iset, lam)
    assert module.shape == lam
    assert relations_hold(module)


@settings(max_examples=25, deadline=None)
@given(hook_shapes())
def test_singular_spaces_of_parent_times_natural_follow_pieri(case):
    iset, m, n, lam = case
    if lam.size == 1:
        parent_factors = [NaturalModule(iset)]
        parent_shape = Partition()
    else:
        parent_shape = minus_box(lam)
        parent_factors = [polynomial_module(iset, parent_shape), NaturalModule(iset)]
    tensor = tensor_product(parent_factors)
    hw = polynomial_highest_weight(iset, lam)
    assert singular_space(tensor, hw).dim == 1
    found = {}
    for w in tensor.weights():
        d = singular_space(tensor, w).dim
        if d:
            found[w] = d
    expected = {
        polynomial_highest_weight(iset, nu): 1
        for nu in plus_boxes(parent_shape)
        if nu.hook_ok(m, n)
    }
    if lam.size == 1:
        # the natural module alone: one singular vector, at e(first index)
        expected = {hw: 1}
    assert found == expected


def reference_gram(verma, w, omega=star_omega):
    """Letter-by-letter contravariant form, one letter of omega(M) at a time."""
    builder = verma._builder
    monos = verma.labels[w]
    gram = [[Fraction(0)] * len(monos) for _ in range(len(monos))]
    for j, right in enumerate(monos):
        for i, left in enumerate(monos):
            cur = {right: Fraction(1)}
            for g in left:
                omega_elem = omega(AlgebraElement({builder.gens[g]: 1})).terms
                nxt = {}
                for mono, coeff in cur.items():
                    for mm, v in builder._elem_act(omega_elem, mono).items():
                        nxt[mm] = nxt.get(mm, 0) + coeff * v
                cur = {k: v for k, v in nxt.items() if v}
            gram[i][j] = Fraction(cur.get((), 0))
    return gram


def reference_mono_weight(builder, mono):
    """xi plus the weight shift of each letter, one letter at a time."""
    w = builder.xi
    for g in mono:
        r, c = builder.gens[g]
        w = w + BasisElement(HalfIndex(r), HalfIndex(c)).weight_shift()
    return w


@pytest.mark.parametrize("flavor", sorted(VERMA_FLAVORS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_monomials_carry_their_letter_by_letter_weights(flavor, data):
    iset = VERMA_FLAVORS[flavor]
    xi = Weight({h.doubled: data.draw(st.integers(-3, 3)) for h in iset}, data.draw(st.integers(-2, 2)))
    builder = modules._VermaBuilder(iset, xi)
    triples = builder.monomials(data.draw(st.integers(0, 3)))
    assert len({mono for mono, _, _ in triples}) == len(triples)
    for mono, w, height in triples:
        assert w == reference_mono_weight(builder, mono)
        assert height == modules.deficit_height(iset, xi, w)


@st.composite
def verma_weight_spaces(draw, iset):
    coeffs = {h.doubled: draw(st.integers(-3, 3)) for h in iset}
    xi = Weight(coeffs, draw(st.integers(-2, 2)))
    depth = draw(st.integers(3, 4))
    verma = verma_truncated(iset, xi, depth)
    # one of the three largest weight spaces: they lie deepest, so their
    # Gram matrices come through the most steps of the recursion
    spaces = sorted(verma.weights(), key=lambda w: (-verma.dim(w), w.sort_key()))
    return verma, draw(st.sampled_from(spaces[:3]))


@pytest.mark.parametrize("flavor", sorted(VERMA_FLAVORS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_gram_matrix_equals_letter_by_letter_reference(flavor, data):
    verma, w = data.draw(verma_weight_spaces(VERMA_FLAVORS[flavor]))
    assert gram_matrices(verma)[w] == reference_gram(verma, w)


@pytest.mark.parametrize("flavor", sorted(VERMA_FLAVORS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_gram_matrices_cover_every_complete_weight(flavor, data):
    iset = VERMA_FLAVORS[flavor]
    xi = Weight({h.doubled: data.draw(st.integers(-3, 3)) for h in iset}, data.draw(st.integers(-2, 2)))
    verma = verma_truncated(iset, xi, data.draw(st.integers(0, 3)))
    grams = gram_matrices(verma)
    assert grams.keys() == set(verma.weights())
    for w, gram in grams.items():
        assert gram == reference_gram(verma, w)
    # the caller owns what it gets: scribbling over one result must not
    # reach a second call through any state kept behind it
    expected = {w: [row[:] for row in gram] for w, gram in grams.items()}
    for gram in grams.values():
        for row in gram:
            row[:] = [x + 7 for x in row]
    grams[xi][0].append(1)
    assert gram_matrices(verma) == expected


def doubled_omega(x):
    """Twice the star structure: the form it pairs with is not symmetric."""
    return 2 * star_omega(x)


@pytest.mark.parametrize("flavor", sorted(VERMA_FLAVORS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_gram_matrices_read_the_rows_of_the_form_above(flavor, data):
    # the contravariant form is symmetric, so G_{w'} read by column
    # instead of by row would pass every test above; under twice omega,
    # G_w[M, N] picks up 2^len(M) and monomials of different lengths
    # share a weight space, so rows and columns differ
    verma, w = data.draw(verma_weight_spaces(VERMA_FLAVORS[flavor]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "star_omega", doubled_omega)
        grams = gram_matrices(verma)
    assert grams[w] == reference_gram(verma, w, doubled_omega)


def test_size_six_hooks_over_gl22_build_from_small_ambients(monkeypatch):
    """Every |lam| = 6 hook shape over gl(2|2), from an empty memo.

    The tensor-power realization would need an ambient space of dimension
    4^6 = 4096; the Pieri recursion only ever tensors a parent with the
    natural module.
    """
    iset = IndexSet.gl(0, 2, 0, 2)
    ambients = []

    class RecordingTensor(modules.TensorModule):
        def __init__(self, factors):
            super().__init__(factors)
            ambients.append((len(factors), self.total_dim))

    monkeypatch.setattr(modules, "_POLY_CACHE", {})
    monkeypatch.setattr(modules, "TensorModule", RecordingTensor)
    shapes = [lam for lam in all_partitions(6, 6) if lam.hook_ok(2, 2)]
    assert len(shapes) == 11
    for lam in shapes:
        assert dims_of(polynomial_module(iset, lam)) == _oracle_dims(lam, 2, 2), lam
    assert all(nfactors <= 2 for nfactors, _ in ambients)
    assert max(dim for _, dim in ambients) < 4 ** 5


def typed_blocks(module):
    """Every stored block of an explicit module, by (gen key, weight), as
    its target and its entries paired with their types."""
    return {
        key: (target, [[(type(x), x) for x in row] for row in block])
        for key, (target, block) in module._blocks.items()
    }


@settings(max_examples=40, deadline=None)
@given(hook_shapes(flavors=DERIVED_FLAVORS))
def test_derived_blocks_equal_the_ambient_coproduct_blocks(case):
    # only the simple units are read off the ambient; every other block is
    # a supercommutator of blocks in the module's own basis, and must equal
    # the block the ambient coproduct gives, in value and in entry type
    iset, _, _, lam = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "_POLY_CACHE", {})
        module = polynomial_module(iset, lam)
    reference = ambient_polynomial_module(iset, lam)
    assert dims_of(module) == dims_of(reference)
    assert typed_blocks(module) == typed_blocks(reference)


def test_the_ambient_tensor_applies_simple_units_only(monkeypatch):
    # the non-simple blocks are derived inside the module, so a fresh build
    # (parents included) hands the ambient only simple units
    iset = IndexSet.gl(0, 2, 0, 2)
    simple = set()
    for a, b in iset.simple_pairs():
        simple |= {BasisElement(a, b), BasisElement(b, a)}
    seen = set()
    apply = modules.TensorModule.apply

    def recording_apply(self, terms, w, columns):
        seen.update(gen for _, word in terms for gen, _ in word)
        return apply(self, terms, w, columns)

    monkeypatch.setattr(modules, "_POLY_CACHE", {})
    monkeypatch.setattr(modules.TensorModule, "apply", recording_apply)
    module = polynomial_module(iset, Partition([2, 1]))
    assert seen == simple
    # and the module still holds blocks of units that are not simple
    assert any(BasisElement(HalfIndex(r), HalfIndex(c)) not in simple for (r, c), _ in module._blocks)
