"""Operator composition over partial fractions and the Lax supertrace
expansion."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from supergaudin import laxmatrix
from supergaudin.algebra import BasisElement
from supergaudin.indices import IndexSet
from supergaudin.laxmatrix import (
    CONST,
    MAX_ORDER,
    compose,
    lax_str_expansion,
    pole_derivative,
    s22_closed,
    s33_closed,
    str_identity,
)
from supergaudin.modules import NaturalModule, tensor_product
from supergaudin.weights import Weight, eps

from oracles import slot_act, word_table_on_weight_spaces

Z2 = (Fraction(0), Fraction(1))
Z3 = (Fraction(0), Fraction(1), Fraction(5, 2))
DU = {(1, CONST): {(): 1}}


def scalar_op(terms):
    """A degree-0 operator with scalar coefficients: each term a multiple
    of the empty word."""
    return {(0, key): {(): Fraction(v)} for key, v in terms.items()}


def nonzero(op):
    """op with its zero scalars and empty word sums dropped."""
    out = {}
    for term, words in op.items():
        words = {word: s for word, s in words.items() if s}
        if words:
            out[term] = words
    return out


def op_to_sympy(op, z, u):
    expr = sympy.Integer(0)
    for (n, key), words in op.items():
        assert n == 0
        v = sympy.Rational(words[()])
        if key == CONST:
            expr += v
        else:
            i, r = key
            expr += v / (u - sympy.Rational(z[i])) ** r
    return expr


def test_pf_product_against_sympy():
    rng = random.Random(3)
    u = sympy.Symbol("u")
    products = refused = 0
    for _ in range(40):
        def rand_op():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.25:
                    terms[CONST] = rng.randint(-3, 3)
                else:
                    terms[(rng.randrange(3), rng.randint(1, 3))] = rng.randint(-3, 3)
            return scalar_op(terms)

        a, b = rand_op(), rand_op()
        # a same-pole product past MAX_ORDER has no place in the basis
        too_high = any(
            k1 != CONST and k2 != CONST and k1[0] == k2[0] and k1[1] + k2[1] > MAX_ORDER
            for _, k1 in a
            for _, k2 in b
        )
        if too_high:
            with pytest.raises(ValueError, match="exceeds"):
                compose(Z3, a, b)
            refused += 1
            continue
        prod = compose(Z3, a, b)
        lhs = sympy.simplify(op_to_sympy(prod, Z3, u) - op_to_sympy(a, Z3, u) * op_to_sympy(b, Z3, u))
        assert lhs == 0
        products += 1
    assert products and refused


def test_pf_reexpansion_identity():
    """1/((u-z_i)(u-z_j)^2) re-expands with the three displayed terms."""
    z = (Fraction(2), Fraction(7))
    prod = compose(z, scalar_op({(0, 1): 1}), scalar_op({(1, 2): 1}))
    w = z[0] - z[1]
    expected = scalar_op(
        {
            (0, 1): Fraction(1) / w**2,
            (1, 1): -Fraction(1) / w**2,
            (1, 2): -Fraction(1) / w,
        }
    )
    assert nonzero(prod) == expected


def test_pf_derivative_and_pole_order_limit():
    assert pole_derivative((0, 1), 0) == ((0, 1), 1)
    assert pole_derivative((0, 1), 1) == ((0, 2), -1)
    assert pole_derivative((1, 1), 2) == ((1, 3), 2)
    assert pole_derivative(CONST, 0) == (CONST, 1)
    assert pole_derivative(CONST, 1) is None
    with pytest.raises(ValueError, match="derivative exceeds"):
        pole_derivative((0, 3), 1)
    with pytest.raises(ValueError, match="derivative exceeds"):
        pole_derivative((0, 2), 2)
    with pytest.raises(ValueError, match="derivative exceeds"):
        compose(Z2, DU, scalar_op({(0, 3): 1}))
    with pytest.raises(ValueError, match="pole order 4 exceeds"):
        compose(Z2, scalar_op({(0, 2): 1}), scalar_op({(0, 2): 1}))


def test_diffop_composition_rule():
    """d/du . f = f d/du + f' as operators, f with operator-word values."""
    x, y = ("x", 0, 0), ("y", 1, 0)
    f = {(0, (1, 1)): {(x,): 5}, (0, CONST): {(y,): 1}, (0, (0, 2)): {(x, y): -2, (): 3}}
    df = {(0, (1, 2)): {(x,): -5}, (0, (0, 3)): {(x, y): 4, (): -6}}
    left = compose(Z2, DU, f)
    right = compose(Z2, f, DU)
    for term, words in df.items():
        acc = right.setdefault(term, {})
        for word, s in words.items():
            acc[word] = acc.get(word, 0) + s
    assert nonzero(left) == nonzero(right)
    assert nonzero(left)[(1, (1, 1))] == {(x,): 5}


LETTERS = [("a", 0, 0), ("b", 1, 0), ("c", 0, 0)]
WORD_OPS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.one_of(st.just(CONST), st.tuples(st.integers(0, 2), st.just(1)))),
    st.dictionaries(st.lists(st.sampled_from(LETTERS), max_size=2).map(tuple), st.integers(-3, 3), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(WORD_OPS, WORD_OPS, WORD_OPS)
def test_compose_is_associative(a, b, c):
    """(a b) c = a (b c) over noncommuting words, once zero scalars drop;
    triples that pass MAX_ORDER on either side are skipped."""
    try:
        left = compose(Z3, compose(Z3, a, b), c)
        right = compose(Z3, a, compose(Z3, b, c))
    except ValueError:
        reject()
    assert nonzero(left) == nonzero(right)


def test_str_identity():
    assert str_identity(IndexSet.gl(0, 1, 0, 1)) == 0
    assert str_identity(IndexSet.gl(0, 2, 0, 1)) == 1
    assert str_identity(IndexSet.classical(0, 3)) == -3


def test_k1_expansion_by_hand():
    """Str L(u) = (m-n) d/du - sum_r sum_i E_r^{(i)}/(u - z_i)."""
    iset = IndexSet.gl(0, 2, 0, 1)
    tensor = tensor_product([NaturalModule(iset)] * 2)
    exp = lax_str_expansion(tensor, Z2, 1)
    for w in tensor.weights():
        S10, S11 = exp[w]
        d = tensor.dim(w)
        const = S10.get(CONST)
        sid = str_identity(iset)
        if const is not None:
            assert const == [[sid if r == c else 0 for c in range(d)] for r in range(d)]
        else:
            assert sid == 0
        for i in (0, 1):
            got = S11.get((i, 1))
            # minus the sum of Cartan actions on one slot
            expected = [[Fraction(0)] * d for _ in range(d)]
            for h in iset:
                res = slot_act(tensor, BasisElement(h, h), i, w)
                if res:
                    for r in range(d):
                        for c in range(d):
                            expected[r][c] -= res[1][r][c]
            if got is None:
                assert all(not x for row in expected for x in row)
            else:
                assert [[Fraction(x) for x in row] for row in got] == expected


@pytest.mark.parametrize("q,m,p,n", [(0, 1, 0, 1), (0, 2, 0, 1)])
def test_s22_identity(q, m, p, n):
    iset = IndexSet.gl(q, m, p, n)
    tensor = tensor_product([NaturalModule(iset)] * 2)
    z = (Fraction(1, 3), Fraction(2))
    exp = lax_str_expansion(tensor, z, 2)
    closed = s22_closed(tensor, z)
    assert set(closed) == set(tensor.weights())
    for w in tensor.weights():
        assert exp[w][2] == closed[w]


@pytest.mark.parametrize("q,m,p,n", [(0, 1, 0, 1), (0, 2, 0, 1)])
def test_s33_identity(q, m, p, n):
    iset = IndexSet.gl(q, m, p, n)
    tensor = tensor_product([NaturalModule(iset)] * 2)
    z = (Fraction(1, 3), Fraction(2))
    exp = lax_str_expansion(tensor, z, 3)
    closed = s33_closed(tensor, z)
    assert set(closed) == set(tensor.weights())
    for w in tensor.weights():
        assert exp[w][3] == closed[w]


def test_s33_identity_three_sites():
    tensor = tensor_product([NaturalModule(IndexSet.gl(0, 1, 0, 1))] * 3)
    z = (Fraction(0), Fraction(1), Fraction(3))
    exp = lax_str_expansion(tensor, z, 3)
    w = eps(1) + eps(1) + eps("1/2")
    assert exp[w][3] == s33_closed(tensor, z)[w]


def test_bad_power_rejected():
    tensor = tensor_product([NaturalModule(IndexSet.gl(0, 1, 0, 1))] * 2)
    with pytest.raises(ValueError):
        lax_str_expansion(tensor, Z2, 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_repeated_point_rejected(k):
    # a repeated point divided by zero at k = 2 and 3 and passed at k = 1
    tensor = tensor_product([NaturalModule(IndexSet.gl(0, 1, 0, 1))] * 2)
    with pytest.raises(ValueError, match="z points must be pairwise distinct"):
        lax_str_expansion(tensor, (Fraction(1), Fraction(1)), k)


LAX_SETS = [IndexSet.gl(0, 1, 0, 1), IndexSet.gl(0, 2, 0, 1), IndexSet.gl(1, 1, 1, 1)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_each_term_reads_as_the_word_table_reads_it(data):
    # every term the expansion and the closed forms read on the weight
    # spaces, one apply per term, against the word-by-word reference
    index_set = data.draw(st.sampled_from(LAX_SETS), label="index_set")
    ell = data.draw(st.integers(1, 3), label="ell")
    k = data.draw(st.integers(1, 3), label="k")
    halves = data.draw(st.lists(st.integers(-6, 6), min_size=ell, max_size=ell, unique=True), label="2z")
    z = [Fraction(x, 2) for x in halves]
    tensor = tensor_product([NaturalModule(index_set)] * ell)
    one_apply = laxmatrix._on_weight_spaces
    read = []

    def both(tensor, terms):
        got = one_apply(tensor, terms)
        assert got == word_table_on_weight_spaces(tensor, terms)
        read.append(terms)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laxmatrix, "_on_weight_spaces", both)
        lax_str_expansion(tensor, z, k)
        closed = ell > 1 and not (index_set.p or index_set.q)
        if closed:
            s22_closed(tensor, z)
            s33_closed(tensor, z)
    assert len(read) == k + 1 + 2 * closed
