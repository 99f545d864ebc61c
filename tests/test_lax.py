"""Partial-fraction arithmetic and the Lax supertrace expansion."""

import random
from fractions import Fraction

import pytest
import sympy

from supergaudin.algebra import BasisElement
from supergaudin.indices import IndexSet
from supergaudin.laxmatrix import (
    CONST,
    MAX_ORDER,
    DiffOpPoly,
    RationalFunctionPF,
    lax_str_expansion,
    s22_closed,
    s33_closed,
    str_identity,
)
from supergaudin.modules import NaturalModule, tensor_product
from supergaudin.weights import Weight, eps

from oracles import slot_act

Z2 = (Fraction(0), Fraction(1))


def scalar_pf(z, terms):
    """Scalar coefficients: each term is a multiple of the empty word."""
    return RationalFunctionPF(z, {k: {(): Fraction(v)} for k, v in terms.items()})


def pf_to_sympy(pf, u):
    expr = sympy.Integer(0)
    for key, val in pf.terms.items():
        v = sympy.Rational(val[()])
        if key == CONST:
            expr += v
        else:
            i, r = key
            expr += v / (u - sympy.Rational(pf.z[i])) ** r
    return expr


def test_pf_product_against_sympy():
    rng = random.Random(3)
    u = sympy.Symbol("u")
    z = (Fraction(0), Fraction(1), Fraction(5, 2))
    products = refused = 0
    for _ in range(40):
        def rand_pf():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.25:
                    terms[CONST] = rng.randint(-3, 3)
                else:
                    terms[(rng.randrange(3), rng.randint(1, 3))] = rng.randint(-3, 3)
            return scalar_pf(z, terms)

        a, b = rand_pf(), rand_pf()
        # a same-pole product past MAX_ORDER has no place in the basis
        too_high = any(
            k1 != CONST and k2 != CONST and k1[0] == k2[0] and k1[1] + k2[1] > MAX_ORDER
            for k1 in a.terms
            for k2 in b.terms
        )
        if too_high:
            with pytest.raises(ValueError, match="exceeds"):
                a.mul(b)
            refused += 1
            continue
        prod = a.mul(b)
        lhs = sympy.simplify(pf_to_sympy(prod, u) - pf_to_sympy(a, u) * pf_to_sympy(b, u))
        assert lhs == 0
        products += 1
    assert products and refused


def test_pf_reexpansion_identity():
    """1/((u-z_i)(u-z_j)^2) re-expands with the three displayed terms."""
    z = (Fraction(2), Fraction(7))
    a = scalar_pf(z, {(0, 1): 1})
    b = scalar_pf(z, {(1, 2): 1})
    prod = a.mul(b)
    w = z[0] - z[1]
    expected = scalar_pf(
        z,
        {
            (0, 1): Fraction(1) / w**2,
            (1, 1): -Fraction(1) / w**2,
            (1, 2): -Fraction(1) / w,
        },
    )
    assert prod == expected


def test_pf_derivative_and_pole_order_limit():
    z = (Fraction(0), Fraction(1))
    f = scalar_pf(z, {(0, 1): 3, CONST: 2})
    df = f.derivative()
    assert df == scalar_pf(z, {(0, 2): -3})
    with pytest.raises(ValueError):
        scalar_pf(z, {(0, 3): 1}).derivative()
    with pytest.raises(ValueError):
        scalar_pf(z, {(0, 2): 1}).mul(scalar_pf(z, {(0, 2): 1}))


def test_diffop_composition_rule():
    """d/du . f = f d/du + f' as operator polynomials."""
    z = (Fraction(0), Fraction(1))
    f = scalar_pf(z, {(1, 1): 5, CONST: 1})
    du = DiffOpPoly(z, {1: scalar_pf(z, {CONST: 1})})
    f_op = DiffOpPoly(z, {0: f})
    left = du.compose(f_op)
    right = f_op.compose(du) + DiffOpPoly(z, {0: f.derivative()})
    assert set(left.coeffs) == set(right.coeffs)
    for deg in left.coeffs:
        assert left.coeffs[deg] == right.coeffs[deg]


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
    for w in tensor.weights():
        assert exp[w][2] == s22_closed(tensor, z, w)


@pytest.mark.parametrize("q,m,p,n", [(0, 1, 0, 1), (0, 2, 0, 1)])
def test_s33_identity(q, m, p, n):
    iset = IndexSet.gl(q, m, p, n)
    tensor = tensor_product([NaturalModule(iset)] * 2)
    z = (Fraction(1, 3), Fraction(2))
    exp = lax_str_expansion(tensor, z, 3)
    for w in tensor.weights():
        assert exp[w][3] == s33_closed(tensor, z, w)


def test_s33_identity_three_sites():
    tensor = tensor_product([NaturalModule(IndexSet.gl(0, 1, 0, 1))] * 3)
    z = (Fraction(0), Fraction(1), Fraction(3))
    exp = lax_str_expansion(tensor, z, 3)
    w = eps(1) + eps(1) + eps("1/2")
    assert exp[w][3] == s33_closed(tensor, z, w)


def test_bad_power_rejected():
    tensor = tensor_product([NaturalModule(IndexSet.gl(0, 1, 0, 1))] * 2)
    with pytest.raises(ValueError):
        lax_str_expansion(tensor, Z2, 4)
