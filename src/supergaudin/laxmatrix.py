"""Supertrace expansion of powers of the Lax matrix.

Entries of the Lax matrix are first-order differential operators in a
formal variable u whose coefficients are rational functions with simple
poles at the marked points.  Powers are composed symbolically; the
rational-function coefficients live in a fixed partial-fraction basis
(poles of order at most three plus a constant part), with products
re-expanded exactly over the pole set.
"""

from fractions import Fraction
from math import comb

from .algebra import BasisElement
from .gaudin import add_word, cubic_family, quadratic_family
from .linalg import is_zero_matrix, mat_add, mat_eye, mat_mul, mat_scale, mat_zeros

MAX_ORDER = 3

CONST = ("c",)


class RationalFunctionPF:
    """Matrix-valued rational function in partial-fraction form.

    Terms map ("c",) or (pole_index, order) to matrices; the pole set is a
    fixed tuple of distinct rational points.  Closed under sum, product
    and derivative as long as pole orders stay at most MAX_ORDER.
    """

    __slots__ = ("z", "terms")

    def __init__(self, z, terms=None):
        self.z = tuple(Fraction(x) for x in z)
        clean = {}
        for key, val in (terms or {}).items():
            if key != CONST:
                i, r = key
                if not (0 <= i < len(self.z)) or not (1 <= r <= MAX_ORDER):
                    raise ValueError("bad partial-fraction key %r" % (key,))
            if not is_zero_matrix(val):
                clean[key] = val
        self.terms = clean

    def copy(self):
        return RationalFunctionPF(self.z, {k: [row[:] for row in v] for k, v in self.terms.items()})

    def __add__(self, other):
        terms = {k: v for k, v in self.terms.items()}
        for k, v in other.terms.items():
            terms[k] = mat_add(terms[k], v) if k in terms else v
        return RationalFunctionPF(self.z, terms)

    def scale(self, c):
        return RationalFunctionPF(self.z, {k: mat_scale(v, c) for k, v in self.terms.items()})

    def derivative(self):
        """d/du: constants die, (u - z_i)^{-r} -> -r (u - z_i)^{-r-1}."""
        terms = {}
        for key, val in self.terms.items():
            if key == CONST:
                continue
            i, r = key
            if r + 1 > MAX_ORDER:
                raise ValueError("derivative exceeds pole order %d" % MAX_ORDER)
            terms[(i, r + 1)] = mat_scale(val, -r)
        return RationalFunctionPF(self.z, terms)

    def mul(self, other):
        """Product with exact re-expansion over the fixed pole set."""
        out = {}

        def put(key, val):
            out[key] = mat_add(out[key], val) if key in out else val

        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                prod = mat_mul(v1, v2)
                if k1 == CONST and k2 == CONST:
                    put(CONST, prod)
                elif k1 == CONST:
                    put(k2, prod)
                elif k2 == CONST:
                    put(k1, prod)
                elif k1[0] == k2[0]:
                    order = k1[1] + k2[1]
                    if order > MAX_ORDER:
                        raise ValueError("pole order %d exceeds %d" % (order, MAX_ORDER))
                    put((k1[0], order), prod)
                else:
                    i, a = k1
                    j, b = k2
                    w = self.z[i] - self.z[j]
                    for r in range(1, a + 1):
                        coeff = (
                            Fraction((-1) ** (a - r) * comb(a + b - r - 1, a - r))
                            / w ** (a + b - r)
                        )
                        put((i, r), mat_scale(prod, coeff))
                    for s in range(1, b + 1):
                        coeff = (
                            Fraction((-1) ** (b - s) * comb(a + b - s - 1, b - s))
                            / (-w) ** (a + b - s)
                        )
                        put((j, s), mat_scale(prod, coeff))
        return RationalFunctionPF(self.z, out)

    def eval(self, u):
        """Evaluate at a rational point away from the poles."""
        u = Fraction(u)
        total = None
        for key, val in self.terms.items():
            c = Fraction(1) if key == CONST else 1 / (u - self.z[key[0]]) ** key[1]
            scaled = mat_scale(val, c)
            total = scaled if total is None else mat_add(total, scaled)
        return total

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionPF) or self.z != other.z:
            return False
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a = self.terms.get(k)
            b = other.terms.get(k)
            if a is None or b is None:
                if not is_zero_matrix(a if a is not None else b):
                    return False
            elif a != b:
                return False
        return True

    def __repr__(self):
        return "RationalFunctionPF(keys=%r)" % (sorted(self.terms),)


class DiffOpPoly:
    """Polynomial in d/du with RationalFunctionPF coefficients."""

    __slots__ = ("z", "coeffs")

    def __init__(self, z, coeffs=None):
        self.z = tuple(Fraction(x) for x in z)
        self.coeffs = {d: pf for d, pf in (coeffs or {}).items() if pf.terms}

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for d, pf in other.coeffs.items():
            coeffs[d] = coeffs[d] + pf if d in coeffs else pf
        return DiffOpPoly(self.z, coeffs)

    def compose(self, other):
        """Operator product self . other, using d/du f = f d/du + f'."""
        coeffs = {}
        for d1, pf1 in self.coeffs.items():
            for d2, pf2 in other.coeffs.items():
                g = pf2
                for k in range(d1 + 1):
                    deg = d1 + d2 - k
                    term = pf1.mul(g).scale(comb(d1, k))
                    coeffs[deg] = coeffs[deg] + term if deg in coeffs else term
                    if k < d1:
                        g = g.derivative()
        return DiffOpPoly(self.z, coeffs)

    def coefficient(self, degree):
        return self.coeffs.get(degree, RationalFunctionPF(self.z))


def _lax_entry(tensor, a, b, z, w):
    """The (a, b) Lax entry as a DiffOpPoly from the w-space.

    delta_{ab} d/du minus (-1)^{2a} sum_i E_{a,b} on slot i over (u - z_i);
    returns (target_weight, op) or None when every block vanishes.
    """
    gen = BasisElement(a, b)
    target = w + gen.weight_shift()
    sign = -1 if a.parity else 1
    poles = {}
    for slot in range(len(tensor.factors)):
        res = tensor.slot_act(gen, slot, w)
        if res is None:
            continue
        poles[(slot, 1)] = mat_scale(res[1], -sign)
    coeffs = {}
    if poles:
        coeffs[0] = RationalFunctionPF(z, poles)
    if a == b:
        d = tensor.dim(w)
        coeffs[1] = RationalFunctionPF(z, {CONST: mat_eye(d)})
    if not coeffs:
        return None
    return target, DiffOpPoly(z, coeffs)


def lax_str_expansion(tensor, z, k):
    """Coefficients S_{kj} of the supertrace of the k-th Lax power.

    Returns a dict mapping the weights of the tensor product to a list
    [S_{k0}, ..., S_{kk}] of matrix-valued partial-fraction coefficients
    on that weight space (S_{kj} multiplies the (k-j)-th derivative).
    """
    if k not in (1, 2, 3):
        raise ValueError("only powers 1..3 are supported")
    from itertools import product

    z = tuple(Fraction(x) for x in z)
    members = list(tensor.index_set)
    out = {}
    for w in tensor.weights():
        total = DiffOpPoly(z)
        # (L^k)_{rr} = sum over index chains r -> ... -> r of entry products
        for seq in product(members, repeat=k):
            sign = -1 if seq[0].parity else 1
            cur_w = w
            op = None
            dead = False
            for pos in range(k - 1, -1, -1):
                a = seq[pos]
                b = seq[(pos + 1) % k]
                res = _lax_entry(tensor, a, b, z, cur_w)
                if res is None:
                    dead = True
                    break
                cur_w, entry = res
                op = entry if op is None else entry.compose(op)
            if dead or op is None:
                continue
            if cur_w != w:
                raise RuntimeError("Lax chain does not close")
            scaled = DiffOpPoly(z, {deg: pf.scale(sign) for deg, pf in op.coeffs.items()})
            total = total + scaled
        out[w] = [total.coefficient(k - j) for j in range(k + 1)]
    return out


def _site_sum(tensor, signed_words, w):
    """sum of sign * (one-slot word) over the given words, as dense rows."""
    d = tensor.dim(w)
    total = mat_zeros(d, d)
    for sign, word in signed_words:
        add_word(total, tensor, word, w, sign)
    return total


def _site_quadratic(tensor, slot, w):
    """sum_{r,s} (-1)^{2s} E_{r,s} E_{s,r} on one slot."""
    members = list(tensor.index_set)
    return _site_sum(
        tensor,
        [
            (-1 if s.parity else 1, [(BasisElement(r, s), slot), (BasisElement(s, r), slot)])
            for r in members
            for s in members
        ],
        w,
    )


def _site_trace(tensor, slot, w):
    """sum_r E_r on one slot."""
    return _site_sum(tensor, [(1, [(BasisElement(r, r), slot)]) for r in tensor.index_set], w)


def _site_cubic(tensor, slot, w):
    """sum_{r,s,t} (-1)^{2(s+t)} E_{r,s} E_{s,t} E_{t,r} on one slot."""
    members = list(tensor.index_set)
    return _site_sum(
        tensor,
        [
            (
                -1 if (s.parity ^ t.parity) else 1,
                [(BasisElement(r, s), slot), (BasisElement(s, t), slot), (BasisElement(t, r), slot)],
            )
            for r in members
            for s in members
            for t in members
        ],
        w,
    )


def str_identity(index_set):
    """Supertrace of the identity: even count minus odd count."""
    return sum(1 if h.parity == 0 else -1 for h in index_set)


def s22_closed(tensor, z, w):
    """The degree-two closed form: per site, 2 H^i simple poles plus the
    one-site quadratic Casimir and trace at the double pole."""
    z = tuple(Fraction(x) for x in z)
    fam = quadratic_family(tensor, z)
    terms = {}
    for i in range(len(z)):
        terms[(i, 1)] = mat_scale(fam.matrix(i + 1, w), 2)
        terms[(i, 2)] = mat_add(_site_quadratic(tensor, i, w), _site_trace(tensor, i, w))
    return RationalFunctionPF(z, terms)


def s33_closed(tensor, z, w):
    """The degree-three closed form assembled from the cubic Hamiltonians."""
    z = tuple(Fraction(x) for x in z)
    ell = len(z)
    famH = quadratic_family(tensor, z)
    famC = cubic_family(tensor, z, "C")
    famD = cubic_family(tensor, z, "D")
    sid = str_identity(tensor.index_set)
    traces = [_site_trace(tensor, i, w) for i in range(ell)]
    terms = {}
    for i in range(ell):
        s1 = mat_scale(famC.matrix(i + 1, w), 3)
        s2 = mat_scale(famD.matrix(i + 1, w), 3)
        for j in range(ell):
            if j == i:
                continue
            s2 = mat_add(
                s2, mat_scale(mat_mul(traces[i], traces[j]), Fraction(-2) / (z[i] - z[j]))
            )
        s2 = mat_add(s2, mat_scale(famH.matrix(i + 1, w), 2 * sid + 3))
        s3 = mat_add(
            _site_cubic(tensor, i, w),
            mat_add(mat_scale(_site_quadratic(tensor, i, w), 3), mat_scale(traces[i], 2)),
        )
        terms[(i, 1)] = mat_scale(s1, -1)
        terms[(i, 2)] = mat_scale(s2, -1)
        terms[(i, 3)] = mat_scale(s3, -1)
    return RationalFunctionPF(z, terms)
