"""Supertrace expansion of powers of the Lax matrix.

Entries of the Lax matrix are first-order differential operators in a
formal variable u whose coefficients are rational functions with simple
poles at the marked points and one-slot operators E_{ab}^{(i)} as
numerators.  The coefficients live in a fixed partial-fraction basis
(poles of order at most three plus a constant part), each term a sum of
operator words {word: scalar}: a word is a tuple of (gen, slot, 0)
factors as ``TensorModule.apply`` reads them, the empty word the
identity.  A product concatenates words, left factor first, and
re-expands the poles exactly over the pole set.  So str L(u)^k is
composed once, with no tensor and no weight, and each term is read on
each weight space by one ``apply``; so are the closed forms, built from
the Gaudin families' block terms.
"""

from fractions import Fraction
from itertools import product
from math import comb

from .algebra import BasisElement
from .gaudin import _block_terms, cubic_family, quadratic_family

MAX_ORDER = 3

CONST = ("c",)


def _add_words(acc, words, c=1):
    """acc += c * words for {word: scalar} sums; zeros stay until a
    RationalFunctionPF drops them."""
    for word, s in words.items():
        acc[word] = acc.get(word, 0) + c * s


def _mul_words(a, b):
    """The product of two word sums: the words concatenate, a's first."""
    out = {}
    for wa, sa in a.items():
        _add_words(out, {wa + wb: sb for wb, sb in b.items()}, sa)
    return out


class RationalFunctionPF:
    """Operator-valued rational function in partial-fraction form.

    Terms map ("c",) or (pole_index, order) to word sums {word: scalar}
    (see the module docstring); the pole set is a fixed tuple of distinct
    rational points.  Closed under sum, product and derivative as long as
    pole orders stay at most MAX_ORDER.
    """

    __slots__ = ("z", "terms")

    def __init__(self, z, terms=None):
        self.z = tuple(Fraction(x) for x in z)
        clean = {}
        for key, words in (terms or {}).items():
            if key != CONST:
                i, r = key
                if not (0 <= i < len(self.z)) or not (1 <= r <= MAX_ORDER):
                    raise ValueError("bad partial-fraction key %r" % (key,))
            words = {word: s for word, s in words.items() if s}
            if words:
                clean[key] = words
        self.terms = clean

    def __add__(self, other):
        terms = {k: dict(v) for k, v in self.terms.items()}
        for k, v in other.terms.items():
            _add_words(terms.setdefault(k, {}), v)
        return RationalFunctionPF(self.z, terms)

    def scale(self, c):
        return RationalFunctionPF(
            self.z, {k: {word: c * s for word, s in v.items()} for k, v in self.terms.items()}
        )

    def derivative(self):
        """d/du: constants die, (u - z_i)^{-r} -> -r (u - z_i)^{-r-1}."""
        terms = {}
        for key, words in self.terms.items():
            if key == CONST:
                continue
            i, r = key
            if r + 1 > MAX_ORDER:
                raise ValueError("derivative exceeds pole order %d" % MAX_ORDER)
            terms[(i, r + 1)] = {word: -r * s for word, s in words.items()}
        return RationalFunctionPF(self.z, terms)

    def mul(self, other):
        """Product with exact re-expansion over the fixed pole set."""
        out = {}

        def put(key, words, c=1):
            _add_words(out.setdefault(key, {}), words, c)

        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                prod = _mul_words(v1, v2)
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
                        put((i, r), prod, coeff)
                    for s in range(1, b + 1):
                        coeff = (
                            Fraction((-1) ** (b - s) * comb(a + b - s - 1, b - s))
                            / (-w) ** (a + b - s)
                        )
                        put((j, s), prod, coeff)
        return RationalFunctionPF(self.z, out)

    def __eq__(self, other):
        # the constructor drops zero scalars and empty sums, so equal
        # functions have equal term dicts
        return (
            isinstance(other, RationalFunctionPF)
            and self.z == other.z
            and self.terms == other.terms
        )

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


def _lax_entry(a, b, z):
    """The (a, b) Lax entry as a DiffOpPoly over operator words:
    delta_{ab} d/du minus (-1)^{2a} sum_i E_{a,b} on slot i over (u - z_i)."""
    gen = BasisElement(a, b)
    sign = -1 if a.parity else 1
    coeffs = {0: RationalFunctionPF(z, {(i, 1): {((gen, i, 0),): -sign} for i in range(len(z))})}
    if a == b:
        coeffs[1] = RationalFunctionPF(z, {CONST: {(): 1}})
    return DiffOpPoly(z, coeffs)


def _on_weight_space(tensor, terms, w):
    """{key: rows} on the w-space of partial-fraction terms given as
    (scalar, word) lists, each from one ``apply`` over the unit columns;
    all-zero terms drop."""
    d = tensor.dim(w)
    units = [[int(r == c) for r in range(d)] for c in range(d)]
    out = {}
    for key, words in terms.items():
        res = tensor.apply(words, w, units)
        if res is None:
            continue
        rows = [list(row) for row in zip(*res[1])]
        if any(map(any, rows)):
            out[key] = rows
    return out


def lax_str_expansion(tensor, z, k):
    """Coefficients S_{kj} of the supertrace of the k-th Lax power.

    Returns a dict mapping the weights of the tensor product to a list
    [S_{k0}, ..., S_{kk}] (S_{kj} multiplies the (k-j)-th derivative),
    each S_{kj} a dict from partial-fraction keys to the nonzero matrices
    of its terms on that weight space.
    """
    if k not in (1, 2, 3):
        raise ValueError("only powers 1..3 are supported")
    z = tuple(Fraction(x) for x in z)
    if len(z) != len(tensor.factors):
        raise ValueError("need one z point per tensor factor")
    members = list(tensor.index_set)
    total = DiffOpPoly(z)
    # (L^k)_{rr} = sum over index chains r -> ... -> r of entry products
    for seq in product(members, repeat=k):
        op = _lax_entry(seq[k - 1], seq[0], z)
        for pos in range(k - 2, -1, -1):
            op = _lax_entry(seq[pos], seq[pos + 1], z).compose(op)
        sign = -1 if seq[0].parity else 1
        total = total + DiffOpPoly(z, {deg: pf.scale(sign) for deg, pf in op.coeffs.items()})
    coeffs = [
        {key: [(s, word) for word, s in words.items()] for key, words in total.coefficient(k - j).terms.items()}
        for j in range(k + 1)
    ]
    return {w: [_on_weight_space(tensor, terms, w) for terms in coeffs] for w in tensor.weights()}


def str_identity(index_set):
    """Supertrace of the identity: even count minus odd count."""
    return sum(1 if h.parity == 0 else -1 for h in index_set)


def _block_words(tensor, terms):
    """(scalar, word) terms of sum_k c_k B_k over (c_k, gaudin block spec)
    terms."""
    return [(c * s, word) for c, spec in terms for s, word in _block_terms(tensor, spec)]


def s22_closed(tensor, z, w):
    """The degree-two closed form on the w-space, as ``lax_str_expansion``
    gives S_22: per site, 2 H^i at the simple pole plus the one-site
    quadratic Casimir and trace at the double pole."""
    z = tuple(Fraction(x) for x in z)
    fam = quadratic_family(tensor, z)
    terms = {}
    for i in range(1, len(z) + 1):
        terms[(i - 1, 1)] = _block_words(tensor, [(2 * c, spec) for c, spec in fam.terms(i)])
        terms[(i - 1, 2)] = _block_words(tensor, [(1, ("site", 2, i)), (1, ("site", 1, i))])
    return _on_weight_space(tensor, terms, w)


def s33_closed(tensor, z, w):
    """The degree-three closed form on the w-space, assembled from the
    cubic Hamiltonians, as ``lax_str_expansion`` gives S_33."""
    z = tuple(Fraction(x) for x in z)
    ell = len(z)
    famH = quadratic_family(tensor, z)
    famC = cubic_family(tensor, z, "C")
    famD = cubic_family(tensor, z, "D")
    sid = str_identity(tensor.index_set)
    traces = [_block_words(tensor, [(1, ("site", 1, i))]) for i in range(1, ell + 1)]
    terms = {}
    for i in range(1, ell + 1):
        s2 = _block_words(
            tensor,
            [(-3 * c, spec) for c, spec in famD.terms(i)]
            + [(-(2 * sid + 3) * c, spec) for c, spec in famH.terms(i)],
        )
        for j in range(1, ell + 1):
            if j != i:
                c = 2 / (z[i - 1] - z[j - 1])
                s2 += [(c * a * b, wa + wb) for a, wa in traces[i - 1] for b, wb in traces[j - 1]]
        terms[(i - 1, 1)] = _block_words(tensor, [(-3 * c, spec) for c, spec in famC.terms(i)])
        terms[(i - 1, 2)] = s2
        terms[(i - 1, 3)] = _block_words(tensor, [(-1, ("site", 3, i)), (-3, ("site", 2, i)), (-2, ("site", 1, i))])
    return _on_weight_space(tensor, terms, w)
