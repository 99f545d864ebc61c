"""Supertrace expansion of powers of the Lax matrix.

Entries of the Lax matrix are first-order differential operators in a
formal variable u whose coefficients are rational functions with simple
poles at the marked points and one-slot operators E_{ab}^{(i)} as
numerators.  An operator is one plain dict

    {(n, key): {word: scalar}},

the term of d^n/du^n whose coefficient is the partial-fraction basis
function ``key`` (CONST, or (pole index, order) for (u - z_i)^{-order}
with order at most MAX_ORDER) times a sum of operator words.  A word is a
tuple of (gen, slot) factors as ``TensorModule.apply`` reads them, the
empty word the identity.  ``compose`` multiplies two operators: words
concatenate, the left factor's first, and the poles re-expand exactly
over the pole set (``pole_product``, ``pole_derivative``).  So str L(u)^k
is composed once, with no tensor and no weight, and each term is read on
each weight space by one ``apply``; so are the closed forms, built once
per tensor from the Gaudin families' block terms.
"""

from fractions import Fraction
from itertools import product
from math import comb

from .algebra import BasisElement
from .gaudin import HamiltonianFamily, _block_terms, _marked_points

MAX_ORDER = 3

CONST = ("c",)


def pole_product(z, k1, k2):
    """The product of two partial-fraction basis functions over the pole
    set z, as (key, coefficient) pairs."""
    if k1 == CONST:
        return [(k2, 1)]
    if k2 == CONST:
        return [(k1, 1)]
    (i, a), (j, b) = k1, k2
    if i == j:
        if a + b > MAX_ORDER:
            raise ValueError("pole order %d exceeds %d" % (a + b, MAX_ORDER))
        return [((i, a + b), 1)]
    w = z[i] - z[j]
    return [
        ((i, r), Fraction((-1) ** (a - r) * comb(a + b - r - 1, a - r)) / w ** (a + b - r))
        for r in range(1, a + 1)
    ] + [
        ((j, s), Fraction((-1) ** (b - s) * comb(a + b - s - 1, b - s)) / (-w) ** (a + b - s))
        for s in range(1, b + 1)
    ]


def pole_derivative(key, t):
    """The t-th u-derivative of one basis function as (key, coefficient),
    or None when it vanishes: (u - z_i)^{-r} -> (-r)(-r-1)...(-r-t+1)
    (u - z_i)^{-r-t}."""
    if t == 0:
        return key, 1
    if key == CONST:
        return None
    i, r = key
    if r + t > MAX_ORDER:
        raise ValueError("derivative exceeds pole order %d" % MAX_ORDER)
    c = 1
    for s in range(r, r + t):
        c *= -s
    return (i, r + t), c


def _add_words(acc, words, c):
    """acc += c * words for {word: scalar} sums; zero scalars are kept."""
    for word, s in words.items():
        acc[word] = acc.get(word, 0) + c * s


def compose(z, left, right):
    """The operator product left . right, by d^n f = sum_t C(n, t) f^(t)
    d^(n-t); zero scalars are kept."""
    out = {}
    for (n, k1), words1 in left.items():
        for (m, k2), words2 in right.items():
            prod = {}
            for w1, s1 in words1.items():
                _add_words(prod, {w1 + w2: s2 for w2, s2 in words2.items()}, s1)
            for t in range(n + 1):
                deriv = pole_derivative(k2, t)
                if deriv is None:
                    break
                k2t, dc = deriv
                for key, c in pole_product(z, k1, k2t):
                    _add_words(out.setdefault((n + m - t, key), {}), prod, c * comb(n, t) * dc)
    return out


def _lax_entry(a, b, z):
    """The (a, b) Lax entry: delta_{ab} d/du minus (-1)^{2a} sum_i E_{a,b}
    on slot i over (u - z_i)."""
    gen = BasisElement(a, b)
    sign = -1 if a.parity else 1
    op = {(0, (i, 1)): {((gen, i),): -sign} for i in range(len(z))}
    if a == b:
        op[(1, CONST)] = {(): 1}
    return op


def _on_weight_spaces(tensor, terms):
    """{w: {key: rows}} over the weights of the tensor, of partial-fraction
    terms given as (scalar, word) lists.  On each weight space each term is
    read by one ``apply`` over the unit columns, whose images are the
    columns of its matrix; all-zero terms drop."""
    out = {}
    for w in tensor.weights():
        d = tensor.dim(w)
        units = [[int(r == c) for r in range(d)] for c in range(d)]
        out[w] = {}
        for key, pairs in terms.items():
            res = tensor.apply(pairs, w, units)
            if res is not None:
                rows = [list(row) for row in zip(*res[1])]
                if any(map(any, rows)):
                    out[w][key] = rows
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
    z = _marked_points(tensor, z)
    members = list(tensor.index_set)
    total = {}
    # (L^k)_{rr} = sum over index chains r -> ... -> r of entry products
    for seq in product(members, repeat=k):
        op = _lax_entry(seq[k - 1], seq[0], z)
        for pos in range(k - 2, -1, -1):
            op = compose(z, _lax_entry(seq[pos], seq[pos + 1], z), op)
        sign = -1 if seq[0].parity else 1
        for term, words in op.items():
            _add_words(total.setdefault(term, {}), words, sign)
    # S_kj multiplies d^(k-j); zero scalars drop here, once
    coeffs = [{} for _ in range(k + 1)]
    for (n, key), words in total.items():
        coeffs[k - n][key] = [(s, word) for word, s in words.items() if s]
    spaces = [_on_weight_spaces(tensor, terms) for terms in coeffs]
    return {w: [by_w[w] for by_w in spaces] for w in tensor.weights()}


def str_identity(index_set):
    """Supertrace of the identity: even count minus odd count."""
    return sum(1 if h.parity == 0 else -1 for h in index_set)


def _block_words(tensor, terms):
    """(scalar, word) terms of sum_k c_k B_k over (c_k, gaudin block spec)
    terms."""
    return [(c * s, word) for c, spec in terms for s, word in _block_terms(tensor, spec)]


def s22_closed(tensor, z):
    """The degree-two closed form on every weight space, as
    ``lax_str_expansion`` gives S_22: per site, 2 H^i at the simple pole
    plus the one-site quadratic Casimir and trace at the double pole."""
    z = tuple(Fraction(x) for x in z)
    fam = HamiltonianFamily(tensor, z)
    terms = {}
    for i in range(1, len(z) + 1):
        terms[(i - 1, 1)] = _block_words(tensor, [(2 * c, spec) for c, spec in fam.terms(i)])
        terms[(i - 1, 2)] = _block_words(tensor, [(1, ("site", 2, i)), (1, ("site", 1, i))])
    return _on_weight_spaces(tensor, terms)


def s33_closed(tensor, z):
    """The degree-three closed form on every weight space, assembled from
    the cubic Hamiltonians, as ``lax_str_expansion`` gives S_33."""
    z = tuple(Fraction(x) for x in z)
    ell = len(z)
    famC = HamiltonianFamily(tensor, z, "cubicC")
    famD = HamiltonianFamily(tensor, z, "cubicD")
    famH = HamiltonianFamily(tensor, z)
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
    return _on_weight_spaces(tensor, terms)
