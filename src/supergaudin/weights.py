"""Weights: sparse integer coefficients over half-integer indices plus a level.

The level is the coefficient of the central dual generator and is kept as
an exact rational: an ``int`` when it is integral, a ``Fraction`` otherwise
(complex levels are rejected: every downstream exact test relies on
rational arithmetic).  There is one object per weight.  The public
constructor validates its input; sums, differences and negatives of
weights skip the checks their inputs have already passed.  Both end in the
trusted constructor ``Weight._raw``, which looks the (coefficients, level)
pair up in a process-wide intern table, so equal weights are the same
object.  ``Weight`` keeps the identity ``__eq__`` and ``__hash__`` of
``object``, so every dict keyed by weights, or by tuples of them, hashes
in C.  The table keeps every weight the process has made, and each one is
shared by all its users, so its coefficients are a read-only mapping.
Sums are memoized on the pair of operands, in ``_SUMS``: operands and
results are interned and immutable, so an entry never goes stale.

The weight formulas read the algebra off the ``IndexSet`` they are handed.
"""

from fractions import Fraction
from types import MappingProxyType

from .indices import HalfIndex, idx
from .partitions import Partition, frobenius_theta


def exact_scalar(x):
    """An exact rational as an int when it is integral, else as a Fraction.

    Ints pass through untouched; anything else goes through ``Fraction``
    (so a string, float or Fraction is accepted and a complex is not).
    ``Fraction(3) == 3`` and the two hash and print alike, so the choice
    never shows in outputs; int arithmetic is just much cheaper.
    """
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# (frozenset of (doubled index, coefficient) pairs, level) -> its Weight
_INTERNED = {}
# (weight, weight) -> their sum
_SUMS = {}


class Weight:
    """Finitely supported integer functional on the Cartan plus a level.

    Interned: ``Weight(coeffs, level)`` returns the one object for that
    pair, so equality is identity.
    """

    __slots__ = ("coeffs", "level")

    def __new__(cls, coeffs=None, level=0):
        clean = {}
        for key, val in (coeffs or {}).items():
            if isinstance(key, HalfIndex):
                key = key.doubled
            try:
                d, v = int(key), int(val)
                exact = d == key and v == val
            except (OverflowError, ValueError):
                exact = False
            if not exact:
                raise ValueError("doubled indices and coefficients must be integers, got %r: %r" % (key, val))
            if d == 0:
                raise ValueError("index 0 is not allowed")
            if v:
                clean[d] = v
        try:
            level = exact_scalar(level)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise ValueError("level must be an exact rational, got %r" % (level,))
        return cls._raw(clean, level)

    def __init__(self, coeffs=None, level=0):
        """Does nothing: ``__new__`` validates and interns.  Defined so
        that wrapping it counts the public constructions."""

    @classmethod
    def _raw(cls, clean, level):
        """Trusted constructor: ``clean`` maps nonzero doubled indices to
        nonzero ints and ``level`` is an exact scalar (int when integral).
        Returns the interned weight, which owns ``clean`` when it is new."""
        key = (frozenset(clean.items()), level)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "coeffs", MappingProxyType(clean))
            object.__setattr__(self, "level", level)
            # a weight another thread interned meanwhile wins
            self = _INTERNED.setdefault(key, self)
        return self

    def __reduce__(self):
        # copy, deepcopy and unpickling go through the constructor, so they
        # hand back the interned weight itself
        return (Weight, (self.coeffs.copy(), self.level))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __call__(self, index):
        """Evaluate on the Cartan element E_i."""
        d = index.doubled if isinstance(index, HalfIndex) else int(index)
        return self.coeffs.get(d, 0)

    def items(self):
        """(doubled index, coefficient) pairs sorted by doubled index."""
        return sorted(self.coeffs.items())

    def support(self):
        return [HalfIndex(d) for d, _ in self.items()]

    @property
    def parity(self):
        """Sum of coefficients on half-odd indices, mod 2."""
        return sum(v for d, v in self.coeffs.items() if d % 2) % 2

    def __add__(self, other):
        out = _SUMS.get((self, other))
        if out is None:
            coeffs = self.coeffs.copy()
            for d, v in other.coeffs.items():
                v += coeffs.get(d, 0)
                if v:
                    coeffs[d] = v
                else:
                    del coeffs[d]
            out = Weight._raw(coeffs, exact_scalar(self.level + other.level))
            _SUMS[(self, other)] = out
        return out

    def __sub__(self, other):
        coeffs = self.coeffs.copy()
        for d, v in other.coeffs.items():
            v = coeffs.get(d, 0) - v
            if v:
                coeffs[d] = v
            else:
                del coeffs[d]
        return Weight._raw(coeffs, exact_scalar(self.level - other.level))

    def __neg__(self):
        return Weight._raw({d: -v for d, v in self.coeffs.items()}, -self.level)

    def __repr__(self):
        if not self.coeffs and not self.level:
            return "Weight(0)"
        terms = []
        for d, v in self.items():
            name = "e(%d)" % (d // 2) if d % 2 == 0 else "e(%d/2)" % d
            terms.append("%+d*%s" % (v, name))
        if self.level:
            terms.append("+(%s)*L0" % (self.level,))
        return "Weight(%s)" % "".join(terms)

    def sort_key(self):
        return (tuple(self.items()), self.level)

    def to_json(self):
        return {
            "level": str(self.level),
            "coeffs": [[d, v] for d, v in self.items()],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            # the weight schema's additionalProperties: false
            extra = set(obj) - {"level", "coeffs"}
            if extra:
                raise ValueError("unknown keys %s" % sorted(extra))
            coeffs = dict(obj["coeffs"])
            if len(coeffs) != len(obj["coeffs"]):
                raise ValueError("repeated index")
            # JSON true and false would read as 1 and 0; as in the shipped
            # schemas, a bool is no number
            if any(type(x) is bool for x in (*coeffs, *coeffs.values(), obj["level"])):
                raise ValueError("true or false where a number goes")
            return cls(coeffs, obj["level"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError("malformed weight document %r (%s)" % (obj, exc)) from None


def eps(i):
    """The fundamental weight supported on a single index."""
    return Weight({idx(i): 1})


def highest_weight(index_set, lam_plus, lam_minus=Partition(), level=0):
    """Highest weight of a partition pair on ``index_set``, at ``level``.

    super flavor, gl(p+m|q+n): -max(lam^-_r - q, 0) on e(-r) for r <= p,
    -(lam^-)'_s on e(-s+1/2) for s <= q, lam^+_i on e(i) for i <= m and
    max((lam^+)'_j - m, 0) on e(j-1/2) for j <= n; requires the hook
    conditions (lam^+)'_{n+1} <= m and lam^-_{p+1} <= q so that nothing
    is lost to the band.  Classical flavor: the conjugate parts on the
    half-odds.  Wide flavor: the modified Frobenius coordinates.
    """
    p, q, m, n = index_set.p, index_set.q, index_set.m, index_set.n
    cplus = lam_plus.conjugate()
    cminus = lam_minus.conjugate()
    coeffs = {}
    if index_set.flavor == "super":
        lam_plus.check_hook(m, n, "lam+")
        # lam-_{p+1} <= q is the (q|p)-hook condition on the conjugate
        cminus.check_hook(q, p, "lam-'")
        for r in range(1, p + 1):
            coeffs[-2 * r] = -max(lam_minus.part(r) - q, 0)
        for s in range(1, q + 1):
            coeffs[-2 * s + 1] = -cminus.part(s)
        for i in range(1, m + 1):
            coeffs[2 * i] = lam_plus.part(i)
        for j in range(1, n + 1):
            coeffs[2 * j - 1] = max(cplus.part(j) - m, 0)
    elif index_set.flavor == "classical":
        lam_plus.check_hook(0, n, "lam+")
        lam_minus.check_hook(0, p, "lam-")
        for r in range(1, p + 1):
            coeffs[-2 * r + 1] = -cminus.part(r)
        for i in range(1, n + 1):
            coeffs[2 * i - 1] = cplus.part(i)
    else:
        tplus = frobenius_theta(lam_plus, 2 * n + 1)
        tminus = frobenius_theta(lam_minus, 2 * p + 1)
        if tplus[2 * n]:
            raise ValueError("theta(lam+) does not vanish at n+1/2")
        if tminus[2 * p]:
            raise ValueError("theta(lam-) does not vanish at p+1/2")
        for k in range(1, 2 * p + 1):
            coeffs[-k] = -tminus[k - 1]
        for k in range(1, 2 * n + 1):
            coeffs[k] = tplus[k - 1]
    return Weight(coeffs, level)


def unitarizable_weight(index_set, gen_lam):
    """Unitarizable highest weight of a generalized partition, super flavor.

    On gl(p+m|q+n), requires lam_{m+1} <= n (when the depth d exceeds m)
    and lam_{d-p} >= -q (when d > p).  Returns the level-zero weight for
    the plain algebra: the ``highest_weight`` of (lam^+, lam^-), minus d
    on e(-r), r <= p, and plus d on e(-s+1/2), s <= q.
    """
    if index_set.flavor != "super":
        raise ValueError("unitarizable weights need the super flavor")
    p, q, m, n = index_set.p, index_set.q, index_set.m, index_set.n
    d = gen_lam.depth
    if d > m and gen_lam.part(m + 1) > n:
        raise ValueError(
            "lam_%d = %d > n = %d" % (m + 1, gen_lam.part(m + 1), n)
        )
    if d > p and gen_lam.part(d - p) < -q:
        raise ValueError(
            "lam_%d = %d < -q = %d" % (d - p, gen_lam.part(d - p), -q)
        )
    coeffs = highest_weight(index_set, gen_lam.plus(), gen_lam.minus()).coeffs.copy()
    for r in range(1, p + 1):
        coeffs[-2 * r] = coeffs.get(-2 * r, 0) - d
    for s in range(1, q + 1):
        coeffs[-2 * s + 1] = coeffs.get(-2 * s + 1, 0) + d
    return Weight(coeffs, 0)
