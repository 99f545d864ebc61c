"""Weights: sparse integer coefficients over half-integer indices plus a level.

The level is the coefficient of the central dual generator and is kept as
an exact rational (complex levels are rejected: every downstream exact
test relies on rational arithmetic).
"""

from fractions import Fraction

from .indices import HalfIndex, idx
from .partitions import Partition, frobenius_theta, partition_from_hook_data


class Weight:
    """Finitely supported integer functional on the Cartan plus a level."""

    __slots__ = ("coeffs", "level", "_hash")

    def __init__(self, coeffs=None, level=0):
        clean = {}
        for key, val in (coeffs or {}).items():
            d = key.doubled if isinstance(key, HalfIndex) else int(key)
            if d == 0:
                raise ValueError("index 0 is not allowed")
            val = int(val)
            if val:
                clean[d] = val
        try:
            level = Fraction(level)
        except (TypeError, ValueError):
            raise ValueError("level must be an exact rational, got %r" % (level,))
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_hash", hash((frozenset(clean.items()), level)))

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

    def total(self):
        return sum(self.coeffs.values())

    @property
    def parity(self):
        """Sum of coefficients on half-odd indices, mod 2."""
        return sum(v for d, v in self.coeffs.items() if d % 2) % 2

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for d, v in other.coeffs.items():
            coeffs[d] = coeffs.get(d, 0) + v
        return Weight(coeffs, self.level + other.level)

    def __sub__(self, other):
        coeffs = dict(self.coeffs)
        for d, v in other.coeffs.items():
            coeffs[d] = coeffs.get(d, 0) - v
        return Weight(coeffs, self.level - other.level)

    def __neg__(self):
        return Weight({d: -v for d, v in self.coeffs.items()}, -self.level)

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.coeffs == other.coeffs
            and self.level == other.level
        )

    def __hash__(self):
        return self._hash

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
            coeffs = {int(d): int(v) for d, v in obj["coeffs"]}
            level = Fraction(obj["level"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError("malformed weight document %r (%s)" % (obj, exc)) from None
        return cls(coeffs, level)


def eps(i):
    """The fundamental weight supported on a single index."""
    return Weight({idx(i): 1})


def weight_super(lam_plus, lam_minus, d, q, m, p, n):
    """Highest weight of the super flavor attached to a partition pair.

    Coefficients: -max(lam^-_r - q, 0) on e(-r) for r <= p, -(lam^-)'_s on
    e(-s+1/2) for s <= q, lam^+_i on e(i) for i <= m and
    max((lam^+)'_j - m, 0) on e(j-1/2) for j <= n, at level d.  Requires
    the hook conditions (lam^+)'_{n+1} <= m and lam^-_{p+1} <= q so that
    nothing is lost to the band.
    """
    cplus = lam_plus.conjugate()
    if cplus.part(n + 1) > m:
        raise ValueError(
            "hook condition violated: (lam+)'_%d = %d > m = %d"
            % (n + 1, cplus.part(n + 1), m)
        )
    if lam_minus.part(p + 1) > q:
        raise ValueError(
            "hook condition violated: lam-_%d = %d > q = %d"
            % (p + 1, lam_minus.part(p + 1), q)
        )
    cminus = lam_minus.conjugate()
    coeffs = {}
    for r in range(1, p + 1):
        coeffs[-2 * r] = -max(lam_minus.part(r) - q, 0)
    for s in range(1, q + 1):
        coeffs[-2 * s + 1] = -cminus.part(s)
    for i in range(1, m + 1):
        coeffs[2 * i] = lam_plus.part(i)
    for j in range(1, n + 1):
        coeffs[2 * j - 1] = max(cplus.part(j) - m, 0)
    return Weight(coeffs, d)


def weight_classical(lam_plus, lam_minus, d, p, n):
    """Highest weight of the classical flavor: conjugate parts on half-odds."""
    cplus = lam_plus.conjugate()
    cminus = lam_minus.conjugate()
    if cplus.part(n + 1):
        raise ValueError("hook condition violated: (lam+)'_%d > 0" % (n + 1,))
    if cminus.part(p + 1):
        raise ValueError("hook condition violated: (lam-)'_%d > 0" % (p + 1,))
    coeffs = {}
    for r in range(1, p + 1):
        coeffs[-2 * r + 1] = -cminus.part(r)
    for i in range(1, n + 1):
        coeffs[2 * i - 1] = cplus.part(i)
    return Weight(coeffs, d)


def weight_wide(lam_plus, lam_minus, d, p, n):
    """Highest weight of the wide flavor via modified Frobenius coordinates."""
    tplus = frobenius_theta(lam_plus, 2 * n + 1)
    tminus = frobenius_theta(lam_minus, 2 * p + 1)
    if tplus[2 * n]:
        raise ValueError("theta(lam+) does not vanish at n+1/2")
    if tminus[2 * p]:
        raise ValueError("theta(lam-) does not vanish at p+1/2")
    coeffs = {}
    for k in range(1, 2 * p + 1):
        coeffs[-k] = -tminus[k - 1]
    for k in range(1, 2 * n + 1):
        coeffs[k] = tplus[k - 1]
    return Weight(coeffs, d)


def one_pq(p, q):
    """The correction weight: +1 on e(-r), r <= p, and -1 on e(-s+1/2), s <= q."""
    coeffs = {}
    for r in range(1, p + 1):
        coeffs[-2 * r] = 1
    for s in range(1, q + 1):
        coeffs[-2 * s + 1] = -1
    return Weight(coeffs)


def unitarizable_weight(gen_lam, p, q, m, n):
    """Unitarizable highest weight attached to a generalized partition.

    Requires lam_{m+1} <= n (when the depth exceeds m) and lam_{d-p} >= -q
    (when d > p).  Returns the level-zero weight for the plain algebra.
    """
    d = gen_lam.depth
    if d > m and gen_lam.part(m + 1) > n:
        raise ValueError(
            "lam_%d = %d > n = %d" % (m + 1, gen_lam.part(m + 1), n)
        )
    if d > p and gen_lam.part(d - p) < -q:
        raise ValueError(
            "lam_%d = %d < -q = %d" % (d - p, gen_lam.part(d - p), -q)
        )
    base = weight_super(gen_lam.plus(), gen_lam.minus(), 0, q, m, p, n)
    shift = one_pq(p, q)
    coeffs = dict(base.coeffs)
    for key, v in shift.coeffs.items():
        coeffs[key] = coeffs.get(key, 0) - d * v
    return Weight(coeffs, 0)


def in_lattice(w, index_set):
    """Membership in the weight lattice of modules over the given flavor.

    True iff the support lies in the index set, coefficients on positive
    indices are nonnegative and coefficients on negative indices are
    nonpositive (the level is unconstrained).
    """
    for dd, v in w.coeffs.items():
        if HalfIndex(dd) not in index_set:
            return False
        if dd > 0 and v < 0:
            return False
        if dd < 0 and v > 0:
            return False
    return True


def hook_correspondence(lam, m, n, k):
    """Matched super/classical weights of one master partition.

    Returns ``(super_weight, classical_weight)`` where the super side lives
    on gl(m|n) indices and the classical side puts the conjugate parts on
    the first k half-odd indices.  Requires lam'_{n+1} <= m and k >= lam_1.
    """
    conj = lam.conjugate()
    if conj.part(n + 1) > m:
        raise ValueError("hook condition violated: lam'_%d = %d > m = %d" % (n + 1, conj.part(n + 1), m))
    if lam.part(1) > k:
        raise ValueError("k = %d too small: lam_1 = %d" % (k, lam.part(1)))
    super_w = weight_super(lam, Partition(), 0, 0, m, 0, n)
    coeffs = {2 * i - 1: conj.part(i) for i in range(1, k + 1) if conj.part(i)}
    return super_w, Weight(coeffs, 0)


def hook_weight_to_partition(w, m, n):
    """Invert the super-side hook weight map (level ignored)."""
    rows = [w(2 * i) for i in range(1, m + 1)]
    cols = [w(2 * j - 1) for j in range(1, n + 1)]
    return partition_from_hook_data(m, n, rows, cols)


def super_weight_to_data(w, q, m, p, n):
    """Recover ``(lam_plus, lam_minus, d)`` from a super-flavor weight."""
    lam_plus = partition_from_hook_data(
        m, n, [w(2 * i) for i in range(1, m + 1)], [w(2 * j - 1) for j in range(1, n + 1)]
    )
    conj_minus = partition_from_hook_data(
        q,
        p,
        [-w(-2 * s + 1) for s in range(1, q + 1)],
        [-w(-2 * r) for r in range(1, p + 1)],
    )
    return lam_plus, conj_minus.conjugate(), w.level
