"""Half-integer basis indices and flavored index sets.

Indices live in half of the nonzero integers: an index ``i`` is stored as
the even/odd integer ``2i`` (field ``doubled``), which keeps half-integers
exact.  Integer indices are even (parity 0), half-odd-integer indices are
odd (parity 1).

Three finite index-set flavors are supported:

* ``wide``      -- all half-integers i with -p <= i <= n, numeric order;
* ``classical`` -- half-odd integers strictly between -p and n, numeric
  order (a realization of gl(p+n) on a purely odd space);
* ``super``     -- integers in [-p, m] joined with half-odds in (-q, n),
  with the interleaved total order

      -p < ... < -1 < -q+1/2 < ... < -1/2 < 1 < ... < m < 1/2 < ... < n-1/2.

A naive numeric sort is wrong for the super flavor, so indices have no
order of their own: the set's iteration order is the only order.
"""

from fractions import Fraction


class HalfIndex:
    """A nonzero half-integer index, stored doubled."""

    __slots__ = ("doubled",)

    def __init__(self, doubled):
        if not isinstance(doubled, int) or doubled == 0:
            raise ValueError("doubled index must be a nonzero integer")
        object.__setattr__(self, "doubled", doubled)

    def __setattr__(self, name, value):
        raise AttributeError("HalfIndex is immutable")

    def __reduce__(self):
        return (HalfIndex, (self.doubled,))

    @property
    def parity(self):
        """0 for integer indices, 1 for half-odd-integer indices."""
        return self.doubled & 1

    @property
    def value(self):
        return Fraction(self.doubled, 2)

    def __eq__(self, other):
        return isinstance(other, HalfIndex) and self.doubled == other.doubled

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        d = self.doubled
        return "idx(%d)" % (d // 2) if d % 2 == 0 else "idx(%d/2)" % d


def idx(v):
    """HalfIndex from an int, Fraction or HalfIndex."""
    if isinstance(v, HalfIndex):
        return v
    f = Fraction(v)
    d = f * 2
    if d.denominator != 1:
        raise ValueError("not a half-integer: %r" % (v,))
    return HalfIndex(int(d))


class IndexSet:
    """A finite index set with its flavor-specific total order."""

    __slots__ = ("flavor", "p", "q", "m", "n", "_members", "_doubled")

    def __init__(self, flavor, p=0, q=0, m=0, n=1):
        if flavor not in ("wide", "classical", "super"):
            raise ValueError("unknown flavor %r" % (flavor,))
        if min(p, q, m, n) < 0 or n < 1:
            raise ValueError("need p, q, m >= 0 and n >= 1")
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_members", tuple(self._enumerate()))
        object.__setattr__(self, "_doubled", frozenset(h.doubled for h in self._members))

    def __setattr__(self, name, value):
        raise AttributeError("IndexSet is immutable")

    def __reduce__(self):
        return (IndexSet, (self.flavor, self.p, self.q, self.m, self.n))

    @classmethod
    def classical(cls, p, n):
        return cls("classical", p=p, n=n)

    @classmethod
    def gl(cls, q, m, p, n):
        """The super flavor realizing gl(p+m|q+n)."""
        return cls("super", p=p, q=q, m=m, n=n)

    def _enumerate(self):
        if self.flavor == "wide":
            return [HalfIndex(d) for d in range(-2 * self.p, 2 * self.n + 1) if d]
        if self.flavor == "classical":
            return [HalfIndex(d) for d in range(-2 * self.p + 1, 2 * self.n, 2)]
        neg_int = [HalfIndex(d) for d in range(-2 * self.p, 0, 2)]
        neg_half = [HalfIndex(d) for d in range(-2 * self.q + 1, 0, 2)]
        pos_int = [HalfIndex(d) for d in range(2, 2 * self.m + 1, 2)]
        pos_half = [HalfIndex(d) for d in range(1, 2 * self.n, 2)]
        return neg_int + neg_half + pos_int + pos_half

    def __iter__(self):
        """Iterate in the flavor's total order."""
        return iter(self._members)

    def __len__(self):
        return len(self._members)

    def __contains__(self, index):
        return index.doubled in self._doubled

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.flavor == other.flavor
            and (self.p, self.q, self.m, self.n) == (other.p, other.q, other.m, other.n)
        )

    def __hash__(self):
        return hash((self.flavor, self.p, self.q, self.m, self.n))

    def simple_pairs(self):
        """Consecutive index pairs (a, b) with a immediately below b."""
        mem = self._members
        return [(mem[i], mem[i + 1]) for i in range(len(mem) - 1)]

    def require_polynomial(self, what):
        """Refuse, naming ``what``, unless the flavor is a polynomial one:
        super with p = q = 0, or classical with p = 0."""
        if self.flavor == "super":
            if self.p or self.q:
                raise ValueError("%s need p = q = 0" % what)
        elif self.flavor == "classical":
            if self.p:
                raise ValueError("%s need p = 0" % what)
        else:
            raise ValueError("unsupported flavor for %s" % what)

    def params(self):
        if self.flavor == "super":
            return {"q": self.q, "m": self.m, "p": self.p, "n": self.n}
        return {"p": self.p, "n": self.n}

    def __repr__(self):
        if self.flavor == "super":
            return "IndexSet.gl(q=%d, m=%d, p=%d, n=%d)" % (self.q, self.m, self.p, self.n)
        return "IndexSet.%s(p=%d, n=%d)" % (self.flavor, self.p, self.n)
