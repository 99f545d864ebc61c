"""Superalgebra core: basis elements, supercommutator, central extension.

Elements are finite rational combinations of matrix units E_{i,j} plus a
central coefficient; each coefficient is an int when it is integral and a
Fraction otherwise.  The central extension is never a separate type: the
plain bracket and the cocycle-extended bracket are both available on the
same representation, and ``iota`` converts between the two conventions.
All structure constants (and cocycle values) are the integers 0 and ±1.
"""

from .indices import idx
from .weights import Weight, exact_scalar


_SHIFTS = {}


class BasisElement:
    """The matrix unit E_{row,col}."""

    __slots__ = ("row", "col")

    def __init__(self, row, col):
        object.__setattr__(self, "row", idx(row))
        object.__setattr__(self, "col", idx(col))

    def __setattr__(self, name, value):
        raise AttributeError("BasisElement is immutable")

    def __reduce__(self):
        return (BasisElement, (self.row, self.col))

    @property
    def parity(self):
        return self.row.parity ^ self.col.parity

    @property
    def is_diagonal(self):
        return self.row == self.col

    def weight_shift(self):
        """The adjoint weight e(row) - e(col); one shared immutable Weight
        per (row, col)."""
        key = (self.row.doubled, self.col.doubled)
        shift = _SHIFTS.get(key)
        if shift is None:
            coeffs = {key[0]: 1}
            coeffs[key[1]] = coeffs.get(key[1], 0) - 1
            shift = _SHIFTS[key] = Weight(coeffs)
        return shift

    def key(self):
        return (self.row.doubled, self.col.doubled)

    def __eq__(self, other):
        return (
            isinstance(other, BasisElement)
            and self.row == other.row
            and self.col == other.col
        )

    def __hash__(self):
        return hash((self.row.doubled, self.col.doubled))

    def __repr__(self):
        def show(h):
            d = h.doubled
            return "%d" % (d // 2) if d % 2 == 0 else "%d/2" % d

        return "E(%s,%s)" % (show(self.row), show(self.col))


def E(i, j):
    return BasisElement(i, j)


class AlgebraElement:
    """A rational combination of matrix units plus a central coefficient.

    ``terms`` maps (doubled row, doubled col) to a nonzero coefficient and
    ``central`` is the coefficient of K; every coefficient is an int when
    it is integral and a Fraction otherwise, whatever exact rationals
    (ints, Fractions, "p/q" strings) it was built from.
    """

    __slots__ = ("terms", "central")

    def __init__(self, terms=None, central=0):
        clean = {}
        for key, val in (terms or {}).items():
            if isinstance(key, BasisElement):
                key = key.key()
            val = exact_scalar(val)
            if key in clean:
                val = exact_scalar(clean[key] + val)
            if val:
                clean[key] = val
            else:
                clean.pop(key, None)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "central", exact_scalar(central))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return (AlgebraElement, (dict(self.terms), self.central))

    @classmethod
    def basis(cls, elem, coeff=1):
        return cls({elem: coeff})

    def is_zero(self):
        return not self.terms and not self.central

    def __add__(self, other):
        terms = dict(self.terms)
        for key, v in other.terms.items():
            terms[key] = terms.get(key, 0) + v
        return AlgebraElement(terms, self.central + other.central)

    def __sub__(self, other):
        terms = dict(self.terms)
        for key, v in other.terms.items():
            terms[key] = terms.get(key, 0) - v
        return AlgebraElement(terms, self.central - other.central)

    def __mul__(self, scalar):
        scalar = exact_scalar(scalar)
        return AlgebraElement(
            {key: scalar * v for key, v in self.terms.items()}, scalar * self.central
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.terms == other.terms
            and self.central == other.central
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.central))

    def __repr__(self):
        bits = ["%s*E(%d,%d)" % (v, r, c) for (r, c), v in sorted(self.terms.items())]
        if self.central:
            bits.append("%s*K" % (self.central,))
        return "AlgebraElement(%s)" % (" + ".join(bits) or "0")


def _sign(exponent):
    return -1 if exponent % 2 else 1


def bracket_units(r1, c1, r2, c2):
    """Structure constants of [E_{r1,c1}, E_{r2,c2}] as a term dict."""
    out = {}
    if c1 == r2:
        out[(r1, c2)] = out.get((r1, c2), 0) + 1
    if c2 == r1:
        s = _sign(((r1 & 1) ^ (c1 & 1)) * ((r2 & 1) ^ (c2 & 1)))
        out[(r2, c1)] = out.get((r2, c1), 0) - s
    return out


def cocycle_units(r1, c1, r2, c2):
    """tau(E_{r1,c1}, E_{r2,c2}) = Str([J, E1] E2) with J = -sum_{r<0} E_r."""
    if c1 != r2 or r1 != c2:
        return 0
    factor = (1 if c1 < 0 else 0) - (1 if r1 < 0 else 0)
    return factor * _sign(r1 & 1)


def supercommutator(x, y, central=False):
    """Supercommutator of two elements; adds the cocycle term if asked.

    The central coefficients of the inputs never contribute (K is central),
    and with ``central=False`` the result has central coefficient zero.
    """
    terms = {}
    cent = 0
    for (r1, c1), a in x.terms.items():
        for (r2, c2), b in y.terms.items():
            ab = a * b
            for key, coeff in bracket_units(r1, c1, r2, c2).items():
                terms[key] = terms.get(key, 0) + ab * coeff
            if central:
                tau = cocycle_units(r1, c1, r2, c2)
                if tau:
                    cent += ab * tau
    return AlgebraElement(terms, cent)


def supertrace(x):
    """Supertrace of the matrix-unit part: sum of (-1)^{parity} diagonal."""
    out = 0
    for (r, c), v in x.terms.items():
        if r == c:
            out += v * _sign(r & 1)
    return exact_scalar(out)


def iota(x):
    """Convert a plain-plus-central element to the extended convention.

    iota(A + cK) = A + (Str(JA) + c) K with J = -sum_{r<0} E_r; a bracket
    isomorphism onto the centrally extended algebra.
    """
    extra = 0
    for (r, c), v in x.terms.items():
        if r == c and r < 0:
            extra -= v * _sign(r & 1)
    return AlgebraElement(dict(x.terms), x.central + extra)


def tau_index(d):
    """1 for negative integer indices, 0 otherwise (doubled argument)."""
    return 1 if (d < 0 and d % 2 == 0) else 0


def star_omega(x):
    """The *-structure: E_{i,j} -> (-1)^{tau_i + tau_j} E_{j,i}, K -> K.

    Antilinear on complex scalars; coefficients here are rational, so
    conjugation is the identity.
    """
    terms = {}
    for (r, c), v in x.terms.items():
        s = _sign(tau_index(r) + tau_index(c))
        terms[(c, r)] = terms.get((c, r), 0) + s * v
    return AlgebraElement(terms, x.central)


def off_diagonal_units(index_set):
    """The units E_{a,b}, a != b, row by row in the index order."""
    members = list(index_set)
    return [BasisElement(a, b) for a in members for b in members if a != b]


def simple_raising_ops(index_set):
    """Simple raising operators: one per consecutive pair of the total order."""
    return [BasisElement(a, b) for a, b in index_set.simple_pairs()]
