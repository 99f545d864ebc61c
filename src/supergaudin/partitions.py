"""Partitions, generalized partitions and the hook-tableau oracle."""

from functools import lru_cache
from types import MappingProxyType

ORACLE_BUDGET = 8


class Partition:
    """An integer partition: weakly decreasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        return (Partition, (self.parts,))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)

    @property
    def size(self):
        return sum(self.parts)

    def part(self, i):
        """One-based part, zero beyond the length."""
        if i < 1:
            raise IndexError("parts are one-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self):
        """Transpose of the Young diagram: (lam')_j = #{i : lam_i >= j}."""
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def hook_ok(self, m, n):
        """The (m|n)-hook condition lam'_{n+1} <= m."""
        return self.conjugate().part(n + 1) <= m

    def check_hook(self, m, n, name):
        """Refuse, naming the partition ``name``, when ``hook_ok`` fails."""
        if not self.hook_ok(m, n):
            raise ValueError("hook condition violated: %s = %r lies outside the (%d|%d) hook" % (name, self, m, n))


def all_partitions(max_size, min_size=0):
    """All partitions with min_size <= |lam| <= max_size, by size then lex."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    for size in range(min_size, max_size + 1):
        rec(size, size if size else 1, [])
    return out


def frobenius_theta(lam, length):
    """Modified Frobenius coordinates (theta_{1/2}, theta_1, theta_{3/2}, ...).

    theta_{i-1/2} = max(lam'_i - i + 1, 0) and theta_i = max(lam_i - i, 0),
    truncated to ``length`` entries.
    """
    if length < 1:
        raise ValueError("length must be positive")
    conj = lam.conjugate()
    out = []
    for k in range(1, length + 1):
        i = (k + 1) // 2
        if k % 2:
            out.append(max(conj.part(i) - i + 1, 0))
        else:
            out.append(max(lam.part(i) - i, 0))
    return out


class GeneralizedPartition:
    """Weakly decreasing integers of a fixed positive depth."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise ValueError("depth must be positive")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralizedPartition is immutable")

    def __reduce__(self):
        return (GeneralizedPartition, (self.parts,))

    @property
    def depth(self):
        return len(self.parts)

    def part(self, i):
        if not 1 <= i <= len(self.parts):
            raise IndexError("depth-%d generalized partition has no part %d" % (len(self.parts), i))
        return self.parts[i - 1]

    def plus(self):
        """The partition of the positive parts."""
        return Partition(max(x, 0) for x in self.parts)

    def minus(self):
        """The partition of the negated negative parts, reversed."""
        return Partition(max(-x, 0) for x in reversed(self.parts))

    def __eq__(self, other):
        return isinstance(other, GeneralizedPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(("gen", self.parts))

    def __repr__(self):
        return "GeneralizedPartition(%r)" % (list(self.parts),)


def _cells(shape):
    return [(r, c) for r, width in enumerate(shape.parts) for c in range(width)]


@lru_cache(maxsize=None)
def hook_tableau_contents(shape, m, n):
    """Content multiset of all (m|n)-hook semistandard tableaux of a shape.

    Letters are 0..m-1 (even) then m..m+n-1 (odd), all even < all odd.
    Entries weakly increase along rows and columns; even letters cannot
    repeat within a column, odd letters cannot repeat within a row.
    Returns a read-only mapping of content tuples (counts per letter) to
    tableau counts: the result is cached and shared by every caller.
    Brute-force enumeration, capped at ORACLE_BUDGET cells.
    """
    if shape.size > ORACLE_BUDGET:
        raise ValueError("oracle budget exceeded: |shape| = %d > %d" % (shape.size, ORACLE_BUDGET))
    cells = _cells(shape)
    counts = {}
    grid = {}

    def fill(pos, content):
        if pos == len(cells):
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        r, c = cells[pos]
        left = grid.get((r, c - 1), 0)
        above = grid.get((r - 1, c), 0)
        for v in range(max(left, above), m + n):
            if v == left and v >= m and c > 0:
                continue
            if v == above and v < m and r > 0:
                continue
            grid[(r, c)] = v
            content[v] += 1
            fill(pos + 1, content)
            content[v] -= 1
        grid.pop((r, c), None)

    fill(0, [0] * (m + n))
    return MappingProxyType(counts)


def partition_from_hook_data(m, n, rows, col_excess):
    """Rebuild a partition from its (m|n)-hook weight data.

    ``rows`` are the first m parts and ``col_excess[j] = max(lam'_j - m, 0)``
    for j = 1..n.  Valid only under the hook condition lam'_{n+1} <= m.
    """
    rows = [int(x) for x in rows]
    tail = Partition(col_excess).conjugate()
    parts = rows + list(tail.parts)
    return Partition(parts)
