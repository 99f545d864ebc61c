"""Weight-graded module realizations with exact action matrices.

Every module exposes the same surface: a weight-to-dimension map and, for
every matrix unit E_{a,b} of its index set, an exact block matrix from
each weight space to the shifted one.  Diagonal units act by the weight,
so only off-diagonal blocks are ever stored.

Vectors inside a weight space carry the parity of their weight (the sum of
the coefficients on half-odd indices, mod 2); this is what feeds the
Koszul signs of tensor products.
"""

from fractions import Fraction

from .algebra import BasisElement, star_omega, supercommutator, AlgebraElement
from .indices import HalfIndex, IndexSet
from .linalg import ColumnSolver, SpanBuilder, nullspace, rref
from .partitions import Partition
from .weights import Weight, eps, weight_classical, weight_super


class WeightModule:
    """Base class; subclasses fill dims and off-diagonal blocks."""

    index_set: IndexSet
    level: Fraction
    provenance: str

    def weights(self):
        return sorted(self._dims, key=Weight.sort_key)

    def dim(self, w):
        return self._dims.get(w, 0)

    @property
    def total_dim(self):
        return sum(self._dims.values())

    def has_weight(self, w):
        return w in self._dims

    def act(self, gen, w):
        """Block of E_{gen} from the w-space; (target_weight, matrix) or None.

        Diagonal units act by the scalar w(E_a); off-diagonal blocks come
        from the subclass.  A missing or empty target gives None.  The
        matrix is a fresh copy, so callers may mutate it.
        """
        res = self._act(gen, w)
        return None if res is None else (res[0], [row[:] for row in res[1]])

    def _act(self, gen, w):
        # act without the copy: the block may be a cached list, never mutate
        if gen.row not in self.index_set or gen.col not in self.index_set:
            raise ValueError("%r is outside %r" % (gen, self.index_set))
        d = self._dims.get(w, 0)
        if not d:
            return None
        if gen.is_diagonal:
            c = w(gen.row)
            return (w, [[Fraction(c) if i == j else Fraction(0) for j in range(d)] for i in range(d)])
        target = w + gen.weight_shift()
        if target not in self._dims:
            return None
        block = self._block(gen, w)
        if block is None:
            return None
        return (target, block)


class NaturalModule(WeightModule):
    """The natural module: one basis vector per index, weight e(i)."""

    provenance = "natural"

    def __init__(self, index_set):
        self.index_set = index_set
        self.level = Fraction(0)
        self._dims = {eps(h.value): 1 for h in index_set}

    def _block(self, gen, w):
        # E_{a,b} v_r = delta_{b,r} v_a
        if w == eps(gen.col.value):
            return [[1]]
        return None


class TensorModule(WeightModule):
    """Tensor product with Koszul signs; weights add, levels add.

    Immutable once built: duality tensors are memoized process-wide (see
    ``polynomial_tensor``), so one tensor serves many callers.  Its block
    caches and ``pair_store`` fill lazily but are never handed out for
    mutation.
    """

    provenance = "tensor"

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        iset = factors[0].index_set
        for f in factors:
            if f.index_set != iset:
                raise ValueError("tensor factors must share an index set")
        init = object.__setattr__
        init(self, "index_set", iset)
        init(self, "factors", tuple(factors))
        init(self, "level", sum((f.level for f in factors), Fraction(0)))
        # Prefix-major enumeration: prefixes in order, then each factor's
        # weights in sort_key order (``weights()`` is sorted), then k.  The
        # list is therefore sorted by the slot-wise (sort_key, k) order, and
        # so is every weight's share of it.  Each (prefix weight, factor
        # weight) sum is formed once.
        stack = [((), Weight({}, 0))]
        for f in factors:
            fspaces = [(fw, [(fw, k) for k in range(f.dim(fw))]) for fw in f.weights()]
            sums = {}
            nxt = []
            for prefix, tot in stack:
                row = sums.get(tot)
                if row is None:
                    row = sums[tot] = [(tot + fw, items) for fw, items in fspaces]
                for s, items in row:
                    for item in items:
                        nxt.append((prefix + (item,), s))
            stack = nxt
        basis = {}
        for tup, tot in stack:
            basis.setdefault(tot, []).append(tup)
        init(self, "_basis", basis)
        init(self, "_dims", {w: len(v) for w, v in basis.items()})
        init(
            self,
            "_index",
            {w: {tup: i for i, tup in enumerate(tups)} for w, tups in basis.items()},
        )
        init(self, "_sparse_cache", {})
        init(self, "_sum_cache", {})
        # z-independent two-site blocks, filled by gaudin (see its docstring)
        init(self, "pair_store", {})

    def __setattr__(self, name, value):
        raise AttributeError("TensorModule is immutable")

    def basis_tuples(self, w):
        return list(self._basis.get(w, ()))

    def slot_act_sparse(self, gen, slot, w):
        """Column-sparse block of the one-slot operator gen^{(slot)}.

        Returns (target_weight, nrows, columns) with one [(row, value), ...]
        list per source basis column, or None if the operator vanishes.
        The Koszul sign is (-1) to the parity of gen times the total parity
        of the factors before the slot.  A diagonal unit E_a acts on each
        column by the scalar fw(E_a) of its slot weight fw.  The result is
        cached and shared: never mutate it.
        """
        key = (gen.key(), slot, w)
        cache = self._sparse_cache
        if key in cache:
            return cache[key]
        src = self._basis.get(w)
        result = None
        if src and gen.is_diagonal:
            a = gen.row
            if a not in self.index_set:
                raise ValueError("%r is outside %r" % (gen, self.index_set))
            cols = []
            for c, tup in enumerate(src):
                val = tup[slot][0](a)
                cols.append([(c, val)] if val else [])
            if any(cols):
                result = (w, len(src), cols)
        elif src:
            target = w + gen.weight_shift()
            tindex = self._index.get(target)
            if tindex is not None:
                factor = self.factors[slot]
                odd = gen.parity
                # per factor weight, one list per factor column of its
                # nonzero entries as (target item, value); None if no block
                by_weight = {}
                cols = []
                wrote = False
                for tup in src:
                    fw, k = tup[slot]
                    if fw not in by_weight:
                        res = factor._act(gen, fw)
                        if res is None:
                            by_weight[fw] = None
                        else:
                            ftarget, fblock = res
                            by_weight[fw] = [
                                [((ftarget, r), row[j]) for r, row in enumerate(fblock) if row[j]]
                                for j in range(len(fblock[0]))
                            ]
                    fcols = by_weight[fw]
                    entries = []
                    if fcols is not None and fcols[k]:
                        sign = -1 if odd and sum(pw.parity for pw, _ in tup[:slot]) & 1 else 1
                        head, tail = tup[:slot], tup[slot + 1 :]
                        for item, val in fcols[k]:
                            entries.append((tindex[head + (item,) + tail], sign * val))
                        wrote = True
                    cols.append(entries)
                if wrote:
                    result = (target, len(tindex), cols)
        cache[key] = result
        return result

    def slot_act(self, gen, slot, w):
        """Dense block of gen^{(slot)}; (target_weight, fresh matrix) or None."""
        sparse = self.slot_act_sparse(gen, slot, w)
        if sparse is None:
            return None
        target, nrows, cols = sparse
        block = [[0] * len(cols) for _ in range(nrows)]
        for c, entries in enumerate(cols):
            for r, val in entries:
                block[r][c] += val
        return target, block

    def apply_diagonal_sparse(self, gen, w, vec):
        """Apply the diagonal action of gen to one vector via sparse blocks."""
        target = w if gen.is_diagonal else w + gen.weight_shift()
        out = None
        for slot in range(len(self.factors)):
            sparse = self.slot_act_sparse(gen, slot, w)
            if sparse is None:
                continue
            _, nrows, cols = sparse
            if out is None:
                out = [0] * nrows
            for c, v in enumerate(vec):
                if v:
                    for r, val in cols[c]:
                        out[r] += val * v
        if out is None or not any(out):
            return None
        return target, out

    def _block(self, gen, w):
        # diagonal action Delta(gen) = sum over slots
        key = (gen.key(), w)
        if key in self._sum_cache:
            return self._sum_cache[key]
        total = None
        for slot in range(len(self.factors)):
            sparse = self.slot_act_sparse(gen, slot, w)
            if sparse is None:
                continue
            _, nrows, cols = sparse
            if total is None:
                total = [[0] * len(cols) for _ in range(nrows)]
            for c, entries in enumerate(cols):
                for r, val in entries:
                    total[r][c] += val
        self._sum_cache[key] = total
        return total


class ExplicitModule(WeightModule):
    """A module given by explicit dims and off-diagonal blocks.

    Immutable once built: polynomial modules are memoized process-wide and
    each one is the parent of the larger shapes built from it, so a
    mutation would reach every descendant.  ``highest_weight``, ``shape``
    and ``depth`` describe the realization when it has them (else None).
    """

    def __init__(
        self,
        index_set,
        level,
        dims,
        blocks,
        provenance,
        labels=None,
        highest_weight=None,
        shape=None,
        depth=None,
    ):
        init = object.__setattr__
        init(self, "index_set", index_set)
        init(self, "level", Fraction(level))
        init(self, "_dims", {w: d for w, d in dims.items() if d})
        init(self, "_blocks", blocks)
        init(self, "provenance", provenance)
        init(self, "labels", labels or {})
        init(self, "highest_weight", highest_weight)
        init(self, "shape", shape)
        init(self, "depth", depth)

    def __setattr__(self, name, value):
        raise AttributeError("ExplicitModule is immutable")

    def _block(self, gen, w):
        return self._blocks.get((gen.key(), w))


def tensor_product(factors):
    return TensorModule(factors)


def _position(index_set):
    return {h.doubled: i for i, h in enumerate(index_set)}


def deficit_height(index_set, xi, w):
    """Height of xi - w in the simple-root cone; None if outside."""
    members = list(index_set)
    diff = xi - w
    total = 0
    partial = 0
    for h in members[:-1]:
        partial += diff(h)
        if partial < 0:
            return None
        total += partial
    partial += diff(members[-1])
    if partial != 0 or diff.level != 0:
        return None
    return total


class _VermaBuilder:
    """PBW machinery for ordinary (full Borel) Verma modules.

    Monomials are non-decreasing tuples of lowering-generator indices in a
    canonical order (root height, then row position); products are applied
    left to right onto the highest weight vector, so position 0 acts last.
    Normal ordering is the usual straightening recursion, memoized.
    Coefficients are plain ints: the structure constants are integers and
    weight coefficients are integers, so no Fraction is ever needed.
    """

    def __init__(self, index_set, xi):
        self.index_set = index_set
        self.xi = xi
        pos = _position(index_set)
        members = list(index_set)
        lowering = []
        for bi, b in enumerate(members):
            for ai, a in enumerate(members):
                if ai > bi:
                    lowering.append((ai - bi, ai, (a.doubled, b.doubled)))
        lowering.sort()
        self.gens = [key for _, _, key in lowering]
        self.gen_index = {key: i for i, key in enumerate(self.gens)}
        self.gen_parity = [((r & 1) ^ (c & 1)) for r, c in self.gens]
        self.gen_shift = [
            BasisElement(HalfIndex(r), HalfIndex(c)).weight_shift() for r, c in self.gens
        ]
        self.pos = pos
        self._act_memo = {}
        self._ins_memo = {}
        self._bracket_memo = {}

    def mono_weight(self, mono):
        w = self.xi
        for g in mono:
            w = w + self.gen_shift[g]
        return w

    def _bracket(self, key1, key2):
        memo_key = (key1, key2)
        if memo_key not in self._bracket_memo:
            x = AlgebraElement({key1: 1})
            y = AlgebraElement({key2: 1})
            terms = supercommutator(x, y).terms
            self._bracket_memo[memo_key] = {k: int(v) for k, v in terms.items() if v}
        return self._bracket_memo[memo_key]

    def _elem_act(self, terms, mono):
        out = {}
        for (r, c), coeff in terms.items():
            for mm, v in self.act((r, c), mono).items():
                val = coeff * v
                if val:
                    out[mm] = out.get(mm, 0) + val
        return {k: v for k, v in out.items() if v}

    def act(self, key, mono):
        """Apply the matrix unit with the given (row, col) key to a monomial.

        Returns a dict monomial -> coefficient in the PBW basis.
        """
        memo_key = (key, mono)
        cached = self._act_memo.get(memo_key)
        if cached is not None:
            return cached
        r, c = key
        if not mono:
            if r == c:
                val = self.xi(r)
                out = {(): val} if val else {}
            elif self.pos[r] > self.pos[c]:
                out = {(self.gen_index[key],): 1}
            else:
                out = {}
        else:
            head, rest = mono[0], mono[1:]
            hkey = self.gens[head]
            out = dict(self._elem_act(self._bracket(key, hkey), rest))
            sign = -1 if (((r & 1) ^ (c & 1)) and self.gen_parity[head]) else 1
            for mm, v in self.act(key, rest).items():
                for m2, v2 in self.insert(head, mm).items():
                    val = sign * v * v2
                    if val:
                        out[m2] = out.get(m2, 0) + val
            out = {k: v for k, v in out.items() if v}
        self._act_memo[memo_key] = out
        return out

    def insert(self, g, mono):
        """Normal-ordered product of generator g with an ordered monomial."""
        if not mono or g < mono[0]:
            return {(g,) + mono: 1}
        if g == mono[0]:
            if self.gen_parity[g]:
                return {}
            return {(g,) + mono: 1}
        memo_key = (g, mono)
        cached = self._ins_memo.get(memo_key)
        if cached is not None:
            return cached
        head, rest = mono[0], mono[1:]
        out = dict(self._elem_act(self._bracket(self.gens[g], self.gens[head]), rest))
        sign = -1 if (self.gen_parity[g] and self.gen_parity[head]) else 1
        for mm, v in self.insert(g, rest).items():
            for m2, v2 in self.insert(head, mm).items():
                val = sign * v * v2
                if val:
                    out[m2] = out.get(m2, 0) + val
        out = {k: v for k, v in out.items() if v}
        self._ins_memo[memo_key] = out
        return out

    def monomials(self, depth):
        """All ordered monomials of length <= depth (odd generators square to 0)."""
        out = [()]
        frontier = [()]
        for _ in range(depth):
            nxt = []
            for mono in frontier:
                start = mono[-1] if mono else 0
                for g in range(start, len(self.gens)):
                    if self.gen_parity[g] and mono and mono[-1] == g:
                        continue
                    nxt.append(mono + (g,))
            out.extend(nxt)
            frontier = nxt
        return out


class _TruncatedVerma(WeightModule):
    """Span of the PBW monomials of length <= depth.

    Weight spaces whose deficit height exceeds the depth hold only part of
    the true Verma weight space; those are listed (per the contract) but
    any action query whose result cannot be represented in the stored
    basis raises instead of silently dropping terms.
    """

    provenance = "verma"

    def __init__(self, index_set, xi, depth):
        init = object.__setattr__
        init(self, "index_set", index_set)
        init(self, "level", xi.level)
        init(self, "highest_weight", xi)
        init(self, "depth", depth)
        builder = _VermaBuilder(index_set, xi)
        init(self, "_builder", builder)
        by_weight = {}
        for mono in builder.monomials(depth):
            by_weight.setdefault(builder.mono_weight(mono), []).append(mono)
        labels = {w: sorted(m) for w, m in by_weight.items()}
        init(self, "labels", labels)
        init(self, "_dims", {w: len(m) for w, m in labels.items()})
        init(
            self,
            "_index",
            {w: {mono: i for i, mono in enumerate(monos)} for w, monos in labels.items()},
        )
        complete = set()
        for w in labels:
            h = deficit_height(index_set, xi, w)
            if h is not None and h <= depth:
                complete.add(w)
        init(self, "complete", frozenset(complete))
        init(self, "_block_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("_TruncatedVerma is immutable")

    def _act(self, gen, w):
        # the base class treats a missing target as zero, which is wrong
        # when the target was cut off by the depth truncation: probe the
        # straightened action and refuse when anything nonzero leaves
        if gen.row not in self.index_set or gen.col not in self.index_set:
            raise ValueError("%r is outside %r" % (gen, self.index_set))
        if w not in self._dims or gen.is_diagonal:
            return WeightModule._act(self, gen, w)
        target = w + gen.weight_shift()
        if target not in self._dims:
            for mono in self.labels[w]:
                if self._builder.act(gen.key(), mono):
                    raise ValueError(
                        "action of %r on the %r space leaves the depth-%d band"
                        % (gen, w, self.depth)
                    )
            return None
        return WeightModule._act(self, gen, w)

    def _block(self, gen, w):
        key = (gen.key(), w)
        if key in self._block_cache:
            return self._block_cache[key]
        target = w + gen.weight_shift()
        tind = self._index.get(target)
        block = None
        if tind is not None:
            monos = self.labels[w]
            block = [[Fraction(0)] * len(monos) for _ in range(len(tind))]
            wrote = False
            for col, mono in enumerate(monos):
                for mm, v in self._builder.act(gen.key(), mono).items():
                    row = tind.get(mm)
                    if row is None:
                        raise ValueError(
                            "action of %r on the %r space leaves the depth-%d band"
                            % (gen, w, self.depth)
                        )
                    block[row][col] += v
                    wrote = wrote or bool(v)
            if not wrote:
                block = None
        self._block_cache[key] = block
        return block


def verma_truncated(index_set, xi, depth):
    """Ordinary Verma module spanned by lowering monomials of length <= depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative, got %d" % depth)
    return _TruncatedVerma(index_set, xi, depth)


def gram_matrix(verma, w):
    """Contravariant form of the PBW basis of one Verma weight space.

    <M v | N v> = the coefficient of the empty monomial in omega(M) N v,
    where omega reverses the monomial and transposes each factor with the
    star-structure signs.  For each right monomial N the partial states
    omega(M[:t]) N v are memoized by the prefix M[:t]: the sorted
    monomials of a weight space share prefixes, so each state is computed
    once and every left monomial only extends the longest stored prefix.
    The arithmetic is the same exact arithmetic as letter by letter.
    """
    builder = verma._builder
    monos = verma.labels[w]
    omegas = [
        {k: int(v) for k, v in star_omega(AlgebraElement({key: 1})).terms.items()}
        for key in builder.gens
    ]
    gram = [[Fraction(0)] * len(monos) for _ in range(len(monos))]
    for j, right in enumerate(monos):
        states = {(): {right: 1}}
        for i, left in enumerate(monos):
            cur = states[()]
            for t in range(1, len(left) + 1):
                prefix = left[:t]
                nxt = states.get(prefix)
                if nxt is None:
                    nxt = {}
                    for mono, coeff in cur.items():
                        for mm, v in builder._elem_act(omegas[left[t - 1]], mono).items():
                            val = coeff * v
                            if val:
                                nxt[mm] = nxt.get(mm, 0) + val
                    states[prefix] = nxt
                cur = nxt
                if not cur:
                    break
            gram[i][j] = Fraction(cur.get((), 0))
    return gram


def is_psd(gram):
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    Uses the alternating-sign test on det(tI - G): all eigenvalues are
    nonnegative iff (-1)^(n-k) c_k >= 0 for every coefficient.
    """
    from .linalg import charpoly

    p = charpoly(gram)
    n = len(p) - 1
    return all(((-1) ** (n - k)) * p[k] >= 0 for k in range(n + 1))


def _is_dominant_classical(index_set, xi):
    members = list(index_set)
    vals = [xi(h) for h in members]
    return all(a >= b for a, b in zip(vals, vals[1:])) and all(
        isinstance(v, int) for v in vals
    )


def _is_unitarizable_super(index_set, xi):
    from .weights import unitarizable_weight
    from .partitions import GeneralizedPartition

    from .partitions import partition_from_hook_data

    q, m, p, n = index_set.q, index_set.m, index_set.p, index_set.n
    plus_rows = [xi(2 * i) for i in range(1, m + 1)]
    plus_cols = [xi(2 * j - 1) for j in range(1, n + 1)]
    top = sum(abs(v) for v in xi.coeffs.values()) + q + p + 1
    for d in range(1, top + max(m, 1) * (n + 1) + 2):
        # coefficients carry -<lam^-_r - q> - d on e(-r) and -(lam^-)'_s + d
        # on e(-s+1/2); a wrong d shows up as negative reconstructed data
        minus_rows = [d - xi(-2 * s + 1) for s in range(1, q + 1)]
        minus_cols = [-xi(-2 * r) - d for r in range(1, p + 1)]
        if any(x < 0 for x in minus_rows) or any(x < 0 for x in minus_cols):
            continue
        try:
            lam_plus = partition_from_hook_data(m, n, plus_rows, plus_cols)
            lam_minus = partition_from_hook_data(q, p, minus_rows, minus_cols).conjugate()
        except ValueError:
            continue
        if len(lam_plus) + len(lam_minus) > d:
            continue
        parts = list(lam_plus.parts) + [0] * (d - len(lam_plus) - len(lam_minus)) + [
            -x for x in reversed(lam_minus.parts)
        ]
        try:
            gen = GeneralizedPartition(parts)
            cand = unitarizable_weight(gen, p, q, m, n)
        except (ValueError, IndexError):
            continue
        if cand.coeffs == xi.coeffs:
            return True
    return False


def irreducible_truncated(index_set, xi, depth):
    """Irreducible quotient of the truncated Verma by the Gram radical.

    Accepts unitarizable super-flavor weights and dominant-integral
    classical weights; anything else is rejected (the radical is not known
    to cut out the irreducible there).
    """
    if any(not isinstance(v, int) for v in xi.coeffs.values()):
        raise ValueError("highest weight must be integral")
    if index_set.flavor == "classical":
        if not _is_dominant_classical(index_set, xi):
            raise ValueError("classical flavor needs a dominant integral weight")
    elif index_set.flavor == "super":
        if not _is_unitarizable_super(index_set, xi):
            raise ValueError("super flavor needs a unitarizable weight")
    else:
        raise ValueError("unsupported flavor for irreducible realization")
    verma = verma_truncated(index_set, xi, depth)
    # only weight spaces of deficit height <= depth hold the full Verma
    # space; quotient dimensions elsewhere would be wrong
    full = [w for w in verma.weights() if w in verma.complete]
    grams = {w: gram_matrix(verma, w) for w in full}
    pivots = {}
    radicals = {}
    for w, g in grams.items():
        red, piv = rref(g)
        pivots[w] = piv
        radicals[w] = nullspace(g, len(g))
    dims = {w: len(p) for w, p in pivots.items() if p}
    solvers = {}
    for w in dims:
        tdim = verma.dim(w)
        columns = [
            [Fraction(1) if r == p else Fraction(0) for r in range(tdim)]
            for p in pivots[w]
        ] + [[Fraction(x) for x in vec] for vec in radicals[w]]
        solvers[w] = ColumnSolver(columns, nrows=tdim)
    blocks = {}
    members = list(index_set)
    for a in members:
        for b in members:
            if a == b:
                continue
            gen = BasisElement(a, b)
            for w in dims:
                target = w + gen.weight_shift()
                if target not in dims:
                    continue
                res = verma.act(gen, w)
                if res is None:
                    continue
                _, vblock = res
                images = [[row[csrc] for row in vblock] for csrc in pivots[w]]
                block = solvers[target].block(images, keep=len(pivots[target]))
                if block is None:
                    raise RuntimeError("Gram radical is not invariant")
                if any(map(any, block)):
                    blocks[(gen.key(), w)] = block
    return ExplicitModule(
        index_set, xi.level, dims, blocks, "irreducible", highest_weight=xi, depth=depth
    )


class SingularSpace:
    """Joint kernel of the simple raising operators inside one weight space."""

    __slots__ = ("module", "weight", "basis")

    def __init__(self, module, weight, basis):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("SingularSpace is immutable")

    @property
    def dim(self):
        return len(self.basis)


def singular_space(module, mu):
    """Exact kernel of the stacked simple raising operators on the mu-space."""
    d = module.dim(mu)
    if not d:
        return SingularSpace(module, mu, [])
    rows = []
    for a, b in module.index_set.simple_pairs():
        res = module.act(BasisElement(a, b), mu)
        if res is None:
            continue
        rows.extend(res[1])
    if not rows:
        basis = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    else:
        basis = nullspace(rows, d)
    return SingularSpace(module, mu, basis)


def polynomial_highest_weight(index_set, lam):
    """Hook weight of a partition for a p = q = 0 flavor."""
    if index_set.flavor == "super":
        if index_set.p or index_set.q:
            raise ValueError("polynomial modules need p = q = 0")
        return weight_super(lam, Partition(), 0, 0, index_set.m, 0, index_set.n)
    if index_set.flavor == "classical":
        if index_set.p:
            raise ValueError("polynomial modules need p = 0")
        return weight_classical(lam, Partition(), 0, 0, index_set.n)
    raise ValueError("unsupported flavor for polynomial modules")


# Bumped whenever a realization changes basis or encoding; disk-cache keys
# include it.  2: polynomial modules built by the Pieri recursion.
REALIZATION_FORMAT = 2

_POLY_CACHE = {}


def polynomial_module(index_set, lam):
    """Irreducible polynomial module V_lam, built by the Pieri recursion.

    Let lam^- be lam with the last box of its last row removed.  V_lam is
    realized as the cyclic submodule of V_{lam^-} (x) V (V the natural
    module; V alone when |lam| = 1) generated by the singular vector at
    the hook weight of lam, closed under the simple lowering operators.

    Polynomial gl(m|n)-modules are completely reducible, and the Pieri
    rule holds with multiplicity one: V_{lam^-} (x) V is the direct sum of
    the V_nu over the hook shapes nu obtained from lam^- by adding one box
    (Sergeev 1984; Berele and Regev, Adv. Math. 64, 1987).  An irreducible
    summand holds singular vectors only at its highest weight, and
    distinct hook shapes have distinct hook weights, so the singular space
    at the hook weight of lam is exactly 1-dimensional; the build checks
    this and raises RuntimeError otherwise.  The parent comes from the
    memo, so the recursion costs one small build per shape instead of a
    realization inside the |lam|-th tensor power, whose dimension is
    (m + n)^|lam|.  Results are memoized; modules are immutable.
    """
    cache_key = (index_set, lam)
    if cache_key in _POLY_CACHE:
        return _POLY_CACHE[cache_key]
    module = _build_polynomial_module(index_set, lam)
    _POLY_CACHE[cache_key] = module
    return module


_TENSOR_CACHE = {}


def polynomial_tensor(index_set, partitions):
    """The tensor product of the polynomial modules of a partition list.

    Memoized per (index set, tuple of partitions), like
    ``polynomial_module``, and kept for the life of the process.  One
    tensor, with its block caches and Hamiltonian block store
    (``pair_store``), therefore serves every weight space anyone asks of
    that factor list; tensors are immutable.  Built through
    ``tensor_product``.
    """
    cache_key = (index_set, tuple(partitions))
    tensor = _TENSOR_CACHE.get(cache_key)
    if tensor is None:
        tensor = tensor_product([polynomial_module(index_set, lam) for lam in cache_key[1]])
        _TENSOR_CACHE[cache_key] = tensor
    return tensor


def _build_polynomial_module(index_set, lam):
    hw = polynomial_highest_weight(index_set, lam)
    size = lam.size
    if size == 0:
        raise ValueError("the empty partition labels the trivial module")
    factors = [NaturalModule(index_set)]
    if size > 1:
        parts = list(lam.parts)
        parts[-1] -= 1
        factors.insert(0, polynomial_module(index_set, Partition(parts)))
    amb = TensorModule(factors)
    sing = singular_space(amb, hw)
    if sing.dim != 1:
        raise RuntimeError(
            "singular space at %r has dimension %d; the Pieri rule gives 1" % (hw, sing.dim)
        )
    spans = {hw: SpanBuilder(amb.dim(hw))}
    spans[hw].add(sing.basis[0])
    frontier = [(hw, list(sing.basis[0]))]
    lowering = [BasisElement(b, a) for a, b in index_set.simple_pairs()]
    while frontier:
        w, vec = frontier.pop()
        for gen in lowering:
            res = amb.apply_diagonal_sparse(gen, w, vec)
            if res is None:
                continue
            target, img = res
            if target not in spans:
                spans[target] = SpanBuilder(amb.dim(target))
            if spans[target].add(img):
                frontier.append((target, img))
    bases = {w: sb.basis() for w, sb in spans.items() if len(sb)}
    dims = {w: len(b) for w, b in bases.items()}
    solvers = {w: ColumnSolver(basis, nrows=amb.dim(w)) for w, basis in bases.items()}
    blocks = {}
    members = list(index_set)
    for a in members:
        for b in members:
            if a == b:
                continue
            gen = BasisElement(a, b)
            shift = gen.weight_shift()
            for w, basis in bases.items():
                target = w + shift
                images = [amb.apply_diagonal_sparse(gen, w, vec) for vec in basis]
                if all(img is None for img in images):
                    continue
                if target not in bases:
                    raise RuntimeError("cyclic submodule is not invariant")
                sub = solvers[target].block([None if res is None else res[1] for res in images])
                if sub is None:
                    raise RuntimeError("cyclic submodule is not invariant")
                if any(map(any, sub)):
                    blocks[(gen.key(), w)] = sub
    return ExplicitModule(
        index_set, 0, dims, blocks, "polynomial", highest_weight=hw, shape=lam
    )


def truncate_module(module, smaller):
    """Weight-band restriction of a module to a smaller index set."""
    from .weights import in_lattice

    dims = {w: d for w, d in module._dims.items() if in_lattice(w, smaller)}
    blocks = {}
    members = list(smaller)
    for a in members:
        for b in members:
            if a == b:
                continue
            gen = BasisElement(a, b)
            for w in dims:
                res = module.act(gen, w)
                if res is None:
                    continue
                target, block = res
                if target in dims and any(any(row) for row in block):
                    blocks[(gen.key(), w)] = block
    out = ExplicitModule(smaller, module.level, dims, blocks, "truncation")
    return out
