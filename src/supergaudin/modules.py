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
from operator import itemgetter
from types import MappingProxyType

from .algebra import BasisElement, bracket_units, off_diagonal_units, simple_raising_ops
from .indices import HalfIndex, IndexSet
from .linalg import SpanBuilder, echelon_block, end_columns, mat_add, mat_mul, nullspace
from .partitions import GeneralizedPartition, Partition, partition_from_hook_data
from .weights import Weight, eps, exact_scalar, highest_weight, unitarizable_weight


class WeightModule:
    """Base class; subclasses fill dims and off-diagonal blocks.

    Immutable once built: modules are shared as factors of tensors and
    parents of memoized builds, so a mutation would reach every one of
    them.  Subclasses set their attributes with ``object.__setattr__``.
    """

    index_set: IndexSet
    level: Fraction
    provenance: str

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def weights(self):
        return sorted(self._dims, key=Weight.sort_key)

    def dim(self, w):
        return self._dims.get(w, 0)

    @property
    def total_dim(self):
        return sum(self._dims.values())

    def act(self, gen, w):
        """Block of E_{gen} from the w-space; (target_weight, matrix) or None.

        Diagonal units act by the scalar w(E_a); off-diagonal blocks come
        with their targets from the subclass's ``_block``, or None.  The
        matrix is a tuple of row tuples, shared as the module caches it.
        """
        # the code that builds an off-diagonal block also decides its target
        if gen.row not in self.index_set or gen.col not in self.index_set:
            raise ValueError("%r is outside %r" % (gen, self.index_set))
        d = self._dims.get(w, 0)
        if not d:
            return None
        if gen.is_diagonal:
            c = w(gen.row)
            return (w, tuple(tuple(c if i == j else 0 for j in range(d)) for i in range(d)))
        return self._block(gen, w)


class TensorModule(WeightModule):
    """Tensor product with Koszul signs; weights add, levels add.

    Every operator on the tensor, the diagonal action and the Gaudin
    blocks alike, is a sum of products of one-slot operators, applied to
    columns by ``apply`` over the cached ``slot_act_sparse`` blocks.  The
    blocks of named operators live in one store, ``block_store``, which
    only ``stored`` reads and fills: the diagonal action of each unit
    under ("delta", gen key), the Gaudin blocks under their gaudin specs.

    Immutable once built: duality tensors are memoized process-wide (see
    ``polynomial_tensor``), so one tensor serves many callers.  Its block
    caches fill lazily, and every block and basis they hold is a tuple,
    handed out as it is.
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
        init(self, "_basis", {w: tuple(tups) for w, tups in basis.items()})
        init(self, "_dims", {w: len(v) for w, v in basis.items()})
        init(
            self,
            "_index",
            {w: {tup: i for i, tup in enumerate(tups)} for w, tups in basis.items()},
        )
        init(self, "_sparse_cache", {})
        init(self, "block_store", {})

    def basis_tuples(self, w):
        return self._basis.get(w, ())

    def slot_act_sparse(self, gen, slot, w):
        """Column-sparse block of the one-slot operator gen^{(slot)}.

        Returns (target_weight, nrows, columns) with one ((row, value), ...)
        tuple per source basis column, or None if the operator vanishes.
        The Koszul sign is (-1) to the parity of gen times the total parity
        of the factors before the slot.  A diagonal unit E_a acts on each
        column by the scalar fw(E_a) of its slot weight fw.  The result is
        cached.
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
            vals = [tup[slot][0](a) for tup in src]
            cols = tuple([((c, v),) if v else () for c, v in enumerate(vals)])
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
                for tup in src:
                    fw, k = tup[slot]
                    if fw not in by_weight:
                        res = factor.act(gen, fw)
                        if res is None:
                            by_weight[fw] = None
                        else:
                            ftarget, fblock = res
                            by_weight[fw] = [
                                [((ftarget, r), row[j]) for r, row in enumerate(fblock) if row[j]]
                                for j in range(len(fblock[0]))
                            ]
                    fcols = by_weight[fw]
                    entries = ()
                    if fcols is not None and fcols[k]:
                        sign = -1 if odd and sum(pw.parity for pw, _ in tup[:slot]) & 1 else 1
                        head, tail = tup[:slot], tup[slot + 1 :]
                        entries = tuple([(tindex[head + (item,) + tail], sign * val) for item, val in fcols[k]])
                    cols.append(entries)
                if any(cols):
                    result = (target, len(tindex), tuple(cols))
        cache[key] = result
        return result

    def coproduct(self, gen):
        """The terms of the diagonal action Delta(gen) = sum over slots of
        gen^{(slot)}, in the form ``apply`` reads."""
        return [(1, [(gen, slot)]) for slot in range(len(self.factors))]

    def apply(self, terms, w, columns):
        """Apply sum_k c_k word_k to vectors of the w-space.

        ``terms`` lists (c_k, word_k); a word lists (gen, slot) factors left
        to right as written, slots 0-based, the rightmost acting first, and
        the empty word is the identity.  A word vanishes when one of its
        one-slot blocks, each the shared ``slot_act_sparse`` one, does.
        Returns (target weight, one dense image per column), or None when
        every word vanishes; the words that do not must end in one weight.
        """
        if not self.dim(w):
            return None
        target = None
        words = []
        for coeff, word in terms:
            steps = []
            cur = w
            for gen, slot in reversed(word):
                res = self.slot_act_sparse(gen, slot, cur)
                if res is None:
                    break
                cur, _, cols = res
                steps.append(cols)
            else:
                if target is None:
                    target = cur
                elif cur != target:
                    raise ValueError("the words end in different weights")
                words.append((coeff, steps))
        if target is None:
            return None
        n = self._dims[target]
        images = []
        for vec in columns:
            out = [0] * n
            src = {c: v for c, v in enumerate(vec) if v}
            for coeff, steps in words:
                cur = src
                for cols in steps:
                    nxt = {}
                    for r, v in cur.items():
                        for r2, x in cols[r]:
                            nxt[r2] = nxt.get(r2, 0) + v * x
                    cur = nxt
                for r, v in cur.items():
                    out[r] += coeff * v
            images.append(out)
        return target, images

    def stored(self, name, terms, w, basis=None):
        """The operator sum_k c_k word_k on the w-space, from the store.

        ``terms`` is read as by ``apply`` and only on a miss; ``name`` must
        determine it, since the store keys on (name, w, basis).  With no
        basis the words act on the unit columns, and the result is (target
        weight, rows) with exact-scalar entries.  With ``basis``, a tuple
        of w-space tuples spanning a subspace the operator preserves, they
        act on the basis vectors only, and the result is (w, rows) in that
        basis, read by ``echelon_block`` at each vector's last nonzero
        column.  The basis must be in that end-column form, as every
        ``nullspace`` basis is; ValueError otherwise, and when the subspace
        is not invariant.  None when every word vanishes.  The rows are
        tuples, like every block a module hands out.
        """
        store = self.block_store
        key = (name, w, basis)
        if key in store:
            return store[key]
        if basis is None:
            d = self.dim(w)
            res = self.apply(terms, w, [[int(r == c) for r in range(d)] for c in range(d)])
            if res is not None:
                res = (res[0], tuple(tuple(map(exact_scalar, row)) for row in zip(*res[1])))
        else:
            pivots = end_columns(basis)
            res = self.apply(terms, w, basis)
            if res is not None:
                block = echelon_block(basis, pivots, res[1]) if res[0] == w else None
                if block is None:
                    raise ValueError("subspace is not invariant under the operator")
                res = (w, tuple(map(tuple, block)))
        store[key] = res
        return res

    def _block(self, gen, w):
        # the diagonal action on unit columns, as rows
        return self.stored(("delta", gen.key()), self.coproduct(gen), w)


class ExplicitModule(WeightModule):
    """A module given by explicit dims and off-diagonal blocks.

    ``blocks`` maps (gen key, w) to (target weight, block).  Each target
    must be a weight of ``dims``; weights are interned, so it is the
    module's own weight object.  Each block is stored as a tuple of row
    tuples.

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
        highest_weight=None,
        shape=None,
        depth=None,
    ):
        init = object.__setattr__
        init(self, "index_set", index_set)
        init(self, "level", Fraction(level))
        kept = {w: d for w, d in dims.items() if d}
        stored = {}
        for key, (target, block) in blocks.items():
            if target not in kept:
                raise ValueError("block target %r is not a weight of the module" % (target,))
            stored[key] = (target, tuple(map(tuple, block)))
        init(self, "_dims", kept)
        init(self, "_blocks", stored)
        init(self, "provenance", provenance)
        init(self, "highest_weight", highest_weight)
        init(self, "shape", shape)
        init(self, "depth", depth)

    def _block(self, gen, w):
        return self._blocks.get((gen.key(), w))


class NaturalModule(ExplicitModule):
    """The natural module: v_i of weight e(i) per index, E_{a,b} v_b = v_a."""

    def __init__(self, index_set):
        weights = {h: eps(h.value) for h in index_set}
        blocks = {
            (gen.key(), weights[gen.col]): (weights[gen.row], [[1]])
            for gen in off_diagonal_units(index_set)
        }
        dims = dict.fromkeys(weights.values(), 1)
        ExplicitModule.__init__(self, index_set, 0, dims, blocks, "natural")


def _realize(index_set, level, dims, simple_block, provenance, **meta):
    """An ExplicitModule over the weights of ``dims``; ``meta`` describes
    the realization.

    Only the simple units, consecutive in the set's order, are read: their
    blocks are the (target weight, block) pairs ``simple_block(gen, w)``
    returns.  The simple units and the Cartan generate the algebra (Kac,
    Adv. Math. 26, 1977), so every other block is derived in the module's
    own basis, in order of |pos(a) - pos(c)|, by the supercommutator

        E_ac = E_ab E_bc - (-1)^{|E_ab| |E_bc|} E_bc E_ab,   a != c,

    with b the neighbour of c on the way to a and a missing block read as
    zero; the sign is -1 only when both factors are odd.  Entries go
    through ``exact_scalar``; None and all-zero blocks are dropped.  This
    is exact when the kept spaces carry a representation, as they do for
    every builder:

    * a polynomial module is a cyclic submodule of its Pieri ambient;
    * an irreducible quotient (``irreducible_truncated``) keeps weights of
      deficit height <= depth.  Both factors of E_ac move the weight the
      same way, so the middle weight's height lies between those of the
      two ends.  A middle weight outside the Verma's cone has no space,
      and one with a zero quotient no block, and the factor block is 0
      either way;
    * a truncation (``truncate_module``) keeps the weights supported on the
      smaller set, which are stable under its algebra.  From a truncated
      Verma every simple block at every kept weight is still read; if none
      leaves the depth band, no bracket of them can.
    """
    members = list(index_set)
    pos = {h.doubled: i for i, h in enumerate(members)}
    # E_{a,c} by distance |pos(a) - pos(c)|: the simple units first
    units = sorted(
        off_diagonal_units(index_set),
        key=lambda g: abs(pos[g.row.doubled] - pos[g.col.doubled]),
    )
    blocks = {}
    for gen in units:
        a, c = pos[gen.row.doubled], pos[gen.col.doubled]
        if abs(a - c) == 1:
            for w in dims:
                res = simple_block(gen, w)
                if res is not None and any(map(any, res[1])):
                    blocks[(gen.key(), w)] = res
            continue
        # E_ac = E_ab E_bc - (-1)^{|E_ab||E_bc|} E_bc E_ab, b next to c
        b = members[c - 1 if a < c else c + 1]
        ab, bc = BasisElement(gen.row, b).key(), BasisElement(b, gen.col).key()
        sign = -1 if (gen.row.parity ^ b.parity) and (b.parity ^ gen.col.parity) else 1
        for w in dims:
            # each term applies the unit ``first``, then ``second``
            block = None
            for first, second, coeff in ((bc, ab, 1), (ab, bc, -sign)):
                one = blocks.get((first, w))
                two = one and blocks.get((second, one[0]))
                if two:
                    target = two[0]
                    term = [[coeff * x for x in row] for row in mat_mul(two[1], one[1])]
                    block = term if block is None else mat_add(block, term)
            if block is not None:
                block = [[exact_scalar(x) for x in row] for row in block]
                if any(map(any, block)):
                    blocks[(gen.key(), w)] = (target, block)
    return ExplicitModule(index_set, level, dims, blocks, provenance, **meta)


def tensor_product(factors):
    return TensorModule(factors)


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
    ``act`` is the one straightening recursion, with one memo: it applies
    any matrix unit, a lowering generator included, and reads its brackets
    straight from ``bracket_units``.  ``monomials`` hands each monomial
    out with its weight and its root height, each one sum onto its
    prefix's.
    Coefficients are plain ints: the structure constants are integers and
    weight coefficients are integers, so no Fraction is ever needed.
    """

    def __init__(self, index_set, xi):
        self.index_set = index_set
        self.xi = xi
        members = list(index_set)
        lowering = []
        for bi, b in enumerate(members):
            for ai, a in enumerate(members):
                if ai > bi:
                    lowering.append((ai - bi, ai, (a.doubled, b.doubled)))
        lowering.sort()
        self.gens = [key for _, _, key in lowering]
        self.gen_height = [height for height, _, _ in lowering]
        self.gen_index = {key: i for i, key in enumerate(self.gens)}
        self.gen_parity = [((r & 1) ^ (c & 1)) for r, c in self.gens]
        self.gen_shift = [
            BasisElement(HalfIndex(r), HalfIndex(c)).weight_shift() for r, c in self.gens
        ]
        self._memo = {}

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

        Returns a dict monomial -> coefficient in the PBW basis.  A lowering
        generator at or below the head is prepended (an odd one onto itself
        gives 0); any other unit is commuted past the head,
        [X, f_head] rest + sign f_head (X rest), and the product re-sorted
        by the same recursion.
        """
        g = self.gen_index.get(key)
        if g is not None and (not mono or g <= mono[0]):
            if mono and g == mono[0] and self.gen_parity[g]:
                return {}
            return {(g,) + mono: 1}
        memo_key = (key, mono)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        r, c = key
        if not mono:
            # a diagonal unit reads the highest weight, a raising one kills v
            val = self.xi(r) if r == c else 0
            out = {(): val} if val else {}
        else:
            head, rest = mono[0], mono[1:]
            f_head = self.gens[head]
            out = self._elem_act(bracket_units(r, c, *f_head), rest)
            sign = -1 if (((r & 1) ^ (c & 1)) and self.gen_parity[head]) else 1
            for mm, v in self.act(key, rest).items():
                for m2, v2 in self.act(f_head, mm).items():
                    val = sign * v * v2
                    if val:
                        out[m2] = out.get(m2, 0) + val
            out = {k: v for k, v in out.items() if v}
        self._memo[memo_key] = out
        return out

    def monomials(self, depth):
        """All ordered monomials of root height <= depth (odd generators
        square to 0), as (monomial, weight, height) triples; the height of
        a monomial is the sum of its generators' heights, which is the
        deficit height of its weight.  The generators are sorted by height,
        so each extension stops at the first one that overshoots."""
        heights, parity, shift = self.gen_height, self.gen_parity, self.gen_shift
        frontier = [((), self.xi, 0)]
        out = list(frontier)
        while frontier:
            nxt = []
            for mono, w, h in frontier:
                last = mono[-1] if mono else 0
                for g in range(last, len(self.gens)):
                    height = h + heights[g]
                    if height > depth:
                        break
                    if parity[g] and mono and last == g:
                        continue
                    nxt.append((mono + (g,), w + shift[g], height))
            out.extend(nxt)
            frontier = nxt
        return out


class _TruncatedVerma(WeightModule):
    """Span of the PBW monomials of root height <= depth.

    A weight's monomials all have its deficit height, so every listed
    weight space is the whole Verma weight space.  ``labels`` maps each
    weight to the sorted tuple of its monomials, and ``heights`` each
    weight to its deficit height; both are read-only.  A lowering unit
    from the top heights leaves the band, and ``_block`` refuses it
    rather than silently dropping terms.
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
        heights = {}
        for mono, w, height in builder.monomials(depth):
            by_weight.setdefault(w, []).append(mono)
            heights[w] = height
        labels = MappingProxyType({w: tuple(sorted(m)) for w, m in by_weight.items()})
        init(self, "labels", labels)
        init(self, "_dims", {w: len(m) for w, m in labels.items()})
        init(
            self,
            "_index",
            {w: {mono: i for i, mono in enumerate(monos)} for w, monos in labels.items()},
        )
        init(self, "heights", MappingProxyType(heights))

    def _block(self, gen, w):
        # a missing target reads as zero, which is wrong when the target
        # lies above the depth: refuse at the first image monomial with no
        # row there.  Only a lowering unit can get there; a raising one
        # lands on a lower height, which is listed whole.  Every caller asks
        # for each (gen, w) once, and the builder memoizes the
        # straightening, so blocks are not cached
        target = w + gen.weight_shift()
        tind = self._index.get(target, {})
        monos = self.labels[w]
        key = gen.key()
        block = None
        for col, mono in enumerate(monos):
            for mm, v in self._builder.act(key, mono).items():
                row = tind.get(mm)
                if row is None:
                    raise ValueError(
                        "action of %r on the %r space leaves the depth-%d band"
                        % (gen, w, self.depth)
                    )
                if block is None:
                    block = [[0] * len(monos) for _ in range(len(tind))]
                block[row][col] += v
        return None if block is None else (target, tuple(map(tuple, block)))


def verma_truncated(index_set, xi, depth):
    """Ordinary Verma module on its weights of deficit height <= depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative, got %d" % depth)
    return _TruncatedVerma(index_set, xi, depth)


def verma_size(index_set, depth):
    """Dimension of ``verma_truncated(index_set, xi, depth)`` for any xi:
    the coefficients up to t^depth of prod_even 1 / (1 - t^h) prod_odd
    (1 + t^h), over the lowering generators, h the height of each."""
    builder = _VermaBuilder(index_set, Weight({}))
    series = [1] + [0] * depth
    for h, odd in zip(builder.gen_height, builder.gen_parity):
        if odd:
            # 1 + t^h: each generator once, so read the old coefficients
            for t in range(depth, h - 1, -1):
                series[t] += series[t - h]
        else:
            # 1 / (1 - t^h): each generator any number of times
            for t in range(h, depth + 1):
                series[t] += series[t - h]
    return sum(series)


def _is_unitarizable_super(index_set, xi):
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
            cand = unitarizable_weight(index_set, gen)
        except (ValueError, IndexError):
            continue
        if cand.coeffs == xi.coeffs:
            return True
    return False


def _quotient_coordinates(verma, echelon, key, target, monos):
    """Coordinates in the quotient L_target of the unit ``key`` applied to
    each of ``monos``: one column per monomial, read by ``echelon_block``
    against the target's echelon basis, radical rows dropped.  A listed
    weight space is whole, so every image monomial has a row there."""
    index = verma._index[target]
    act = verma._builder.act
    images = []
    for mono in monos:
        vec = [0] * len(index)
        for mm, v in act(key, mono).items():
            vec[index[mm]] += v
        images.append(vec)
    skip, basis, cols = echelon[target]
    return echelon_block(basis, cols, images)[skip:]


def _radical_recursion(verma):
    """The maximal submodule N of a truncated Verma, weight by weight.

    N is the radical of the contravariant form, and the simple raising
    units generate the raising subalgebra (Kac, Adv. Math. 26, 1977), so
    in order of deficit height: N = 0 at the highest weight, and at every
    other weight w

        N_w = {x in M_w : e_i x in N_{w + alpha_i} for every simple i},

    the ``nullspace`` of the stacked blocks of the e_i read in quotient
    coordinates.  A target with zero quotient adds no row; a weight whose
    targets all have zero quotient has L_w = 0 and is skipped unread.
    These rows and the Gram matrix of w have the same kernel, and
    ``nullspace`` depends on the row space alone, so the radical is the
    one the Gram matrix gives (``tests/oracles.py`` keeps that matrix).

    Returns ``(echelon, raising)``.  ``echelon`` maps each weight with a
    nonzero quotient to ``(skip, basis, cols)``, an echelon basis
    of the whole weight space: the ``skip`` radical vectors, each ending
    at its own free column and zero at every other free column, then the
    units at the pivot columns ``cols[skip:]``, which are the quotient
    basis; ``cols`` holds each vector's echelon column.  ``raising`` maps
    (simple raising key, w) to that unit's block on all of M_w, in the
    target's quotient coordinates.
    """
    simple = [(gen.key(), gen.weight_shift()) for gen in simple_raising_ops(verma.index_set)]
    echelon = {}
    raising = {}
    for w, height in sorted(verma.heights.items(), key=itemgetter(1)):
        monos = verma.labels[w]
        d = len(monos)
        radical = []
        if height:
            rows = []
            for key, shift in simple:
                target = w + shift
                if target in echelon:
                    block = raising[(key, w)] = _quotient_coordinates(
                        verma, echelon, key, target, monos
                    )
                    rows.extend(block)
            if not rows:
                continue
            radical = nullspace(rows, d)
        free = end_columns(radical)
        pivots = sorted(set(range(d)).difference(free))
        if pivots:
            units = [[int(r == p) for r in range(d)] for p in pivots]
            echelon[w] = (len(radical), radical + units, free + pivots)
    return echelon, raising


def irreducible_truncated(index_set, xi, depth):
    """Irreducible quotient of the truncated Verma by its maximal submodule.

    Accepts unitarizable super-flavor weights and dominant-integral
    classical weights; anything else is rejected (the radical is not known
    to cut out the irreducible there).  The quotient keeps the weights of
    deficit height <= depth with a nonzero quotient.  ``_radical_recursion``
    reads the radical off the simple raising units.  ``block_of`` hands out
    a simple raising block from those rows, at the pivot columns, and reads
    any other unit on the pivot monomials alone, in the target's quotient
    basis.  That basis spans the whole target space, so every image has
    coordinates; the radical's invariance is the theorem, checked by the
    tests.  ``_realize`` derives the non-simple blocks.
    """
    if index_set.flavor == "classical":
        # weight coefficients are ints by type: dominance is the whole check
        vals = [xi(h) for h in index_set]
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("classical flavor needs a dominant integral weight")
    elif index_set.flavor == "super":
        if not _is_unitarizable_super(index_set, xi):
            raise ValueError("super flavor needs a unitarizable weight")
    else:
        raise ValueError("unsupported flavor for irreducible realization")
    verma = verma_truncated(index_set, xi, depth)
    echelon, raising = _radical_recursion(verma)
    pivots = {w: cols[skip:] for w, (skip, _, cols) in echelon.items()}
    dims = {w: len(pivots[w]) for w in verma.weights() if w in pivots}

    def block_of(gen, w):
        target = w + gen.weight_shift()
        if target not in dims:
            return None
        rows = raising.get((gen.key(), w))
        if rows is not None:
            return target, [[row[p] for p in pivots[w]] for row in rows]
        monos = verma.labels[w]
        return target, _quotient_coordinates(
            verma, echelon, gen.key(), target, [monos[p] for p in pivots[w]]
        )

    return _realize(
        index_set, xi.level, dims, block_of, "irreducible", highest_weight=xi, depth=depth
    )


class SingularSpace:
    """Joint kernel of the simple raising operators inside one weight space.

    ``basis`` is a tuple of tuples: spaces are cached, and the basis keys
    the tensor's stored restricted blocks."""

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
        return SingularSpace(module, mu, ())
    rows = []
    for op in simple_raising_ops(module.index_set):
        res = module.act(op, mu)
        if res is None:
            continue
        rows.extend(res[1])
    return SingularSpace(module, mu, tuple(map(tuple, nullspace(rows, d))))


def polynomial_highest_weight(index_set, lam):
    """Hook weight of a partition for a p = q = 0 flavor."""
    index_set.require_polynomial("polynomial modules")
    return highest_weight(index_set, lam)


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

    Only the blocks of the simple units come from the ambient tensor: the
    coproduct applied to the basis of each weight space, read in that
    basis by ``echelon_block``, which also checks that the cyclic span is
    invariant.  The simple units and the Cartan generate gl(m|n) (Kac,
    Adv. Math. 26, 1977), so that check covers the whole algebra, and
    ``_realize`` derives every other block from them.
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
    tensor, with its block caches and operator store (``block_store``),
    therefore serves every weight space anyone asks of
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
            res = amb.apply(amb.coproduct(gen), w, [vec])
            if res is None:
                continue
            target, (img,) = res
            if target not in spans:
                spans[target] = SpanBuilder(amb.dim(target))
            if spans[target].add(img):
                frontier.append((target, img))
    bases = {w: sb.basis() for w, sb in spans.items() if len(sb)}

    def simple_block(gen, w):
        res = amb.apply(amb.coproduct(gen), w, bases[w])
        if res is None or not any(map(any, res[1])):
            return None
        target, images = res
        if target not in bases:
            raise RuntimeError("cyclic submodule is not invariant")
        sub = echelon_block(bases[target], spans[target].pivots, images)
        if sub is None:
            raise RuntimeError("cyclic submodule is not invariant")
        return target, sub

    dims = {w: len(b) for w, b in bases.items()}
    return _realize(index_set, 0, dims, simple_block, "polynomial", highest_weight=hw, shape=lam)


def truncate_module(module, smaller):
    """Weight-band restriction of a module to a smaller index set: the
    weight spaces whose weight is supported on ``smaller``, the band rule
    ``duality.truncation_check`` reads off the highest weight, so a module
    truncated to its own index set comes back whole.  ``_realize`` reads
    the simple units of ``smaller``, in its own order, off the module and
    derives the other blocks."""
    dims = {w: d for w, d in module._dims.items() if all(h in smaller for h in w.support())}

    def block_of(gen, w):
        # act first: a truncated Verma raises when the action leaves its band
        res = module.act(gen, w)
        return res if res is not None and res[0] in dims else None

    return _realize(smaller, module.level, dims, block_of, "truncation")
