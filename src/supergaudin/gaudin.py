"""Casimir tensors and quadratic/cubic Gaudin Hamiltonians as exact matrices.

Hamiltonians act per weight space of a tensor product; all matrices are
rational once the points z are rational.  The central-extension convention
is assembled honestly from the extended Casimir tensor (with its K terms)
acting through the iota-twisted generator actions, so the relation between
the two conventions is something the test suite verifies rather than a
definition.

Every product of one-slot operators (a Casimir term, a cubic word, a
one-site Casimir) goes through one sparse core, ``add_word``, which
applies the column-sparse ``TensorModule.slot_act_sparse`` blocks.

Pair-block store.  The two-site Casimir Omega^{(ij)} does not depend on z,
so the quadratic Hamiltonians H^i(z) = sum_{j != i} Omega^{(ij)}/(z_i - z_j)
are rational combinations of stored blocks.  The store is the
``pair_store`` dict of the tensor itself, so it lives exactly as long as
the tensor object.  It holds:

- Omega^{(ij)} on a weight space, keyed by (central, levels, min(i, j),
  max(i, j), weight); Omega^{(ij)} = Omega^{(ji)}, so one entry serves both
  orders, and ``levels`` is None in the plain convention, which ignores
  them;
- its restriction to a subspace, keyed by that key plus the basis vectors.

Callers get fresh copies (``pair_matrix``, ``HamiltonianFamily.matrix``,
``restricted``), so nothing they mutate reaches the store.
``QuadraticFamily.restricted`` restricts each Omega^{(ij)} separately, so
the subspace must be invariant under every Omega^{(ij)}, not just under
H^i.  Singular spaces always are: each Omega^{(ij)} commutes with the
diagonal action, raising operators included.
"""

from fractions import Fraction

from .algebra import BasisElement
from .linalg import (
    ColumnSolver,
    SpanBuilder,
    commutator,
    max_abs,
    squarefree_certificate,
)

K_SYMBOL = "K"


class CasimirTensor:
    """A list of two-site terms (coefficient, left op, right op)."""

    __slots__ = ("index_set", "central", "terms")

    def __init__(self, index_set, central, terms):
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("CasimirTensor is immutable")

    def __len__(self):
        return len(self.terms)


def casimir(index_set, central=False):
    """The Casimir symmetric tensor of a flavor.

    sum over i, j of (-1)^{2j} E_{i,j} (x) E_{j,i}, and with central=True
    also -(K (x) E_i + E_i (x) K) over the negative indices i.
    """
    terms = []
    members = list(index_set)
    for i in members:
        for j in members:
            coeff = -1 if j.parity else 1
            terms.append((Fraction(coeff), BasisElement(i, j), BasisElement(j, i)))
    if central:
        for i in members:
            if i.doubled < 0:
                diag = BasisElement(i, i)
                terms.append((Fraction(-1), K_SYMBOL, diag))
                terms.append((Fraction(-1), diag, K_SYMBOL))
    return CasimirTensor(index_set, central, terms)


def _iota_diag_correction(gen, level):
    # the extended E_a acts on a plain realization through iota^{-1}:
    # iota(E_a) = E_a - (-1)^{parity(a)} K for a < 0, so pulling the
    # extended unit back ADDS (-1)^{parity(a)} times the K scalar
    if gen.is_diagonal and gen.row.doubled < 0:
        sign = -1 if gen.row.parity else 1
        return sign * level
    return 0


def _exact(x):
    """An integral Fraction as an int (cheaper arithmetic); others as is."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def add_word(total, tensor, word, w, scale=1, levels=None, twisted=False):
    """Add scale times a product of one-slot operators on the w-space into
    the dense rows ``total``; True unless a factor vanishes.

    ``word`` lists (op, slot) left to right as written, slots 0-based; the
    rightmost factor acts first.  ``op`` is a BasisElement or the K symbol,
    which acts by the slot's level.  With ``twisted`` the diagonal units at
    negative indices act through iota (plain action plus a central
    scalar).  The factors are the column-sparse slot blocks, applied to
    one basis column at a time; the net weight shift must be zero.
    """
    if not tensor.dim(w):
        return False
    # each step maps v to scalar * v + cols(v)
    steps = []
    cur = w
    for op, slot in reversed(word):
        cols = None
        if op == K_SYMBOL:
            scalar = levels[slot]
        else:
            scalar = _iota_diag_correction(op, levels[slot]) if twisted else 0
            res = tensor.slot_act_sparse(op, slot, cur)
            if res is not None:
                cur, _, cols = res
        if cols is None and not scalar:
            return False
        steps.append((cols, scalar))
    if cur != w:
        raise ValueError("operator product does not preserve the weight")
    for c in range(tensor.dim(w)):
        vec = {c: 1}
        for cols, scalar in steps:
            nxt = {r: scalar * v for r, v in vec.items()} if scalar else {}
            if cols is not None:
                for r, v in vec.items():
                    for r2, x in cols[r]:
                        nxt[r2] = nxt.get(r2, 0) + v * x
            vec = nxt
        for r, v in vec.items():
            if v:
                total[r][c] += scale * v
    return True


def apply_pair_op(tensor, cas, i, j, w, vectors):
    """Apply the two-site tensor on slots (i, j) to columns of the w-space.

    Slots are 1-based as in the Hamiltonian formulas.
    """
    ell = len(tensor.factors)
    if not (1 <= i <= ell and 1 <= j <= ell) or i == j:
        raise ValueError("slots must be distinct and within 1..%d" % ell)
    mat = pair_matrix(tensor, cas, i, j, w, levels=None)
    if mat is None:
        return [[Fraction(0)] * tensor.dim(w) for _ in vectors]
    return [[sum(row[k] * vec[k] for k in range(len(vec))) for row in mat] for vec in vectors]


def _pair_key(tensor, cas, i, j, w, levels):
    if not cas.central:
        levels = None
    elif levels is None:
        levels = tuple(Fraction(f.level) for f in tensor.factors)
    else:
        levels = tuple(Fraction(x) for x in levels)
    return (cas.central, levels, min(i, j), max(i, j), w)


def _stored_pair(tensor, cas, i, j, w, levels):
    """Omega^{(ij)} from the store (shared rows: never mutate), or None."""
    key = _pair_key(tensor, cas, i, j, w, levels)
    store = tensor.pair_store
    if key not in store:
        lv = key[1]
        d = tensor.dim(w)
        total = [[0] * d for _ in range(d)]
        nonzero = False
        for coeff, left, right in cas.terms:
            word = [(left, key[2] - 1), (right, key[3] - 1)]
            nonzero |= add_word(total, tensor, word, w, _exact(coeff), lv, cas.central)
        store[key] = [[_exact(x) for x in row] for row in total] if nonzero else None
    return store[key]


def pair_matrix(tensor, cas, i, j, w, levels=None):
    """Exact matrix of the (i, j) two-site Casimir action on the w-space.

    Served from the tensor's pair-block store; returns fresh dense rows, or
    None when every Casimir term vanishes there.  ``cas`` must be
    ``casimir(tensor.index_set, central)``: the store keys on its
    convention only.
    """
    block = _stored_pair(tensor, cas, i, j, w, levels)
    return None if block is None else [row[:] for row in block]


def _stored_restriction(tensor, cas, i, j, space, levels):
    """Omega^{(ij)} restricted to an invariant subspace, from the store."""
    key = (
        _pair_key(tensor, cas, i, j, space.weight, levels),
        tuple(tuple(vec) for vec in space.basis),
    )
    store = tensor.pair_store
    if key not in store:
        mat = pair_matrix(tensor, cas, i, j, space.weight, levels)
        store[key] = None if mat is None else restrict_to_basis(mat, space.basis)
    return store[key]


class HamiltonianFamily:
    """A z-parameterized commuting family on the weight spaces of a tensor.

    kind is "quadratic", "cubicC" or "cubicD"; the convention is "plain"
    (no K terms) or "central" (extended Casimir through iota).
    """

    def __init__(self, tensor, z, kind, convention, levels, matrix_fn):
        z = tuple(Fraction(x) for x in z)
        if len(set(z)) != len(z):
            raise ValueError("z points must be pairwise distinct")
        if len(z) != len(tensor.factors):
            raise ValueError("need one z point per tensor factor")
        if len(z) < 2:
            raise ValueError("need at least two sites")
        self.tensor = tensor
        self.z = z
        self.kind = kind
        self.convention = convention
        self.levels = levels
        self._matrix_fn = matrix_fn
        self._cache = {}

    @property
    def ell(self):
        return len(self.z)

    def _matrix(self, i, w):
        if not 1 <= i <= self.ell:
            raise ValueError("site index out of range")
        key = (i, w)
        if key not in self._cache:
            self._cache[key] = self._matrix_fn(i, w)
        return self._cache[key]

    def matrix(self, i, w):
        """Exact matrix of the i-th Hamiltonian (1-based) on the w-space."""
        return [row[:] for row in self._matrix(i, w)]

    def matrices(self, w):
        return [self.matrix(i, w) for i in range(1, self.ell + 1)]

    def restricted(self, i, space):
        """Matrix of the i-th Hamiltonian on an invariant subspace basis."""
        return restrict_to_basis(self._matrix(i, space.weight), space.basis)


class QuadraticFamily(HamiltonianFamily):
    """H^i = sum_{j != i} Omega^{(ij)} / (z_i - z_j) over stored pair blocks."""

    def __init__(self, tensor, z, convention, levels):
        self.cas = casimir(tensor.index_set, central=(convention == "central"))
        super().__init__(tensor, z, "quadratic", convention, levels, self._assemble)

    def _pole_sum(self, i, d, block_of):
        total = [[Fraction(0)] * d for _ in range(d)]
        zi = self.z[i - 1]
        for j in range(1, self.ell + 1):
            if j == i:
                continue
            block = block_of(j)
            if block is None:
                continue
            scale = 1 / (zi - self.z[j - 1])
            for trow, brow in zip(total, block):
                for c, x in enumerate(brow):
                    if x:
                        trow[c] += scale * x
        return total

    def _assemble(self, i, w):
        return self._pole_sum(
            i,
            self.tensor.dim(w),
            lambda j: _stored_pair(self.tensor, self.cas, i, j, w, self.levels),
        )

    def restricted(self, i, space):
        """H^i on a subspace invariant under every Omega^{(ij)} (a singular
        space, say), combined from stored restricted pair blocks."""
        if not 1 <= i <= self.ell:
            raise ValueError("site index out of range")
        return self._pole_sum(
            i,
            space.dim,
            lambda j: _stored_restriction(self.tensor, self.cas, i, j, space, self.levels),
        )


def restrict_to_basis(mat, basis):
    """Express an operator on the span of basis columns; error if not invariant."""
    images = []
    for vec in basis:
        support = [(k, x) for k, x in enumerate(vec) if x]
        images.append([sum(row[k] * x for k, x in support) for row in mat])
    out = ColumnSolver(basis, nrows=len(mat)).block(images)
    if out is None:
        raise ValueError("subspace is not invariant under the operator")
    return out


def quadratic_family(tensor, z, convention="plain", levels=None):
    """The quadratic Hamiltonians H^i = sum_{j != i} Omega^{(ij)} / (z_i - z_j)."""
    if convention not in ("plain", "central"):
        raise ValueError("convention must be plain or central")
    if levels is None:
        levels = [f.level for f in tensor.factors]
    levels = [Fraction(x) for x in levels]
    if len(levels) != len(tensor.factors):
        raise ValueError("need one level per tensor factor")
    return QuadraticFamily(tensor, z, convention, levels)


def _cubic_sign(r, s, t):
    # (-1)^{2(s+t)(2(r+t)+1)} reduced mod 2 through index parities
    e = (s.parity ^ t.parity) & (r.parity ^ t.parity ^ 1)
    return -1 if e else 1


def cubic_family(tensor, z, kind):
    """The cubic Hamiltonians extracted from the degree-three supertrace.

    kind "C" has the double-pole and two-site-squared terms; kind "D" is
    the single 1/(z_i - z_j) sum.  Defined for p = q = 0 flavors only.
    """
    iset = tensor.index_set
    if kind not in ("C", "D"):
        raise ValueError("kind must be C or D")
    if iset.flavor == "super":
        if iset.p or iset.q:
            raise ValueError("cubic Hamiltonians need p = q = 0")
    elif iset.flavor == "classical":
        if iset.p:
            raise ValueError("cubic Hamiltonians need p = 0")
    else:
        raise ValueError("cubic Hamiltonians are not defined for this flavor")
    members = list(iset)
    levels = [f.level for f in tensor.factors]
    zf = tuple(Fraction(x) for x in z)
    ell = len(zf)

    def matrix_fn(i, w):
        d = tensor.dim(w)
        total = [[Fraction(0)] * d for _ in range(d)]

        def accumulate(word, scale):
            add_word(total, tensor, word, w, scale)

        i0 = i - 1
        for r in members:
            for s in members:
                for t in members:
                    sign = _cubic_sign(r, s, t)
                    e_rs = BasisElement(r, s)
                    e_tr = BasisElement(t, r)
                    e_st = BasisElement(s, t)
                    if kind == "D":
                        for j0 in range(ell):
                            if j0 == i0:
                                continue
                            accumulate(
                                [(e_rs, j0), (e_tr, i0), (e_st, i0)],
                                Fraction(sign) / (zf[i0] - zf[j0]),
                            )
                        continue
                    for j0 in range(ell):
                        if j0 == i0:
                            continue
                        for k0 in range(ell):
                            if k0 == i0 or k0 == j0:
                                continue
                            accumulate(
                                [(e_rs, i0), (e_tr, j0), (e_st, k0)],
                                Fraction(sign) / ((zf[i0] - zf[j0]) * (zf[i0] - zf[k0])),
                            )
                        sq = Fraction(sign) / (zf[i0] - zf[j0]) ** 2
                        accumulate([(e_rs, i0), (e_tr, j0), (e_st, j0)], sq)
                        accumulate([(e_rs, j0), (e_tr, i0), (e_st, i0)], -sq)
        return total

    return HamiltonianFamily(tensor, zf, "cubic%s" % kind, "plain", levels, matrix_fn)


def central_shift(p, q, levels, z, i, flavor="super"):
    """Scalar offset between plain and central-convention Hamiltonians.

    Super flavor: (p - q) sum_{j != i} d_i d_j / (z_i - z_j); classical
    flavor: -p times the same sum.  Sites are 1-based.
    """
    z = [Fraction(x) for x in z]
    levels = [Fraction(x) for x in levels]
    total = Fraction(0)
    for j in range(1, len(z) + 1):
        if j == i:
            continue
        total += levels[i - 1] * levels[j - 1] / (z[i - 1] - z[j - 1])
    if flavor == "super":
        return (p - q) * total
    if flavor == "classical":
        return -p * total
    raise ValueError("flavor must be super or classical")


def commutator_residual(A, B):
    """Exact max-norm of [A, B]."""
    return max_abs(commutator(A, B))


def family_commutator_residual(fam_a, fam_b, w):
    """Max over site pairs of the exact norm of commutators on a weight space."""
    worst = Fraction(0)
    for i in range(1, fam_a.ell + 1):
        for j in range(1, fam_b.ell + 1):
            r = commutator_residual(fam_a.matrix(i, w), fam_b.matrix(j, w))
            if r > worst:
                worst = r
    return worst


class JointDiagonalization:
    """Outcome of a joint diagonalization attempt on one space."""

    def __init__(self, certificates, eigenvalues, basis, residual):
        self.certificates = certificates
        self.eigenvalues = eigenvalues
        self.basis = basis
        self.residual = residual

    @property
    def all_certified(self):
        return all(ok for ok, _ in self.certificates)


def joint_diagonalize(mats, rng, tol=1e-9):
    """Certify and jointly diagonalize a commuting family of rational matrices.

    Exact part: pairwise commutators must vanish and every member must have
    a squarefree annihilating polynomial (the squarefree part of its
    characteristic polynomial), which certifies diagonalizability over the
    complex numbers.  Floating part: eigenvectors of a random real
    combination, checked to diagonalize each member within tol.
    """
    import numpy as np

    n = len(mats[0]) if mats else 0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if commutator_residual(mats[a], mats[b]):
                raise ValueError("family does not commute exactly")
    certificates = [squarefree_certificate(m) for m in mats]
    if n == 0:
        return JointDiagonalization(certificates, [[] for _ in mats], np.zeros((0, 0)), 0.0)
    coeffs = [rng.uniform(1, 2) for _ in mats]
    combo = np.zeros((n, n))
    for c, m in zip(coeffs, mats):
        combo += c * np.array([[float(x) for x in row] for row in m])
    _, vecs = np.linalg.eig(combo)
    basis = vecs
    inv = np.linalg.inv(basis)
    eigenvalues = []
    residual = 0.0
    for m in mats:
        fm = np.array([[float(x) for x in row] for row in m])
        diag = inv @ fm @ basis
        off = diag - np.diag(np.diag(diag))
        residual = max(residual, float(np.max(np.abs(off))))
        eigenvalues.append([complex(x) for x in np.diag(diag)])
    if residual > tol:
        raise ValueError("joint basis fails to diagonalize within %g" % tol)
    return JointDiagonalization(certificates, eigenvalues, basis, residual)


def cyclic_vector_test(matrices, dim, rng, trials=3):
    """Exact Krylov-span test for a cyclic vector of the generated algebra.

    Applies the matrices repeatedly to a random rational vector and closes
    the span; succeeds if some trial spans the whole space.  Returns
    (found, profile) where the profile lists the span dimension reached in
    each trial.
    """
    profile = []
    for _ in range(trials):
        vec = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
        if not any(vec):
            vec[0] = Fraction(1)
        span = SpanBuilder(dim)
        span.add(vec)
        frontier = [vec]
        while frontier:
            nxt = []
            for v in frontier:
                for m in matrices:
                    img = [sum(m[r][k] * v[k] for k in range(dim)) for r in range(dim)]
                    if any(img) and span.add(img):
                        nxt.append(img)
            frontier = nxt
            if len(span) == dim:
                break
        profile.append(len(span))
        if len(span) == dim:
            return True, profile
    return False, profile
