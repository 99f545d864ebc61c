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

Block store.  The Hamiltonians are sums of z-independent invariant
blocks with rational z-coefficients, so every member of every family is a
list of (z-coefficient, block spec) terms over one store: the
``pair_store`` dict of the tensor itself, which lives exactly as long as
the tensor object.  Duality tensors are memoized for the life of the
process (``modules.polynomial_tensor``), so one store serves every
singular weight mu of a factor list.  It holds two kinds of block:

- the two-site Casimir Omega^{(ij)}, named ("omega", central, levels,
  min(i, j), max(i, j)); Omega^{(ij)} = Omega^{(ji)}, so one entry serves
  both orders, and ``levels`` is None in the plain convention, which
  ignores them.  H^i(z) = sum_{j != i} Omega^{(ij)}/(z_i - z_j);
- the cubic block T(a, b, c) = sum_{r,s,t} sign(r, s, t) E_{rs}^{(a)}
  E_{tr}^{(b)} E_{st}^{(c)}, named ("cubic", a, b, c); ``cubic_family``
  combines these into C_i and D_i.

A block on a weight space is keyed by (spec, weight, None); its
restriction to a subspace by (spec, weight, basis vectors), so the
convention and the levels are part of every restricted key too.  Callers
get fresh copies (``pair_matrix``, ``HamiltonianFamily.matrix``,
``restricted``), so nothing they mutate reaches the store.
``HamiltonianFamily.restricted`` restricts each block separately, so the
subspace must be invariant under every block of the member, not just
under the member.  Singular spaces always are: every block is an
invariant tensor, so it commutes with the diagonal action, raising
operators included.
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


def _omega_spec(tensor, central, i, j, levels):
    """The store name of Omega^{(ij)}: levels are None in the plain
    convention, which ignores them, and default to the factor levels."""
    if not central:
        levels = None
    elif levels is None:
        levels = tuple(Fraction(f.level) for f in tensor.factors)
    else:
        levels = tuple(Fraction(x) for x in levels)
    return ("omega", central, levels, min(i, j), max(i, j))


def _block_words(tensor, spec):
    """(word, coefficient) pairs summing to the block named by ``spec``."""
    if spec[0] == "omega":
        _, central, _, i, j = spec
        for coeff, left, right in casimir(tensor.index_set, central).terms:
            yield [(left, i - 1), (right, j - 1)], _exact(coeff)
        return
    _, a, b, c = spec
    members = list(tensor.index_set)
    for r in members:
        for s in members:
            for t in members:
                word = [
                    (BasisElement(r, s), a - 1),
                    (BasisElement(t, r), b - 1),
                    (BasisElement(s, t), c - 1),
                ]
                yield word, _cubic_sign(r, s, t)


def _stored_block(tensor, spec, w, basis=None):
    """The block named by ``spec`` on the w-space, or restricted to the span
    of ``basis`` (a tuple of tuples), from the store; None when it vanishes.
    The rows are shared: never mutate them."""
    store = tensor.pair_store
    key = (spec, w, basis)
    if key in store:
        return store[key]
    omega = spec[0] == "omega"
    if basis is not None:
        if omega:
            # through the public two-site entry, which perfbench/tracer.py counts
            cas = casimir(tensor.index_set, spec[1])
            mat = pair_matrix(tensor, cas, spec[3], spec[4], w, spec[2])
        else:
            mat = _stored_block(tensor, spec, w)
        store[key] = None if mat is None else restrict_to_basis(mat, basis)
        return store[key]
    levels, twisted = (spec[2], spec[1]) if omega else (None, False)
    d = tensor.dim(w)
    total = [[0] * d for _ in range(d)]
    nonzero = False
    for word, coeff in _block_words(tensor, spec):
        nonzero |= add_word(total, tensor, word, w, coeff, levels, twisted)
    store[key] = [[_exact(x) for x in row] for row in total] if nonzero else None
    return store[key]


def pair_matrix(tensor, cas, i, j, w, levels=None):
    """Exact matrix of the (i, j) two-site Casimir action on the w-space.

    Served from the tensor's block store; returns fresh dense rows, or None
    when every Casimir term vanishes there.  ``cas`` must be
    ``casimir(tensor.index_set, central)``: the store keys on its
    convention only.
    """
    block = _stored_block(tensor, _omega_spec(tensor, cas.central, i, j, levels), w)
    return None if block is None else [row[:] for row in block]


class HamiltonianFamily:
    """A z-parameterized commuting family on the weight spaces of a tensor.

    kind is "quadratic", "cubicC" or "cubicD"; the convention is "plain"
    (no K terms) or "central" (extended Casimir through iota).  Member i is
    a list of (z-coefficient, block spec) terms over the tensor's store.
    """

    def __init__(self, tensor, z, kind, convention, levels):
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
        self._members = [self._member(i) for i in range(1, len(z) + 1)]

    @property
    def ell(self):
        return len(self.z)

    def _member(self, i):
        zi = self.z[i - 1]
        others = [j for j in range(1, self.ell + 1) if j != i]
        pole = {j: 1 / (zi - self.z[j - 1]) for j in others}
        if self.kind == "quadratic":
            central = self.convention == "central"
            return [(pole[j], _omega_spec(self.tensor, central, i, j, self.levels)) for j in others]
        if self.kind == "cubicD":
            return [(pole[j], ("cubic", j, i, i)) for j in others]
        terms = []
        for j in others:
            terms += [(pole[j] * pole[k], ("cubic", i, j, k)) for k in others if k != j]
            terms += [(pole[j] ** 2, ("cubic", i, j, j)), (-pole[j] ** 2, ("cubic", j, i, i))]
        return terms

    def _combine(self, i, w, basis):
        if not 1 <= i <= self.ell:
            raise ValueError("site index out of range")
        d = self.tensor.dim(w) if basis is None else len(basis)
        total = [[Fraction(0)] * d for _ in range(d)]
        for coeff, spec in self._members[i - 1]:
            block = _stored_block(self.tensor, spec, w, basis)
            if block is None:
                continue
            for trow, brow in zip(total, block):
                for c, x in enumerate(brow):
                    if x:
                        trow[c] += coeff * x
        return total

    def matrix(self, i, w):
        """Exact matrix of the i-th Hamiltonian (1-based) on the w-space."""
        return self._combine(i, w, None)

    def matrices(self, w):
        return [self.matrix(i, w) for i in range(1, self.ell + 1)]

    def restricted(self, i, space):
        """The i-th Hamiltonian on a subspace invariant under every stored
        block of the member (a singular space, say), combined from the
        stored restricted blocks."""
        return self._combine(i, space.weight, tuple(tuple(vec) for vec in space.basis))


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
    return HamiltonianFamily(tensor, z, "quadratic", convention, levels)


def _cubic_sign(r, s, t):
    # (-1)^{2(s+t)(2(r+t)+1)} reduced mod 2 through index parities
    e = (s.parity ^ t.parity) & (r.parity ^ t.parity ^ 1)
    return -1 if e else 1


def cubic_family(tensor, z, kind):
    """The cubic Hamiltonians extracted from the degree-three supertrace.

    With the stored blocks T(a, b, c) (see the module docstring),

        C_i = sum_{j != k, both != i} T(i, j, k) / ((z_i - z_j)(z_i - z_k))
              + sum_{j != i} (T(i, j, j) - T(j, i, i)) / (z_i - z_j)^2,
        D_i = sum_{j != i} T(j, i, i) / (z_i - z_j).

    Defined for p = q = 0 flavors only, in the plain convention.
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
    levels = [f.level for f in tensor.factors]
    return HamiltonianFamily(tensor, z, "cubic" + kind, "plain", levels)


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
    mats_b = fam_b.matrices(w)
    for ma in fam_a.matrices(w):
        for mb in mats_b:
            r = commutator_residual(ma, mb)
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
