"""Casimir tensors and quadratic/cubic Gaudin Hamiltonians as exact matrices.

Hamiltonians act per weight space of a tensor product; all matrices are
rational once the points z are rational.  The central-extension convention
is assembled honestly from the extended Casimir tensor (with its K terms)
acting through the iota-twisted generator actions, so the relation between
the two conventions is something the test suite verifies rather than a
definition.

``HamiltonianFamily(tensor, z, kind="quadratic", convention="plain",
levels=None)`` builds every family.  The kinds (``KINDS``) are the
quadratic H^i = sum_{j != i} Omega^{(ij)} / (z_i - z_j), in the plain or
the central convention (``CONVENTIONS``), and the cubic

    C_i = sum_{j != k, both != i} T(i, j, k) / ((z_i - z_j)(z_i - z_k))
          + sum_{j != i} (T(i, j, j) - T(j, i, i)) / (z_i - z_j)^2,
    D_i = sum_{j != i} T(j, i, i) / (z_i - z_j)

(T the cubic block below), which exist only on a polynomial index set
(p = q = 0) and in the plain convention.  The constructor
raises ValueError for any other kind, convention or flavor, for levels
not one per factor (``family_levels``, which ``kz.KZSystem`` reads too)
and for points not pairwise distinct, one per factor and at least two.

Block store.  Every invariant operator on a weight space of a tensor is
a block of one store, owned by the tensor itself and served by
``TensorModule.stored``; it lives exactly as long as the tensor object.
Its blocks are tuples of row tuples, shared by every reader as they are.
The Hamiltonians are sums of these z-independent blocks with rational
z-coefficients, so every member of every family is a tuple of
(z-coefficient, block spec) terms over the store.  Duality tensors are
memoized for the life of the process (``modules.polynomial_tensor``), so
one store serves every singular weight mu of a factor list.  This module
names two kinds of stored block:

- the two-site Casimir Omega^{(ij)}, named ("omega", central, levels,
  min(i, j), max(i, j)); Omega^{(ij)} = Omega^{(ji)}, so one entry serves
  both orders, and ``levels`` is None in the plain convention, which
  ignores them;
- the cubic block T(a, b, c) = sum_{r,s,t} sign(r, s, t) E_{rs}^{(a)}
  E_{tr}^{(b)} E_{st}^{(c)}, named ("cubic", a, b, c), of which C_i and
  D_i are sums.

A third spec names a term list, not a stored block: the one-site Casimir
of degree k on one slot, ("site", k, slot), the sum over index chains of
(-1)^{2(r_1 + ... + r_{k-1})} E_{r_0 r_1} E_{r_1 r_2} ... E_{r_{k-1} r_0}.
The closed forms of the Lax supertraces (``laxmatrix``) read its words,
and those of the family members (``HamiltonianFamily.terms``), as
operator word sums: each closed form builds its word lists once per
tensor and points z, then reads them on every weight space.

``_block_terms`` writes each spec as a sum of operator words, so this
module alone owns the central extension: K and the ``algebra.iota``
pull-back of E_{aa}, a < 0, add multiples of the empty word.
``_stored_block`` hands these terms to the tensor, which builds the
block once through its column-application core.  A block on a weight
space is keyed by (spec, weight, None).  Its restriction to a subspace
is keyed by (spec, weight, basis vectors), so the convention and the
levels are part of every restricted key too; it acts on the basis
vectors only, never building the full block.  The family matrices
(``HamiltonianFamily.matrix``, ``restricted``) are fresh lists, and
``kz.KZSystem`` reads the shared Omega^{(ij)} blocks into floats at once.
``HamiltonianFamily.restricted`` restricts each block separately, so the
subspace must be invariant under every block of the member, not just
under the member.  Singular spaces always are: every block is an
invariant tensor, so it commutes with the diagonal action, raising
operators included.  Their ``nullspace`` bases are also in the
end-column form by which ``TensorModule.stored`` reads coordinates.
"""

import functools
from fractions import Fraction
from itertools import combinations, product

from .algebra import AlgebraElement, BasisElement, iota
from .linalg import (
    SpanBuilder,
    commutator,
    max_abs,
    squarefree_certificate,
)
from .weights import exact_scalar

K_SYMBOL = "K"

KINDS = ("quadratic", "cubicC", "cubicD")
CONVENTIONS = ("plain", "central")


def casimir(index_set, central=False):
    """The terms (coefficient, left op, right op) of the Casimir symmetric
    tensor of a flavor.

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
    return tuple(terms)


def _omega_spec(central, i, j, levels):
    """The store name of Omega^{(ij)} (slots 1-based) for the checked
    levels of ``family_levels``: levels are None in the plain convention,
    which ignores them."""
    return ("omega", central, tuple(levels) if central else None, min(i, j), max(i, j))


@functools.lru_cache(maxsize=None)
def _casimir_table(index_set, central):
    """The Casimir terms as (coefficient, left, right), built once per index
    set and convention.  A side is (op, pull): K has pull None; a unit's
    pull is minus its iota K coefficient in the central convention (the
    pull-back adds pull times the level to the empty word) and 0 in the
    plain one."""

    def side(op):
        if op == K_SYMBOL:
            return op, None
        return op, -iota(AlgebraElement.basis(op)).central if central else 0

    return tuple((exact_scalar(c), side(left), side(right)) for c, left, right in casimir(index_set, central))


def _block_terms(tensor, spec):
    """(coefficient, word) pairs summing to the block named by ``spec``, in
    the form ``TensorModule.apply`` reads (slots 0-based)."""
    members = list(tensor.index_set)
    if spec[0] == "omega":
        _, central, levels, i, j = spec

        def expand(side, slot):
            # (scalar, word) pairs for one side on the slot, zero scalars
            # left out: K acts by the level, a unit adds its pull-back shift
            op, pull = side
            if pull is None:
                return [(levels[slot], [])] if levels[slot] else []
            shift = pull * levels[slot] if pull else 0
            return [(1, [(op, slot)]), (shift, [])] if shift else [(1, [(op, slot)])]

        for coeff, left, right in _casimir_table(tensor.index_set, central):
            for a, u in expand(left, i - 1):
                for b, v in expand(right, j - 1):
                    yield coeff * a * b, u + v
        return
    if spec[0] == "site":
        _, k, slot = spec
        for chain in product(members, repeat=k):
            sign = -1 if sum(h.parity for h in chain[1:]) % 2 else 1
            yield sign, [(BasisElement(chain[t], chain[(t + 1) % k]), slot - 1) for t in range(k)]
        return
    _, a, b, c = spec
    for r in members:
        for s in members:
            for t in members:
                word = [(BasisElement(r, s), a - 1), (BasisElement(t, r), b - 1), (BasisElement(s, t), c - 1)]
                yield _cubic_sign(r, s, t), word


def _stored_block(tensor, spec, w, basis=None):
    """The block named by ``spec`` on the w-space, or restricted to the span
    of ``basis`` (a tuple of tuples), from the tensor's store; None when it
    vanishes."""
    res = tensor.stored(spec, _block_terms(tensor, spec), w, basis)
    if res is None:
        return None
    if res[0] != w:
        raise ValueError("operator product does not preserve the weight")
    return res[1]


def _marked_points(tensor, z):
    """The marked points as Fractions, pairwise distinct and one per tensor
    factor; ValueError otherwise."""
    z = tuple(Fraction(x) for x in z)
    if len(set(z)) != len(z):
        raise ValueError("z points must be pairwise distinct")
    if len(z) != len(tensor.factors):
        raise ValueError("need one z point per tensor factor")
    return z


class HamiltonianFamily:
    """A z-parameterized commuting family on the weight spaces of a tensor,
    checked as the module docstring says.  Member i is a tuple of
    (z-coefficient, block spec) terms over the tensor's store.
    """

    def __init__(self, tensor, z, kind="quadratic", convention="plain", levels=None):
        if kind not in KINDS:
            raise ValueError("kind must be one of %s, got %r" % (", ".join(KINDS), kind))
        levels = family_levels(tensor, convention, levels)
        if kind != "quadratic":
            if convention != "plain":
                raise ValueError("cubic Hamiltonians exist only in the plain convention")
            tensor.index_set.require_polynomial("cubic Hamiltonians")
        z = _marked_points(tensor, z)
        if len(z) < 2:
            raise ValueError("need at least two sites")
        self.tensor = tensor
        self.z = z
        self.kind = kind
        self.convention = convention
        self.levels = levels
        self._members = tuple(self._member(i) for i in range(1, len(z) + 1))

    @property
    def ell(self):
        return len(self.z)

    def _member(self, i):
        zi = self.z[i - 1]
        others = [j for j in range(1, self.ell + 1) if j != i]
        pole = {j: 1 / (zi - self.z[j - 1]) for j in others}
        if self.kind == "quadratic":
            central = self.convention == "central"
            return tuple((pole[j], _omega_spec(central, i, j, self.levels)) for j in others)
        if self.kind == "cubicD":
            return tuple((pole[j], ("cubic", j, i, i)) for j in others)
        terms = []
        for j in others:
            terms += [(pole[j] * pole[k], ("cubic", i, j, k)) for k in others if k != j]
            terms += [(pole[j] ** 2, ("cubic", i, j, j)), (-pole[j] ** 2, ("cubic", j, i, i))]
        return tuple(terms)

    def terms(self, i):
        """Member i (1-based) as its (z-coefficient, block spec) terms."""
        if not 1 <= i <= self.ell:
            raise ValueError("site index out of range")
        return self._members[i - 1]

    def _combine(self, i, w, basis):
        d = self.tensor.dim(w) if basis is None else len(basis)
        total = [[Fraction(0)] * d for _ in range(d)]
        for coeff, spec in self.terms(i):
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
        stored restricted blocks.  ``space.basis`` is a tuple of tuples, as
        ``singular_space`` builds it, and keys the store as it is."""
        return self._combine(i, space.weight, space.basis)


def family_levels(tensor, convention, levels):
    """The checked levels of a quadratic family or KZ system: one Fraction
    per tensor factor, the factor levels by default.  The plain
    convention keeps them too (a KZ system's gauge default) but its
    Hamiltonians ignore them."""
    if convention not in CONVENTIONS:
        raise ValueError("convention must be %s" % " or ".join(CONVENTIONS))
    if levels is None:
        levels = [f.level for f in tensor.factors]
    levels = [Fraction(x) for x in levels]
    if len(levels) != len(tensor.factors):
        raise ValueError("need one level per tensor factor")
    return levels


def _cubic_sign(r, s, t):
    # (-1)^{2(s+t)(2(r+t)+1)} reduced mod 2 through index parities
    e = (s.parity ^ t.parity) & (r.parity ^ t.parity ^ 1)
    return -1 if e else 1


def central_constant(index_set):
    """c = sum over the negative members a of ``index_set`` of (-1)^{2a}:
    p - q for the super flavor, -p for the classical one and 0 for the
    wide one.  The central Omega^{(ij)} is the plain one minus c d_i d_j."""
    return sum(-1 if a.parity else 1 for a in index_set if a.doubled < 0)


def central_shift(index_set, levels, z, i):
    """Scalar offset between plain and central-convention Hamiltonians:
    c sum_{j != i} d_i d_j / (z_i - z_j), with c the ``central_constant``
    of ``index_set``.  Sites are 1-based.
    """
    d = [Fraction(x) for x in levels]
    z = [Fraction(x) for x in z]
    poles = sum((d[i - 1] * d[j - 1] / (z[i - 1] - z[j - 1]) for j in range(1, len(z) + 1) if j != i), Fraction(0))
    return central_constant(index_set) * poles


def commutator_residual(A, B):
    """Exact max-norm of [A, B]."""
    return max_abs(commutator(A, B))


def pairwise_commutator_residual(mats):
    """Max over i < j of the exact norm of [M_i, M_j]; the i = j commutators
    vanish and [M_j, M_i] = -[M_i, M_j] has the same norm."""
    return max((commutator_residual(a, b) for a, b in combinations(mats, 2)), default=Fraction(0))


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


# bound on the modulus of an exact entry read into a float, and in kz of a
# waypoint coordinate or psi0 entry: a few sums and products stay finite
MAX_MODULUS = 1e100


class FloatRangeError(ValueError):
    """An exact matrix entry of modulus above MAX_MODULUS."""


def float_matrix(mat):
    """The exact matrix ``mat`` as a numpy float array; FloatRangeError
    for an entry of modulus above MAX_MODULUS or beyond every float."""
    import numpy as np

    try:
        arr = np.array(mat, dtype=float)
    except OverflowError:  # a Fraction too large for a float
        arr = None
    if arr is None or not (np.abs(arr) <= MAX_MODULUS).all():
        raise FloatRangeError("a matrix entry has modulus above %g, too large for the float stage" % MAX_MODULUS)
    return arr


def joint_diagonalize(mats, rng, tol=1e-9):
    """Certify and jointly diagonalize a commuting family of rational matrices.

    Exact part: pairwise commutators must vanish and every member must have
    a squarefree annihilating polynomial (the squarefree part of its
    characteristic polynomial), which certifies diagonalizability over the
    complex numbers.  Floating part: eigenvectors of a random real
    combination, checked to diagonalize each member within tol.
    """
    import numpy as np

    floats = [float_matrix(m) for m in mats]
    n = len(mats[0]) if mats else 0
    if pairwise_commutator_residual(mats):
        raise ValueError("family does not commute exactly")
    certificates = [squarefree_certificate(m) for m in mats]
    if n == 0:
        return JointDiagonalization(certificates, [[] for _ in mats], np.zeros((0, 0)), 0.0)
    coeffs = [rng.uniform(1, 2) for _ in mats]
    combo = np.zeros((n, n))
    for c, fm in zip(coeffs, floats):
        combo += c * fm
    _, vecs = np.linalg.eig(combo)
    basis = vecs
    inv = np.linalg.inv(basis)
    eigenvalues = []
    residual = 0.0
    for fm in floats:
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
