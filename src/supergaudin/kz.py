"""Numerical integration of the (super) KZ equations on one weight space.

The connection matrices come from the exact two-site Casimir blocks in the
tensor's block store (``gaudin.pair_matrix``), so building a system is
exact; the exact flatness residual reads its Omega^{(ij)} from the same
store.  Integration is floating point with controlled local error.  Paths
are piecewise linear in the configuration space and must keep a fixed
clearance from every diagonal z_i = z_j.

The connection form is one contraction over the unordered pairs,

    sum_i dz_i H^i(z) / kappa = sum_{i<j} (dz_i - dz_j) / (kappa (z_i - z_j)) Omega^{(ij)},

over a single real stack of the blocks Omega^{(ij)}, i < j.  Along a
straight segment only the pairs with dz_i != dz_j contribute, and their
coefficients are fixed up to the affine denominator, so a right-hand side
is one contraction of the coefficients with the stack plus one matmul.
One segment driver steps ``scipy.integrate.DOP853`` and carries a complex
(d, k) state, so a single vector (``integrate_path``) and a whole basis
(``monodromy``, one joint integration instead of one per column) share it.
A solver's ``fun`` closures refer back to the solver; the driver breaks
that cycle after each segment, so the solver and its stage arrays are
freed at once instead of at the next full garbage collection.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import DOP853

from .algebra import BasisElement
from .gaudin import casimir, pair_matrix, quadratic_family
from .linalg import commutator, mat_scale, mat_sub, max_abs

DIAGONAL_CLEARANCE = 1e-3


class KZSystem:
    """kappa d/dz_i psi = H^i psi on the mu weight space of a tensor product.

    The convention is "plain" (Hamiltonians from the plain Casimir) or
    "central" (extended Casimir acting through iota, honest K terms).
    """

    def __init__(self, tensor, mu, kappa=1, convention="plain", levels=None):
        if not complex(kappa):
            raise ValueError("kappa must be nonzero")
        if convention not in ("plain", "central"):
            raise ValueError("convention must be plain or central")
        self.tensor = tensor
        self.mu = mu
        self.kappa = kappa
        self.convention = convention
        if levels is None:
            levels = [f.level for f in tensor.factors]
        self.levels = [Fraction(x) for x in levels]
        self.ell = len(tensor.factors)
        if len(self.levels) != self.ell:
            raise ValueError("need one level per tensor factor")
        self.dim = tensor.dim(mu)
        if not self.dim:
            raise ValueError("mu is not a weight of the tensor product")
        cas = casimir(tensor.index_set, central=(convention == "central"))
        d = self.dim
        zero = [[Fraction(0)] * d for _ in range(d)]
        # Omega^{(ij)} = Omega^{(ji)}: one float stack over the unordered
        # pairs, indexed like the 0-based sites below
        sites = []
        blocks = []
        for i in range(1, self.ell + 1):
            for j in range(i + 1, self.ell + 1):
                block = pair_matrix(tensor, cas, i, j, mu, levels=self.levels)
                block = block if block is not None else zero
                sites.append((i - 1, j - 1))
                blocks.append([[float(x) for x in row] for row in block])
        self._sites = np.array(sites, dtype=int).reshape(len(sites), 2).T
        self._omega = np.array(blocks, dtype=float).reshape(len(sites), d, d)
        self._raising_float = []
        for a, b in tensor.index_set.simple_pairs():
            res = tensor.act(BasisElement(a, b), mu)
            if res is not None:
                self._raising_float.append(
                    np.array([[float(x) for x in row] for row in res[1]], dtype=complex)
                )

    def family(self, z):
        """The exact quadratic family at rational points, from the pair store."""
        return quadratic_family(self.tensor, z, self.convention, self.levels)

    def hamiltonian_exact(self, i, z):
        """Exact H^i at rational points."""
        return self.family(z).matrix(i, self.mu)

    def _live_pairs(self, z, dz):
        """Blocks of the pairs with dz_i != dz_j, with (dz_i - dz_j)/kappa,
        z_i - z_j and dz_i - dz_j for each."""
        a, b = self._sites
        z = np.asarray(z, dtype=complex)
        dz = np.asarray(dz, dtype=complex)
        slope = dz[a] - dz[b]
        live = slope != 0
        slope = slope[live]
        return self._omega[live], slope / complex(self.kappa), (z[a] - z[b])[live], slope

    def hamiltonian_float(self, i, z):
        """Float H^i at complex points: the connection form at dz = kappa e_i."""
        dz = np.zeros(self.ell, dtype=complex)
        dz[i - 1] = self.kappa
        omega, num, diff, _ = self._live_pairs(z, dz)
        return np.tensordot(num / diff, omega, 1)

    def _segment_rhs(self, p, q):
        """Right-hand side of kappa dPsi/dt = sum_i (q_i - p_i) H^i(z(t)) Psi
        along z(t) = p + t (q - p), for a state [Re Psi; Im Psi] flattened
        from a complex (d, k) matrix Psi."""
        p = np.asarray(p, dtype=complex)
        omega, num, base, slope = self._live_pairs(p, np.asarray(q, dtype=complex) - p)
        d = self.dim
        flat = omega.reshape(len(num), d * d)
        # the connection A = Ar + i Ai acts on [Re Psi; Im Psi] as the real
        # block matrix [[Ar, -Ai], [Ai, Ar]], refilled in place on each call
        field = np.empty((2 * d, 2 * d))

        def rhs(t, y):
            coef = num / (base + t * slope)
            re, im = (np.stack((coef.real, coef.imag)) @ flat).reshape(2, d, d)
            field[:d, :d] = field[d:, d:] = re
            field[d:, :d] = im
            np.negative(im, out=field[:d, d:])
            return (field @ y.reshape(2 * d, -1)).ravel()

        return rhs

    def raising_ratio(self, psi):
        """Max ratio of raising-operator image norms to the vector norm."""
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            return 0.0
        worst = 0.0
        for mat in self._raising_float:
            worst = max(worst, float(np.linalg.norm(mat @ psi)) / norm)
        return worst


class PathSolution:
    """Samples of one integrated trajectory along a piecewise-linear path."""

    def __init__(self, system, path, samples):
        self.system = system
        self.path = path
        self.samples = samples

    @property
    def final_psi(self):
        return self.samples[-1]["psi"]

    def max_raising_ratio(self):
        return max(s["raising_ratio"] for s in self.samples)

    def to_json(self):
        return {
            "path": [[[zc.real, zc.imag] for zc in wp] for wp in self.path],
            "samples": [
                {
                    "t": s["t"],
                    "z": [[zc.real, zc.imag] for zc in s["z"]],
                    "psi": [[c.real, c.imag] for c in s["psi"]],
                    "norm": s["norm"],
                    "raising_ratio": s["raising_ratio"],
                }
                for s in self.samples
            ],
        }


def _segment_clearance(p, q):
    """Min over index pairs of min_t |(1-t) d_p + t d_q| for the differences."""
    ell = len(p)
    worst = math.inf
    for i in range(ell):
        for j in range(i + 1, ell):
            a = p[i] - p[j]
            b = (q[i] - q[j]) - a
            denom = abs(b) ** 2
            t = 0.0 if denom == 0.0 else min(1.0, max(0.0, -(a.conjugate() * b).real / denom))
            worst = min(worst, abs(a + b * t))
    return worst


def check_path(path, ell=None):
    """Waypoints as complex tuples of one length (ell when given), each
    segment keeping DIAGONAL_CLEARANCE from every diagonal."""
    path = [tuple(complex(z) for z in wp) for wp in path]
    if len(path) < 1:
        raise ValueError("empty path")
    ell = len(path[0]) if ell is None else ell
    for k, wp in enumerate(path):
        if len(wp) != ell:
            raise ValueError("waypoint %d has %d coordinates, need %d" % (k, len(wp), ell))
    for p, q in zip(path, path[1:]):
        if _segment_clearance(p, q) < DIAGONAL_CLEARANCE:
            raise ValueError(
                "path approaches a diagonal closer than %g" % DIAGONAL_CLEARANCE
            )
    if len(path) == 1:
        single = _segment_clearance(path[0], path[0])
        if single < DIAGONAL_CLEARANCE:
            raise ValueError("basepoint too close to a diagonal")
    return path


def _transport(system, path, psi, rel_tol):
    """Carry the complex (d, k) matrix psi along a checked path.

    Yields (t, z, psi) at the start and after every accepted DOP853 step;
    t runs from 0 to the number of segments.  Each segment is one solver
    run on [Re psi; Im psi], with the absolute tolerance set from the
    largest column norm at the segment start.
    """
    n = psi.size
    yield 0.0, path[0], psi
    for seg, (p, q) in enumerate(zip(path, path[1:])):
        if p == q:
            continue
        scale = max(1.0, max(float(np.linalg.norm(col)) for col in psi.T))
        solver = DOP853(
            system._segment_rhs(p, q),
            0.0,
            np.concatenate([psi.real.ravel(), psi.imag.ravel()]),
            1.0,
            rtol=rel_tol,
            atol=rel_tol * scale * 1e-2,
        )
        try:
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise RuntimeError("integration failed on segment %d: %s" % (seg, message))
                tl = solver.t
                psi = (solver.y[:n] + 1j * solver.y[n:]).reshape(psi.shape)
                yield seg + tl, tuple(pc + (qc - pc) * tl for pc, qc in zip(p, q)), psi
        finally:
            # OdeSolver.fun and .fun_vectorized close over the solver; without
            # this the solver and its stage arrays wait for a full collection
            del solver.fun, solver.fun_vectorized


def integrate_path(system, path, psi0, rel_tol=1e-10):
    """Transport psi0 along the path with an adaptive embedded RK scheme.

    Returns a PathSolution with samples at the accepted steps of the
    segment driver (the start included); the parameter runs from 0 to the
    number of segments.  Every waypoint must have system.ell coordinates.
    """
    path = check_path(path, system.ell)
    psi = np.array([complex(c) for c in psi0], dtype=complex)
    if len(psi) != system.dim:
        raise ValueError("psi0 has the wrong dimension")
    samples = []
    for t, z, vec in _transport(system, path, psi[:, None], rel_tol):
        vec = vec[:, 0].copy()
        samples.append(
            {
                "t": t,
                "z": z,
                "psi": vec,
                "norm": float(np.linalg.norm(vec)),
                "raising_ratio": system.raising_ratio(vec),
            }
        )
    return PathSolution(system, path, samples)


def singular_preservation(solution):
    """Max over samples of the raising-image ratio; small for singular starts."""
    return solution.max_raising_ratio()


def flatness_residual(system, point, h=None):
    """Curvature residual max_{i,j} |d_i H^j - d_j H^i - (1/kappa)[H^i, H^j]|.

    With rational points and no step the derivatives are computed from the
    closed form of the z-dependence, so the result is an exact Fraction.
    Passing a step h switches to the floating finite-difference cross-check;
    h must then be finite and nonzero.
    """
    ell = system.ell
    if len(point) != ell:
        raise ValueError("need %d points, got %d" % (ell, len(point)))
    if h is not None and not (cmath.isfinite(h) and h != 0):
        raise ValueError("the finite-difference step must be finite and nonzero, got %r" % (h,))
    z = [Fraction(x) if h is None else complex(x) for x in point]
    if len(set(z)) != ell:
        raise ValueError("point lies on a diagonal")
    if h is None:
        kappa = Fraction(system.kappa)
        hs = system.family(z).matrices(system.mu)
        cas = casimir(system.tensor.index_set, central=(system.convention == "central"))
        d = system.dim

        def omega(i, j):
            block = pair_matrix(system.tensor, cas, i, j, system.mu, levels=system.levels)
            return block if block is not None else [[Fraction(0)] * d for _ in range(d)]

        worst = Fraction(0)
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                if i == j:
                    continue
                # d/dz_i of H^j picks the single term Omega^{(ji)}/(z_j-z_i)
                di_hj = mat_scale(omega(j, i), 1 / (z[j - 1] - z[i - 1]) ** 2)
                dj_hi = mat_scale(omega(i, j), 1 / (z[i - 1] - z[j - 1]) ** 2)
                hi = hs[i - 1]
                hj = hs[j - 1]
                resid = mat_sub(mat_sub(di_hj, dj_hi), mat_scale(commutator(hi, hj), 1 / kappa))
                worst = max(worst, max_abs(resid))
        return worst
    kappa = complex(system.kappa)
    worst = 0.0
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            if i == j:
                continue
            zp = list(z)
            zm = list(z)
            zp[i - 1] += h
            zm[i - 1] -= h
            di_hj = (system.hamiltonian_float(j, zp) - system.hamiltonian_float(j, zm)) / (2 * h)
            zp = list(z)
            zm = list(z)
            zp[j - 1] += h
            zm[j - 1] -= h
            dj_hi = (system.hamiltonian_float(i, zp) - system.hamiltonian_float(i, zm)) / (2 * h)
            hi = system.hamiltonian_float(i, z)
            hj = system.hamiltonian_float(j, z)
            resid = di_hj - dj_hi - (hi @ hj - hj @ hi) / kappa
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def _continuous_logs(zs):
    """Continuously continued log(z_i - z_j) along a sample sequence.

    Consecutive samples lie on straight segments in configuration space, so
    refining linearly between them tracks the argument without ever
    re-evaluating a principal branch across a cut.
    """
    ell = len(zs[0])
    pairs = [(i, j) for i in range(ell) for j in range(i + 1, ell)]
    logs = [{}]
    current = {}
    for i, j in pairs:
        current[(i, j)] = cmath.log(zs[0][i] - zs[0][j])
    logs[0] = dict(current)
    for prev, here in zip(zs, zs[1:]):
        for i, j in pairs:
            a = prev[i] - prev[j]
            b = here[i] - here[j]
            steps = 1
            while True:
                ok = True
                val = current[(i, j)]
                ref = a
                for s in range(1, steps + 1):
                    target = a + (b - a) * (s / steps)
                    d = target / ref
                    if abs(cmath.phase(d)) > 1.5:
                        ok = False
                        break
                    val += cmath.log(d)
                    ref = target
                if ok:
                    current[(i, j)] = val
                    break
                steps *= 2
                if steps > 4096:
                    raise RuntimeError("cannot track the branch; path too coarse")
        logs.append(dict(current))
    return pairs, logs


def gauge_exponent(p, q, levels, kappa, flavor="super"):
    """Per-pair exponent of the plain-to-central gauge factor."""
    levels = [complex(x) for x in levels]
    kappa = complex(kappa)
    out = {}
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            base = levels[i] * levels[j] / kappa
            out[(i, j)] = (q - p) * base if flavor == "super" else p * base
    return out


def gauge_transform(solution, direction, p, q, levels=None, flavor="super"):
    """Multiply a trajectory by prod (z_i - z_j)^alpha with branch tracking.

    direction "plain_to_central" applies the factor; "central_to_plain"
    applies its inverse.  The transformed samples satisfy the other
    convention's equations.
    """
    if direction not in ("plain_to_central", "central_to_plain"):
        raise ValueError("unknown direction %r" % (direction,))
    system = solution.system
    levels = levels if levels is not None else system.levels
    expo = gauge_exponent(p, q, levels, system.kappa, flavor=flavor)
    sign = 1.0 if direction == "plain_to_central" else -1.0
    zs = [s["z"] for s in solution.samples]
    pairs, logs = _continuous_logs(zs)
    new_samples = []
    for s, logmap in zip(solution.samples, logs):
        factor = cmath.exp(sign * sum(expo[pair] * logmap[pair] for pair in pairs))
        vec = s["psi"] * factor
        new_samples.append(
            {
                "t": s["t"],
                "z": s["z"],
                "psi": vec,
                "norm": float(np.linalg.norm(vec)),
                "raising_ratio": s["raising_ratio"],
            }
        )
    return PathSolution(system, solution.path, new_samples)


def monodromy(system, loop, rel_tol=1e-10):
    """Transport matrix of a closed loop: columns are transported basis vectors.

    The d x d identity is carried around the loop as one state, so the
    whole basis shares every solver step.
    """
    loop = check_path(loop, system.ell)
    scale = max(1.0, max(abs(z) for wp in loop for z in wp))
    if any(abs(a - b) > 1e-9 * scale for a, b in zip(loop[0], loop[-1])):
        raise ValueError("loop must be closed")
    loop = loop[:-1] + [loop[0]]
    for _, _, mat in _transport(system, loop, np.eye(system.dim, dtype=complex), rel_tol):
        pass
    return mat
