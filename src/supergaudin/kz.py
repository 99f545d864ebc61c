"""Numerical integration of the (super) KZ equations on one weight space.

The connection matrices are the exact two-site Casimir blocks of the
tensor's block store (``gaudin._stored_block``), read into floats once,
and ``gaudin.family_levels`` checks the convention and levels.
The exact flatness residual is the commutator residual of the quadratic
family over the same store: the derivative terms of the curvature cancel
identically (see ``flatness_residual``).  Integration is floating point
with controlled local error.  Paths are piecewise linear in the
configuration space and must keep a fixed clearance from every diagonal
z_i = z_j; that clearance is also what lets ``gauge_transform`` continue
each log(z_i - z_j) from one sample to the next by a principal log.

The connection form is one contraction over the unordered pairs,

    sum_i dz_i H^i(z) / kappa = sum_{i<j} (dz_i - dz_j) / (kappa (z_i - z_j)) Omega^{(ij)},

over a single real stack of the blocks Omega^{(ij)}, i < j.  Along a
straight segment only the pairs with dz_i != dz_j contribute, and their
coefficients are fixed up to the affine denominator, so a right-hand side
is one contraction of the coefficients with the stack plus one matmul.
One segment driver steps the package's own DOP853 (``_dop853``, an
explicit Runge-Kutta method of order 8 with embedded error estimates) and
carries a complex (d, k) state, so a single vector (``integrate_path``)
and a whole basis (``monodromy``, one joint integration instead of one
per column) share it.

This layer is where numpy comes in.  The package resolves the KZ names
on access and never imports this module itself, so ``import
supergaudin`` and the exact layers run without numpy; the CLI imports
this module, and numpy with it, at start-up.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from ._dop853 import DOP853, EPS
from .algebra import simple_raising_ops
from .gaudin import (
    _omega_spec,
    _stored_block,
    central_constant,
    family_levels,
    pairwise_commutator_residual,
    quadratic_family,
)

DIAGONAL_CLEARANCE = 1e-3
# bound on the modulus of a waypoint coordinate and of a psi0 entry: it
# keeps every coordinate difference, and its square in the clearance test,
# finite; a modulus is taken after dividing by it, so it cannot overflow
MAX_MODULUS = 1e100


class KZSystem:
    """kappa d/dz_i psi = H^i psi on the mu weight space of a tensor product.

    The convention is "plain" (Hamiltonians from the plain Casimir) or
    "central" (extended Casimir acting through iota, honest K terms).
    """

    def __init__(self, tensor, mu, kappa=1, convention="plain", levels=None):
        if not (complex(kappa) and cmath.isfinite(complex(kappa))):
            raise ValueError("kappa must be finite and nonzero, got %r" % (kappa,))
        self.levels = family_levels(tensor, convention, levels)
        self.tensor = tensor
        self.mu = mu
        self.kappa = kappa
        self.convention = convention
        self.ell = len(tensor.factors)
        self.dim = tensor.dim(mu)
        if not self.dim:
            raise ValueError("mu is not a weight of the tensor product")
        central = convention == "central"
        d = self.dim
        # Omega^{(ij)} = Omega^{(ji)}: one float stack over the unordered
        # pairs, indexed like the 0-based sites below
        sites = []
        blocks = []
        for i in range(1, self.ell + 1):
            for j in range(i + 1, self.ell + 1):
                block = _stored_block(tensor, _omega_spec(central, i, j, self.levels), mu)
                sites.append((i - 1, j - 1))
                blocks.append(np.zeros((d, d)) if block is None else np.array(block, dtype=float))
        self._sites = np.array(sites, dtype=int).reshape(len(sites), 2).T
        self._omega = np.array(blocks, dtype=float).reshape(len(sites), d, d)
        self._raising_float = []
        for op in simple_raising_ops(tensor.index_set):
            res = tensor.act(op, mu)
            if res is not None:
                self._raising_float.append(np.array(res[1], dtype=complex))

    def family(self, z):
        """The exact quadratic family at rational points, from the pair store."""
        return quadratic_family(self.tensor, z, self.convention, self.levels)

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

    def to_json(self):
        return {
            "path": [[[zc.real, zc.imag] for zc in wp] for wp in self.path],
            "samples": [
                dict(s, z=[[zc.real, zc.imag] for zc in s["z"]], psi=[[c.real, c.imag] for c in s["psi"]])
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
    """Waypoints as complex tuples of one length (ell when given), of
    modulus at most MAX_MODULUS, each segment keeping DIAGONAL_CLEARANCE
    from every diagonal."""
    path = [tuple(complex(z) for z in wp) for wp in path]
    if len(path) < 1:
        raise ValueError("empty path")
    ell = len(path[0]) if ell is None else ell
    for k, wp in enumerate(path):
        if len(wp) != ell:
            raise ValueError("waypoint %d has %d coordinates, need %d" % (k, len(wp), ell))
        # a nan passes every clearance and closedness comparison, and the
        # stepper would then retry a nan step forever
        if not all(map(cmath.isfinite, wp)):
            raise ValueError("waypoint %d has a non-finite coordinate" % k)
        if any(abs(z / MAX_MODULUS) > 1 for z in wp):
            raise ValueError("waypoint %d has a coordinate of modulus above %g" % (k, MAX_MODULUS))
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
    t runs from 0 to the number of segments.  Each segment is one stepper
    run on [Re psi; Im psi], with the absolute tolerance set from the
    largest column norm at the segment start.
    """
    if not 100 * EPS <= rel_tol < 1:
        # the stepper never finishes a step at 0 or nan, and would raise a
        # tolerance below 100 EPS to that floor with only a warning
        raise ValueError(
            "rel_tol must be a number in (0, 1), at least 100 EPS = %g, got %r" % (100 * EPS, rel_tol)
        )
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
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise RuntimeError("integration failed on segment %d: %s" % (seg, message))
            tl = solver.t
            psi = (solver.y[:n] + 1j * solver.y[n:]).reshape(psi.shape)
            yield seg + tl, tuple(pc + (qc - pc) * tl for pc, qc in zip(p, q)), psi


def integrate_path(system, path, psi0, rel_tol=1e-10):
    """Transport psi0 along the path with an adaptive embedded RK scheme.

    Returns a PathSolution with samples at the accepted steps of the
    segment driver (the start included); the parameter runs from 0 to the
    number of segments.  Every waypoint must have system.ell coordinates,
    and psi0 system.dim finite entries of modulus at most MAX_MODULUS.
    """
    path = check_path(path, system.ell)
    psi = [complex(c) for c in psi0]
    if len(psi) != system.dim:
        raise ValueError("psi0 has the wrong dimension")
    if not all(abs(c / MAX_MODULUS) <= 1 for c in psi):
        raise ValueError("psi0 needs finite entries of modulus at most %g" % MAX_MODULUS)
    samples = []
    for t, z, vec in _transport(system, path, np.array(psi, dtype=complex)[:, None], rel_tol):
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
    return max(s["raising_ratio"] for s in solution.samples)


def flatness_residual(system, point, h=None):
    """Curvature residual max_{i,j} |d_i H^j - d_j H^i - (1/kappa)[H^i, H^j]|.

    With rational points, a real kappa and no step the result is an exact
    Fraction: the max-norm of the commutators [H^i, H^j] over |kappa|; a
    complex kappa needs the step.  The derivative terms cancel
    identically, since d_i H^j = Omega^{(ji)}/(z_j - z_i)^2 and d_j H^i =
    Omega^{(ij)}/(z_i - z_j)^2 read the same stored block with the same
    coefficient.  Passing a step h switches to the floating
    finite-difference cross-check, which differentiates numerically; h
    must then be finite and nonzero.  It visits pairs i < j only, since the
    (j, i) residual is the negative of the (i, j) one.
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
        try:
            kappa = Fraction(system.kappa)
        except (TypeError, ValueError):
            raise ValueError(
                "the exact residual needs a real kappa, got %r; pass a step h for the float path"
                % (system.kappa,)
            ) from None
        fam = system.family(z)
        return pairwise_commutator_residual(fam.matrices(system.mu)) / abs(kappa)
    kappa = complex(system.kappa)

    def derivative(k, i):
        # d_k H^i by a central difference of step h
        zp = list(z)
        zm = list(z)
        zp[k - 1] += h
        zm[k - 1] -= h
        return (system.hamiltonian_float(i, zp) - system.hamiltonian_float(i, zm)) / (2 * h)

    worst = 0.0
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            di_hj = derivative(i, j)
            dj_hi = derivative(j, i)
            hi = system.hamiltonian_float(i, z)
            hj = system.hamiltonian_float(j, z)
            resid = di_hj - dj_hi - (hi @ hj - hj @ hi) / kappa
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def _continuous_logs(zs):
    """Continuously continued log(z_i - z_j) along a sample sequence.

    Consecutive samples lie on one straight segment of a checked path, and
    that segment keeps DIAGONAL_CLEARANCE from every diagonal.  So z_i - z_j
    moves along a segment that misses 0, its argument turns by less than
    pi between samples, and the principal log of the ratio is the exact
    continuation step.
    """
    ell = len(zs[0])
    pairs = [(i, j) for i in range(ell) for j in range(i + 1, ell)]
    current = {(i, j): cmath.log(zs[0][i] - zs[0][j]) for i, j in pairs}
    logs = [dict(current)]
    for prev, here in zip(zs, zs[1:]):
        for i, j in pairs:
            current[(i, j)] += cmath.log((here[i] - here[j]) / (prev[i] - prev[j]))
        logs.append(dict(current))
    return pairs, logs


def gauge_exponent(p, q, levels, kappa, flavor="super"):
    """Per-pair exponent -c d_i d_j / kappa of the plain-to-central gauge
    factor, with c the ``gaudin.central_constant`` of the flavor."""
    c = central_constant(p, q, flavor)
    d = [complex(x) for x in levels]
    return {(i, j): -c * (d[i] * d[j] / complex(kappa)) for i in range(len(d)) for j in range(i + 1, len(d))}


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
        new_samples.append(dict(s, psi=vec, norm=float(np.linalg.norm(vec))))
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
