"""Numerical integration of the (super) KZ equations on one weight space.

The connection matrices come from the exact two-site Casimir blocks, so
building a system is exact; integration is floating point with controlled
local error.  Paths are piecewise linear in the configuration space and
must keep a fixed clearance from every diagonal z_i = z_j.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

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
        self.levels = [Fraction(x) for x in (levels or [f.level for f in tensor.factors])]
        self.ell = len(tensor.factors)
        self.dim = tensor.dim(mu)
        if not self.dim:
            raise ValueError("mu is not a weight of the tensor product")
        cas = casimir(tensor.index_set, central=(convention == "central"))
        d = self.dim
        zero = [[Fraction(0)] * d for _ in range(d)]
        # Omega^{(ij)} = Omega^{(ji)}: one block per unordered pair, both keys
        self._pairs = {}
        self._pairs_float = {}
        for i in range(1, self.ell + 1):
            for j in range(i + 1, self.ell + 1):
                block = pair_matrix(tensor, cas, i, j, mu, levels=self.levels)
                block = block if block is not None else zero
                fblock = np.array([[float(x) for x in row] for row in block], dtype=complex)
                self._pairs[(i, j)] = self._pairs[(j, i)] = block
                self._pairs_float[(i, j)] = self._pairs_float[(j, i)] = fblock
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

    def hamiltonian_float(self, i, z):
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(1, self.ell + 1):
            if j == i:
                continue
            total += self._pairs_float[(i, j)] / (z[i - 1] - z[j - 1])
        return total

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


def check_path(path):
    path = [tuple(complex(z) for z in wp) for wp in path]
    if len(path) < 1:
        raise ValueError("empty path")
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


def integrate_path(system, path, psi0, rel_tol=1e-10):
    """Transport psi0 along the path with an adaptive embedded RK scheme.

    Returns a PathSolution with samples at the accepted solver steps; the
    parameter runs from 0 to the number of segments.
    """
    path = check_path(path)
    psi = np.array([complex(c) for c in psi0], dtype=complex)
    if len(psi) != system.dim:
        raise ValueError("psi0 has the wrong dimension")
    kappa = complex(system.kappa)
    samples = []

    def record(tglobal, z, vec):
        samples.append(
            {
                "t": tglobal,
                "z": tuple(z),
                "psi": vec.copy(),
                "norm": float(np.linalg.norm(vec)),
                "raising_ratio": system.raising_ratio(vec),
            }
        )

    record(0.0, path[0], psi)
    n = system.dim
    for seg, (p, q) in enumerate(zip(path, path[1:])):
        delta = [qc - pc for pc, qc in zip(p, q)]
        if all(abs(dv) == 0.0 for dv in delta):
            continue

        def rhs(t, y):
            z = [pc + dv * t for pc, dv in zip(p, delta)]
            vec = y[:n] + 1j * y[n:]
            acc = np.zeros(n, dtype=complex)
            for i in range(1, system.ell + 1):
                if delta[i - 1] == 0:
                    continue
                acc += (delta[i - 1] / kappa) * (system.hamiltonian_float(i, z) @ vec)
            return np.concatenate([acc.real, acc.imag])

        y0 = np.concatenate([psi.real, psi.imag])
        sol = solve_ivp(
            rhs,
            (0.0, 1.0),
            y0,
            method="DOP853",
            rtol=rel_tol,
            atol=rel_tol * max(1.0, float(np.linalg.norm(psi))) * 1e-2,
            dense_output=False,
        )
        if not sol.success:
            raise RuntimeError("integration failed on segment %d: %s" % (seg, sol.message))
        for tl, col in zip(sol.t[1:], sol.y.T[1:]):
            vec = col[:n] + 1j * col[n:]
            z = tuple(pc + dv * tl for pc, dv in zip(p, delta))
            record(seg + tl, z, vec)
        psi = sol.y.T[-1][:n] + 1j * sol.y.T[-1][n:]
    return PathSolution(system, path, samples)


def singular_preservation(solution):
    """Max over samples of the raising-image ratio; small for singular starts."""
    return solution.max_raising_ratio()


def flatness_residual(system, point, h=None):
    """Curvature residual max_{i,j} |d_i H^j - d_j H^i - (1/kappa)[H^i, H^j]|.

    With rational points and no step the derivatives are computed from the
    closed form of the z-dependence, so the result is an exact Fraction.
    Passing a step h switches to the floating finite-difference cross-check.
    """
    ell = system.ell
    if h is None:
        z = [Fraction(x) for x in point]
        if len(set(z)) != len(z):
            raise ValueError("point lies on a diagonal")
        kappa = Fraction(system.kappa)
        hs = system.family(z).matrices(system.mu)
        worst = Fraction(0)
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                if i == j:
                    continue
                # d/dz_i of H^j picks the single term Omega^{(ji)}/(z_j-z_i)
                di_hj = mat_scale(system._pairs[(j, i)], 1 / (z[j - 1] - z[i - 1]) ** 2)
                dj_hi = mat_scale(system._pairs[(i, j)], 1 / (z[i - 1] - z[j - 1]) ** 2)
                hi = hs[i - 1]
                hj = hs[j - 1]
                resid = mat_sub(mat_sub(di_hj, dj_hi), mat_scale(commutator(hi, hj), 1 / kappa))
                worst = max(worst, max_abs(resid))
        return worst
    z = [complex(x) for x in point]
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
    """Transport matrix of a closed loop: columns are transported basis vectors."""
    loop = check_path(loop)
    scale = max(1.0, max(abs(z) for wp in loop for z in wp))
    if any(abs(a - b) > 1e-9 * scale for a, b in zip(loop[0], loop[-1])):
        raise ValueError("loop must be closed")
    loop = loop[:-1] + [loop[0]]
    n = system.dim
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        sol = integrate_path(system, loop, e, rel_tol=rel_tol)
        cols.append(sol.final_psi)
    return np.array(cols).T
