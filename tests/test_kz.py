"""KZ systems: flatness, integration, gauge factors, monodromy."""

import cmath
import gc
import math
import random
import warnings
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin._dop853 import DOP853
from supergaudin.gaudin import HamiltonianFamily, joint_diagonalize
from supergaudin.indices import IndexSet
from supergaudin.kz import (
    KZSystem,
    check_path,
    flatness_residual,
    gauge_exponent,
    gauge_transform,
    integrate_path,
    monodromy,
    singular_preservation,
)
from supergaudin.modules import (
    NaturalModule,
    polynomial_highest_weight,
    singular_space,
    tensor_product,
    truncate_module,
)
from supergaudin.partitions import Partition
from supergaudin.weights import Weight, eps

from oracles import flatness_residual_fd, restrict_to_basis, segment_rhs

GL11 = IndexSet.gl(0, 1, 0, 1)
# gl(1+1|1): c = 1, so its gauge factor is not 1 (gl(1|1) has c = 0)
GL111 = IndexSet.gl(0, 1, 1, 1)
MU = eps(1) + eps("1/2")


def two_site_system(kappa=1, convention="plain", levels=None, iset=GL11):
    t2 = tensor_product([NaturalModule(iset)] * 2)
    return t2, KZSystem(t2, MU, kappa=kappa, convention=convention, levels=levels)


def test_system_validation():
    t2 = tensor_product([NaturalModule(GL11)] * 2)
    for kappa in (0, float("inf"), float("nan"), complex("infj")):
        with pytest.raises(ValueError, match="kappa must be finite and nonzero"):
            KZSystem(t2, MU, kappa=kappa)
    for levels in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="need one level per tensor factor"):
            KZSystem(t2, MU, convention="central", levels=levels)
    with pytest.raises(ValueError):
        KZSystem(t2, Weight({6: 1}))


def test_flatness_exact_zero():
    for ell in (2, 3):
        tensor = tensor_product([NaturalModule(GL11)] * ell)
        system = KZSystem(tensor, MU if ell == 2 else MU + eps("1/2"), kappa=3)
        z = [Fraction(k, 2) for k in range(ell)]
        assert flatness_residual(system, z) == 0
    with pytest.raises(ValueError, match="diagonal"):
        flatness_residual(system, [0, 0, 1])


def test_exact_flatness_refuses_a_complex_kappa():
    tensor = tensor_product([NaturalModule(GL11)] * 3)
    system = KZSystem(tensor, MU + eps("1/2"), kappa=2j)
    with pytest.raises(ValueError, match="pass a step h for the float path"):
        flatness_residual(system, [0, 1, 3])
    assert flatness_residual(system, [0.0, 1.1, 2.7], h=1e-5) <= 1e-10


def test_flatness_float_cross_check():
    tensor = tensor_product([NaturalModule(GL11)] * 3)
    system = KZSystem(tensor, MU + eps("1/2"))
    resid = flatness_residual(system, [0.0, 1.1, 2.7], h=1e-5)
    assert resid <= 1e-10


def test_float_flatness_equals_the_written_out_differences():
    # one central-difference helper serves both derivatives of a pair; it
    # makes the same numpy calls in the same order as the written-out loop
    for convention in ("plain", "central"):
        system = three_site_system(convention)
        for point, h in (([0.0, 1.1, 2.7], 1e-4), ([0.3j, 1.1, 2.7 - 0.5j], 1e-6)):
            assert flatness_residual(system, point, h=h) == flatness_residual_fd(system, point, h)


def test_scalar_closed_form():
    for kappa in (1, 2):
        t2, system = two_site_system(kappa=kappa)
        space = singular_space(t2, MU)
        psi0 = [complex(x) for x in space.basis[0]]
        path = [(0, 1), (0.5j, 2), (1j, 3)]
        sol = integrate_path(system, path, psi0, rel_tol=1e-10)
        z_end = sol.samples[-1]["z"]
        ratio = (z_end[0] - z_end[1]) / (0 - 1)
        expect = np.array(psi0) * ratio ** (-1.0 / kappa)
        assert float(np.max(np.abs(sol.final_psi - expect))) < 1e-8
        assert singular_preservation(sol) <= 1e-8


def test_constant_path_is_identity():
    t2, system = two_site_system()
    sol = integrate_path(system, [(0, 1), (0, 1)], [1.0, 2.0], rel_tol=1e-10)
    assert float(np.max(np.abs(sol.final_psi - np.array([1.0, 2.0])))) == 0.0


def test_linearity_of_transport():
    t2, system = two_site_system(kappa=2)
    path = [(0, 1), (0.3 + 0.4j, 1.5)]
    e1 = integrate_path(system, path, [1.0, 0.0], rel_tol=1e-10).final_psi
    e2 = integrate_path(system, path, [0.0, 1.0], rel_tol=1e-10).final_psi
    combo = integrate_path(system, path, [0.7, -0.2], rel_tol=1e-10).final_psi
    assert float(np.max(np.abs(0.7 * e1 - 0.2 * e2 - combo))) < 1e-9


def test_nonsingular_start_keeps_order_one_raising_ratio():
    t2, system = two_site_system()
    # v_1 (x) v_{1/2} + v_{1/2} (x) v_1 is orthogonal to the singular line
    space = singular_space(t2, MU)
    vec = [complex(x) for x in space.basis[0]]
    non_singular = [abs(vec[1]), abs(vec[0])]
    sol = integrate_path(system, [(0, 1), (0.5j, 2)], non_singular, rel_tol=1e-10)
    assert singular_preservation(sol) > 0.1


def test_integrate_path_refuses_a_psi0_of_another_dimension():
    # the CLI refuses these first, by --psi0; the library keeps its own check
    t2, system = two_site_system()
    for psi0 in ([1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="psi0 has the wrong dimension"):
            integrate_path(system, [(0, 1), (0.5j, 2)], psi0)


def test_zero_start_stays_zero():
    t2, system = two_site_system()
    sol = integrate_path(system, [(0, 1), (0.5j, 2)], [0.0, 0.0], rel_tol=1e-10)
    assert singular_preservation(sol) == 0.0
    assert float(np.max(np.abs(sol.final_psi))) == 0.0


def test_path_clearance_enforced():
    t2, system = two_site_system()
    with pytest.raises(ValueError, match="diagonal"):
        integrate_path(system, [(0, 1), (1, 1 + 1e-9)], [1.0, 0.0])
    check_path([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="empty path"):
        check_path([])
    with pytest.raises(ValueError, match="basepoint too close to a diagonal"):
        check_path([(1, 1 + 1e-9)])
    check_path([(0, 1)])
    with pytest.raises(ValueError, match="loop must be closed"):
        monodromy(system, [(0, 1), (0, 2)])


def test_gauge_examples_and_round_trip():
    t2, system = two_site_system(kappa=1)
    space = singular_space(t2, MU)
    psi0 = [complex(x) for x in space.basis[0]]
    path = [(0, 1), (0.5j, 2)]
    sol = integrate_path(system, path, psi0, rel_tol=1e-10)
    # c = 0 on gl(1|1): the exponent vanishes, an identity transform
    same = gauge_transform(sol, "plain_to_central")
    assert float(np.max(np.abs(same.final_psi - sol.final_psi))) == 0.0
    # c = 1 on gl(1+1|1), d = (1, 1), kappa = 1: factor (z1-z2)^{-1}
    # relative to the start
    _, system = two_site_system(kappa=1, levels=[1, 1], iset=GL111)
    sol = integrate_path(system, path, [1.0, 0.5], rel_tol=1e-10)
    shifted = gauge_transform(sol, "plain_to_central")
    w_end = sol.samples[-1]["z"][0] - sol.samples[-1]["z"][1]
    w_start = -1.0
    expect = sol.final_psi * (w_end / w_start) ** (-1.0) * (w_start) ** (-1.0)
    assert float(np.max(np.abs(shifted.final_psi - expect))) < 1e-9
    back = gauge_transform(shifted, "central_to_plain")
    assert float(np.max(np.abs(back.final_psi - sol.final_psi))) < 1e-9


def test_gauge_converts_between_conventions():
    """Transported plain solutions, once gauged, solve the central system."""
    iset = IndexSet.gl(0, 1, 1, 1)
    nat = NaturalModule(iset)
    t2 = tensor_product([nat, nat])
    levels = [Fraction(1), Fraction(1)]
    mu = eps(1) + eps("1/2")
    plain = KZSystem(t2, mu, kappa=2, convention="plain", levels=levels)
    central = KZSystem(t2, mu, kappa=2, convention="central", levels=levels)
    path = [(0, 1), (0.4j, 1.7)]
    psi0 = [1.0, 0.5, 0.25][: plain.dim]
    sol = integrate_path(plain, path, psi0, rel_tol=1e-11)
    gauged = gauge_transform(sol, "plain_to_central")
    # check the central equation along the samples by finite differences
    samples = gauged.samples
    worst = 0.0
    for s0, s1 in zip(samples, samples[1:]):
        dt = s1["t"] - s0["t"]
        if dt < 1e-5:
            continue
        mid_z = [(a + b) / 2 for a, b in zip(s0["z"], s1["z"])]
        dz = [(b - a) / dt for a, b in zip(s0["z"], s1["z"])]
        dpsi = (s1["psi"] - s0["psi"]) / dt
        acc = np.zeros(plain.dim, dtype=complex)
        mid_psi = (s0["psi"] + s1["psi"]) / 2
        for i in (1, 2):
            acc += dz[i - 1] / 2.0 * (central.hamiltonian_float(i, mid_z) @ mid_psi)
        worst = max(worst, float(np.max(np.abs(dpsi - acc))))
    assert worst < 5e-3  # finite differences limit the comparison


def test_gauge_factor_winds_once_around_a_diagonal():
    """A coarse loop taking z_1 once around z_2 multiplies the gauge factor
    (z_1 - z_2)^alpha by exp(2 pi i alpha), and its inverse by the inverse;
    plain-convention levels are the gauge default."""
    t2, system = two_site_system(kappa=3, levels=[1, 2], iset=GL111)
    loop = [(1, 0), (1j, 0), (-1, 0), (-1j, 0), (1, 0)]
    sol = integrate_path(system, loop, [1.0, 0.5])
    alpha = gauge_exponent(GL111, system.levels, system.kappa)[(0, 1)]
    assert abs(cmath.exp(2j * math.pi * alpha) - 1) > 0.5
    for direction, sign in (("plain_to_central", 1), ("central_to_plain", -1)):
        gauged = gauge_transform(sol, direction)
        first, last = sol.samples[0]["psi"], sol.samples[-1]["psi"]
        ratio = (gauged.samples[-1]["psi"] / last) / (gauged.samples[0]["psi"] / first)
        assert np.allclose(ratio, cmath.exp(sign * 2j * math.pi * alpha), atol=1e-12), direction


def test_gauge_exponent_reads_the_flavor_constant():
    # alpha_ij = -c d_i d_j / kappa with c = p - q, -p or 0 by flavor
    levels = [2, 3]
    assert gauge_exponent(IndexSet.gl(1, 1, 2, 1), levels, 3) == {(0, 1): -2}
    assert gauge_exponent(IndexSet.classical(1, 1), levels, 3) == {(0, 1): 2}
    assert gauge_exponent(IndexSet("wide", p=1, n=1), levels, 1) == {(0, 1): 0}


def test_monodromy_contractible_and_inverse():
    t2, system = two_site_system(kappa=2)
    loop = [(0, 1), (0, 2), (1j, 2), (1j, 1), (0, 1)]
    M = monodromy(system, loop, rel_tol=1e-11)
    assert float(np.max(np.abs(M - np.eye(2)))) < 1e-8
    reverse = monodromy(system, loop[::-1], rel_tol=1e-11)
    assert float(np.max(np.abs(M @ reverse - np.eye(2)))) < 1e-7
    trivial = monodromy(system, [(0, 1), (0, 1)], rel_tol=1e-11)
    assert float(np.max(np.abs(trivial - np.eye(2)))) == 0.0


def test_monodromy_encircling_a_diagonal():
    t2, system = two_site_system(kappa=2)
    circle = [
        (1 + cmath.exp(1j * math.pi * (1 + 2 * k / 24)), 1) for k in range(25)
    ]
    M = monodromy(system, circle, rel_tol=1e-11)
    vals = sorted(np.linalg.eigvals(M), key=lambda c: (round(c.real, 6), round(c.imag, 6)))
    # Omega eigenvalues +-1 with kappa 2 give holonomy exp(+-pi i) = -1
    assert all(abs(v + 1) < 1e-7 for v in vals)


def test_truncation_stability():
    big = NaturalModule(IndexSet.classical(0, 3))
    small = truncate_module(big, IndexSet.classical(0, 2))
    mu = eps("1/2") + eps("3/2")
    sys_big = KZSystem(tensor_product([big, big]), mu, kappa=1)
    sys_small = KZSystem(tensor_product([small, small]), mu, kappa=1)
    path = [(0, 1), (0.3j, 1.5), (0.7j, 2.5)]
    psi0 = [1.0, -0.5]
    a = integrate_path(sys_big, path, psi0, rel_tol=1e-10).final_psi
    b = integrate_path(sys_small, path, psi0, rel_tol=1e-10).final_psi
    assert float(np.max(np.abs(a - b))) < 1e-9


def test_solution_space_rank_equals_dimension():
    t2, system = two_site_system(kappa=2)
    path = [(0, 1), (0.5j, 2), (0.2, 1.3)]
    cols = []
    for k in range(system.dim):
        e = [0.0] * system.dim
        e[k] = 1.0
        cols.append(integrate_path(system, path, e, rel_tol=1e-10).final_psi)
    assert np.linalg.matrix_rank(np.array(cols).T, tol=1e-8) == system.dim
    # and the singular restriction transports to the singular subspace
    space = singular_space(t2, MU)
    sol = integrate_path(system, path, [complex(x) for x in space.basis[0]], rel_tol=1e-10)
    assert singular_preservation(sol) <= 1e-8


def test_log_derivative_matches_joint_eigenvalue():
    """At the basepoint the solution's log-derivative along z_1 equals the
    corresponding eigenvalue of H^1 over kappa, coordinate by coordinate."""
    kappa = 2
    t3 = tensor_product([NaturalModule(GL11)] * 3)
    mu = eps(1) + eps("1/2") + eps("1/2")
    space = singular_space(t3, mu)
    z0 = [Fraction(0), Fraction(1), Fraction(3)]
    fam = HamiltonianFamily(t3, z0)
    mats = [restrict_to_basis(fam.matrix(i, space.weight), space.basis) for i in (1, 2, 3)]
    jd = joint_diagonalize(mats, random.Random(3))
    system = KZSystem(t3, mu, kappa=kappa)
    basis_cols = np.array([[float(x) for x in vec] for vec in space.basis]).T
    h = 1e-6
    for col in range(len(jd.eigenvalues[0])):
        eigvec_restricted = jd.basis[:, col]
        psi0 = basis_cols @ eigvec_restricted
        path = [(0, 1, 3), (h, 1, 3)]
        sol = integrate_path(system, path, psi0, rel_tol=1e-12)
        logd = (sol.final_psi - psi0) / h
        lead = np.argmax(np.abs(psi0))
        measured = logd[lead] / psi0[lead]
        expected = jd.eigenvalues[0][col] / kappa
        assert abs(measured - expected) < 1e-4


GL21 = IndexSet.gl(0, 2, 0, 1)


def three_site_system(convention="plain"):
    """gl(2|1)^3 on the (2,1) weight space at kappa = 3."""
    tensor = tensor_product([NaturalModule(GL21)] * 3)
    mu = polynomial_highest_weight(GL21, Partition([2, 1]))
    return KZSystem(tensor, mu, kappa=3, convention=convention)


def circling_loop(base, i, corners=12):
    """Sites i and i+1 circle their midpoint once; the others stay put."""
    centre = (base[i] + base[i + 1]) / 2
    radius = (base[i + 1] - base[i]) / 2
    loop = []
    for k in range(corners + 1):
        turn = cmath.exp(2j * math.pi * k / corners)
        z = list(base)
        z[i], z[i + 1] = centre - radius * turn, centre + radius * turn
        loop.append(tuple(z))
    return loop


def test_monodromy_equals_column_by_column_transport():
    loop = circling_loop([0.0, 1.1, 2.3], 0)
    for convention in ("plain", "central"):
        system = three_site_system(convention)
        assert system.dim > 1
        M = monodromy(system, loop)
        for k in range(system.dim):
            e = [0.0] * system.dim
            e[k] = 1.0
            col = integrate_path(system, loop, e).final_psi
            assert float(np.max(np.abs(M[:, k] - col))) < 1e-9, (convention, k)


@cache
def rhs_systems():
    """gl(1|1)^3, gl(2|1)^3, and gl(1+1|1)^3 in the central convention
    with levels."""
    gl11 = KZSystem(tensor_product([NaturalModule(GL11)] * 3), MU + eps("1/2"), kappa=3)
    central = KZSystem(
        tensor_product([NaturalModule(GL111)] * 3), Weight({-2: 1, 1: 1, 2: 1}),
        kappa=3, convention="central", levels=[1, 2, 3],
    )
    return gl11, three_site_system(), central


# z_i = i + a shift of modulus below 0.3 and dz_i of modulus at most 0.15:
# every z_i - z_j keeps modulus above 0.4 - |dz_i - dz_j| >= 0.1 on the
# segment
SHIFTS = st.floats(-0.2, 0.2)
STEPS = st.sampled_from([0, 0.15, -0.15, 0.15j, -0.15j])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_segment_rhs_gives_the_reference_floats_in_fresh_arrays(data):
    # the right-hand side refills buffers made once per segment; the
    # reference allocates every temporary per call.  Pairs with equal dz
    # drop out, down to none when every site moves alike
    system = data.draw(st.sampled_from(rhs_systems()))
    p = [i + complex(data.draw(SHIFTS), data.draw(SHIFTS)) for i in range(system.ell)]
    q = [z + data.draw(STEPS) for z in p]
    rhs, ref = system._segment_rhs(p, q), segment_rhs(system, p, q)
    width = 2 * system.dim * data.draw(st.integers(1, 3))
    calls = [
        (data.draw(st.floats(0, 1)), np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=width, max_size=width))))
        for _ in range(2)
    ]
    first = rhs(*calls[0])
    kept = first.copy()
    for (t, y), out in zip(calls, (first, rhs(*calls[1]))):
        expected = ref(t, y)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
    # the stepper keeps what it is handed: a later call must not write it
    assert first.tobytes() == kept.tobytes()


def test_hamiltonian_float_matches_exact():
    z = [Fraction(0), Fraction(3, 2), Fraction(-2, 7)]
    for convention in ("plain", "central"):
        system = three_site_system(convention)
        for i in (1, 2, 3):
            exact = np.array([[float(x) for x in row] for row in system.family(z).matrix(i, system.mu)])
            approx = system.hamiltonian_float(i, [float(x) for x in z])
            assert float(np.max(np.abs(approx - exact))) < 1e-12, (convention, i)


def test_transport_leaves_no_cyclic_solver():
    system = three_site_system()
    loop = circling_loop([0.0, 1.1, 2.3], 1)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        monodromy(system, loop)
        integrate_path(system, loop, [1.0] * system.dim)
        gc.collect()
        solvers = [obj for obj in gc.garbage if isinstance(obj, DOP853)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert solvers == []


def test_waypoints_must_have_one_coordinate_per_site():
    t2, system = two_site_system()
    for bad in ([(0,), (1,), (0,)], [(0, 1, 5), (0.4j, 2, 5), (0, 1, 5)]):
        with pytest.raises(ValueError, match="coordinates"):
            monodromy(system, bad)
        with pytest.raises(ValueError, match="coordinates"):
            integrate_path(system, bad, [1.0, 0.0])
    with pytest.raises(ValueError, match="coordinates"):
        check_path([(0, 1), (0, 2, 3)])


def test_waypoints_must_be_finite():
    # a nan passed every clearance and closedness comparison, and the
    # stepper then retried a nan step forever
    system = three_site_system()
    for bad in (float("nan"), float("inf"), -float("inf"), complex(0, float("nan")), complex(float("inf"), 1)):
        loop = [(0, 1, 2), (bad, 1, 2), (0, 1, 2)]
        with pytest.raises(ValueError, match="waypoint 1 has a non-finite coordinate"):
            check_path(loop)
        with pytest.raises(ValueError, match="waypoint 1 has a non-finite coordinate"):
            monodromy(system, loop)
        with pytest.raises(ValueError, match="waypoint 1 has a non-finite coordinate"):
            integrate_path(system, loop[:2], [1.0] * system.dim)
    with pytest.raises(ValueError, match="waypoint 0 has a non-finite"):
        check_path([(float("nan"),)])


def test_waypoints_must_be_bounded():
    # squaring the segment direction in the clearance test raised an
    # OverflowError at 1e308
    # at 1.7e308 + 1.7e308j the modulus itself raised an OverflowError
    for bad in (1e308, -1e101, complex(1, 2e100), complex(1e100, 1e100), complex(1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="waypoint 1 has a coordinate of modulus above 1e\\+100"):
            check_path([(0, 1), (bad, 1)])
    far = [(0, 1j), (1e100, 1j)]
    assert check_path(far) == far


def test_psi0_entries_must_be_finite_and_bounded():
    # a nan reached the stepper, which named its own y0, an infinite or
    # huge entry overflowed numpy's norms with RuntimeWarnings first, and an
    # int too large for a float raised OverflowError
    t2, system = two_site_system()
    path = [(0, 1), (0.4j, 2)]
    bad_entries = (
        math.nan, math.inf, -math.inf, 1e308, complex(1e100, 1e100), complex(1.7e308, 1.7e308), 10**400, -(10**400)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in bad_entries:
            with pytest.raises(ValueError, match="psi0 needs finite entries of modulus at most 1e\\+100"):
                integrate_path(system, path, [bad] + [1] * (system.dim - 1))
        sol = integrate_path(system, path, [1e100] + [0] * (system.dim - 1))
    assert sol.final_psi[0] != 0


def test_transport_refuses_a_relative_tolerance_outside_zero_one():
    # 0 and nan used to step forever, -1 ended in the stepper's own error,
    # and 1e-16 was raised to 100 EPS with only a warning
    t2, system = two_site_system()
    loop = [(0, 1), (0.4j, 2), (0, 1)]
    for rel_tol in (0, 0.0, -1.0, 1.0, float("nan"), float("inf"), 1e-16):
        with pytest.raises(ValueError, match="rel_tol must be a number in"):
            integrate_path(system, loop[:2], [1.0, 0.0], rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol must be a number in"):
            monodromy(system, loop, rel_tol=rel_tol)


def test_flatness_rejects_bad_step_and_point_count():
    tensor = tensor_product([NaturalModule(GL11)] * 3)
    system = KZSystem(tensor, MU + eps("1/2"))
    for h in (0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step"):
            flatness_residual(system, [0.0, 1.1, 2.7], h=h)
    for h in (None, 1e-5):
        with pytest.raises(ValueError, match="points"):
            flatness_residual(system, [0, 1], h=h)
