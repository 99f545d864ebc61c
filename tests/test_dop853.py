"""The package's DOP853 stepper against scipy.integrate.DOP853.

The stepper makes scipy's numpy calls in scipy's order, so every accepted
t and y must be equal, not close; the comparisons skip when scipy is not
installed.
"""

import warnings

import numpy as np
import pytest

from supergaudin import _dop853 as dop853

from test_kz import three_site_system


def test_the_coefficients_are_scipys():
    table = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = dop853.N_STAGES
    assert (dop853.A == table.A[:n, :n]).all()
    assert (dop853.B == table.B).all()
    assert (dop853.C == table.C[:n]).all()
    assert (dop853.E3 == table.E3).all()
    assert (dop853.E5 == table.E5).all()


def _steps(cls, fun, y0, rtol, atol, t_bound=1.0):
    """(status, accepted t values, accepted y values, right-hand side calls)."""
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    solver = cls(counted, 0.0, y0, t_bound, rtol=rtol, atol=atol)
    ts, ys = [solver.t], [solver.y.copy()]
    while solver.status == "running":
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y.copy())
    return solver.status, ts, ys, len(calls)


def _assert_same_steps(fun, y0, rtol, atol, t_bound=1.0):
    """Step both solvers through [0, t_bound]; returns the number of
    rejected steps."""
    scipy_dop853 = pytest.importorskip("scipy.integrate").DOP853
    ref = _steps(scipy_dop853, fun, y0, rtol, atol, t_bound)
    own = _steps(dop853.DOP853, fun, y0, rtol, atol, t_bound)
    assert ref[0] == own[0] == "finished"
    assert len(own[1]) == len(ref[1])
    assert own[1] == ref[1]
    assert all((a == b).all() for a, b in zip(own[2], ref[2]))
    assert own[3] == ref[3]
    # two calls pick the first step, then twelve per attempted step
    return (ref[3] - 2) // 12 - (len(ref[1]) - 1)


def _linear(matrix):
    return lambda t, y: matrix @ y


def test_steps_match_scipy_on_a_linear_system():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(6, 6))
    assert _assert_same_steps(_linear(matrix), rng.normal(size=6), 1e-10, 1e-12) == 0


def test_steps_match_scipy_through_rejected_steps():
    # the fast mode decays at once, then the step grows into the method's
    # stability limit and is rejected
    matrix = np.array([[-1.0, 0.3], [0.0, -100.0]])
    assert _assert_same_steps(_linear(matrix), np.array([1.0, 1.0]), 1e-6, 1e-8) > 0


def test_steps_match_scipy_at_the_rtol_floor():
    # the KZ transport admits no rel_tol below 100 EPS, and the stepper
    # takes that floor as given, as scipy does
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_steps(_linear(matrix), rng.normal(size=4), 100 * dop853.EPS, 1e-18)


def test_steps_match_scipy_on_a_split_complex_state():
    # a complex (d, k) state carried as [Re psi; Im psi], as the KZ
    # transport builds it, over one segment of a three-site system
    system = three_site_system()
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(system.dim, 2)) + 1j * rng.normal(size=(system.dim, 2))
    y0 = np.concatenate([psi.real.ravel(), psi.imag.ravel()])
    rhs = system._segment_rhs((0.0, 1.1, 2.3), (0.4j, 1.1, 2.3 + 0.5j))
    _assert_same_steps(rhs, y0, 1e-10, 1e-12)


def test_a_nan_right_hand_side_fails_instead_of_stepping_forever():
    solver = dop853.DOP853(lambda t, y: np.full_like(y, np.nan), 0.0, np.ones(3), 1.0, rtol=1e-6, atol=1e-8)
    assert solver.step() == dop853.TOO_SMALL_STEP
    assert solver.status == "failed"
    with pytest.raises(RuntimeError, match="failed"):
        solver.step()


def test_the_stepper_refuses_what_it_cannot_step():
    fun = _linear(np.eye(2))
    for y0 in (np.array([1.0, np.nan]), np.array([1j, 0]), np.ones((2, 2)), np.array([])):
        with pytest.raises(ValueError, match="finite real vector"):
            dop853.DOP853(fun, 0.0, y0, 1.0, rtol=1e-6, atol=1e-8)
    with pytest.raises(ValueError, match="t_bound"):
        dop853.DOP853(fun, 1.0, np.ones(2), 1.0, rtol=1e-6, atol=1e-8)
    with pytest.raises(ValueError, match="atol"):
        dop853.DOP853(fun, 0.0, np.ones(2), 1.0, rtol=1e-6, atol=-1.0)
