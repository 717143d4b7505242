import numpy as np
import pytest

from frgeo import optim
from frgeo.optim import LbfgsResult, lbfgs, time_preconditioner


def run(fun, grad, x0, max_iters=500, **kwargs):
    return lbfgs(fun, grad, x0, *fun(x0), max_iters=max_iters, **kwargs)


def set_tolerances(monkeypatch, objective, gradient):
    monkeypatch.setattr(optim, "OBJECTIVE_RTOL", objective)
    monkeypatch.setattr(optim, "GRADIENT_RTOL", gradient)


def complex_quadratic(rng, n=8, cond=1e4):
    """``f(x) = Re <x, A x> / 2 - Re <b, x>`` with Hermitian ``A`` of the given
    condition number; its real gradient is ``A x - b``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * np.logspace(0.0, np.log10(cond), n)) @ np.conj(q.T)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def fun(x):
        ax = a @ x
        return 0.5 * float(np.real(np.vdot(x, ax))) - float(np.real(np.vdot(b, x))), ax

    return fun, lambda x, ax: ax - b, np.linalg.solve(a, b)


def time_laplacian_quadratic(rng, n_steps=64, shape=(2, 2)):
    """``f(x) = Re <x, A x> / 2 - Re <b, x>`` on a stack of ``n_steps - 1``
    complex slices, with ``A = n_steps tridiag(-1, 2, -1)`` in time times the
    identity on each slice: the Hessian of a kinetic second difference."""
    m = n_steps - 1
    lap = n_steps * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    b = rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))

    def fun(x):
        ax = (lap @ x.reshape(m, -1)).reshape(x.shape)
        return 0.5 * float(np.real(np.vdot(x, ax))) - float(np.real(np.vdot(b, x))), ax

    x_star = np.linalg.solve(lap, b.reshape(m, -1)).reshape(b.shape)
    return fun, lambda x, ax: ax - b, x_star


def test_time_preconditioner_inverts_the_scaled_time_laplacian(rng):
    # The quadratic's Hessian N tridiag(-1, 2, -1) is 2 H0^{-1}.
    fun, _, x_star = time_laplacian_quadratic(rng, n_steps=12, shape=(3, 2, 2))
    back = time_preconditioner(12)(fun(x_star)[1])
    assert back.shape == x_star.shape
    assert np.abs(back - 2.0 * x_star).max() <= 1e-13 * np.abs(x_star).max()


def test_time_preconditioner_flattens_iterations_on_a_time_laplacian(rng, monkeypatch):
    fun, grad, x_star = time_laplacian_quadratic(rng)
    x0 = np.zeros_like(x_star)
    set_tolerances(monkeypatch, 0.0, 1e-6)
    plain = run(fun, grad, x0)
    pre = run(fun, grad, x0, precondition=time_preconditioner(64))
    for res, tol in ((plain, 1e-4), (pre, 1e-12)):
        assert res.stop_reason == "gradient_tol"
        assert np.abs(res.x - x_star).max() <= tol * np.abs(x_star).max()
    # H0 A = 2 I: one steepest step, then one exact quasi-Newton step. The
    # plain run's condition number grows as N^2 (it takes about 200).
    assert pre.iterations <= 3
    assert plain.iterations >= 30 * pre.iterations


def test_first_accepted_step_is_along_preconditioned_gradient(rng):
    fun, grad, x_star = time_laplacian_quadratic(rng, n_steps=16)
    x0 = np.zeros_like(x_star)
    h0 = time_preconditioner(16)
    accepted = []

    def recording_grad(x, ax):
        accepted.append(x)
        return grad(x, ax)

    run(fun, recording_grad, x0, max_iters=1, precondition=h0)
    g0 = grad(x0, fun(x0)[1])
    step, direction = accepted[1] - accepted[0], -h0(g0)
    t = float(np.real(np.vdot(direction, step))) / float(np.real(np.vdot(direction, direction)))
    assert t > 0.0
    assert np.abs(step - t * direction).max() <= 1e-14 * np.abs(step).max()
    # The step is not along -g.
    assert np.abs(step + t * g0).max() > 0.1 * np.abs(step).max()


def test_gradient_tol_measures_the_preconditioned_dual_norm(rng, monkeypatch):
    # With H0 = 1e-4 I the dual norm sqrt(g.H0 g) is |g| / 100, so a
    # tolerance of |g| / 10 stops at the start only in that norm.
    fun, grad, _ = complex_quadratic(rng)
    x0 = np.ones(8, dtype=complex)
    f0, ax0 = fun(x0)
    set_tolerances(monkeypatch, 0.0, 0.1 * np.linalg.norm(grad(x0, ax0)) / max(1.0, abs(f0)))
    assert run(fun, grad, x0).iterations > 0
    res = run(fun, grad, x0, precondition=lambda v: 1e-4 * v)
    assert (res.stop_reason, res.iterations) == ("gradient_tol", 0)


def test_no_preconditioner_is_bit_identical(rng):
    fun, grad, _ = complex_quadratic(rng)
    x0 = np.zeros(8, dtype=complex)
    base = run(fun, grad, x0)
    for precondition in (None, lambda v: v):
        res = run(fun, grad, x0, precondition=precondition)
        assert np.array_equal(res.x, base.x)
        assert res.f == base.f
        assert res.iterations == base.iterations


def test_ill_conditioned_complex_quadratic_reaches_gradient_tol(rng, monkeypatch):
    fun, grad, x_star = complex_quadratic(rng)
    # The tolerance sits well above the gradient norm (~5e-6) at which the
    # decreases along the stiff directions fall below the objective's round-off.
    set_tolerances(monkeypatch, 0.0, 1e-4)
    res = run(fun, grad, np.zeros(8, dtype=complex))
    assert res.stop_reason == "gradient_tol"
    assert np.linalg.norm(res.grad) <= 1e-4 * max(1.0, abs(res.f))
    assert np.abs(res.x - x_star).max() <= 1e-4 * np.abs(x_star).max()
    # Steepest descent, at rate 1 - 2 / (1 + cond), would need ~1e5 steps.
    assert res.iterations <= 300


def test_every_accepted_objective_strictly_decreases(monkeypatch):
    # Rosenbrock's valley yields steps of negative curvature, so this also
    # covers the curvature skip (with stale memory kept, it hits the budget).
    def fun(x):
        f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        return f, f

    accepted = []

    def grad(x, f):
        accepted.append(f)
        return np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2)])

    set_tolerances(monkeypatch, 0.0, 1e-9)
    res = run(fun, grad, np.array([-1.2, 1.0]))
    assert res.stop_reason == "gradient_tol"
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert len(accepted) > 10
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_budget(rng):
    fun, grad, _ = complex_quadratic(rng)
    res = run(fun, grad, np.zeros(8, dtype=complex), max_iters=2)
    assert res.stop_reason == "budget"
    assert res.iterations <= 2


@pytest.mark.parametrize("objective_tol, reason", [(1e-3, "stall"), (1e-6, "line_search_exhausted")])
def test_unresolvable_descent_follows_predicted_decrease(objective_tol, reason, monkeypatch):
    # The objective is quantized, so no step of |x|^2 / 2 < 1e-3 lowers it,
    # although the gradient promises a model decrease of t |x|^2 / 2 = 1.25e-5
    # at the first trial t = STEP_INIT.
    def fun(x):
        return 1.0 + np.floor(500.0 * float(x @ x)) / 1e3, None

    x0 = np.array([6e-3, 8e-3])
    set_tolerances(monkeypatch, objective_tol, 0.0)
    res = run(fun, lambda x, _: x, x0)
    assert res.stop_reason == reason
    assert res.f == 1.0
    assert np.array_equal(res.x, x0)


@pytest.mark.parametrize(
    "reason, converged",
    [("gradient_tol", True), ("stall", True), ("line_search_exhausted", False), ("budget", False)],
)
def test_converged_is_gradient_tol_or_stall(reason, converged):
    res = LbfgsResult(np.zeros(1), 0.0, None, np.zeros(1), 1, reason)
    assert res.converged is converged
