import numpy as np
import pytest

from frgeo import optim
from frgeo.optim import LbfgsResult, lbfgs, time_preconditioner


def run(fun, grad, x0, max_iters=500, **kwargs):
    return lbfgs(fun, grad, x0, *fun(x0), max_iters=max_iters, **kwargs)


def set_tolerances(monkeypatch, objective, gradient):
    monkeypatch.setattr(optim, "OBJECTIVE_RTOL", objective)
    monkeypatch.setattr(optim, "GRADIENT_RTOL", gradient)


def random_stack(rng, m, *shape):
    return rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))


def stack_quadratic(b, potential=None):
    """``f(x) = Re <x, A x> / 2 - Re <b, x>`` on a stack of ``N - 1`` complex
    slices shaped like ``b``: ``A`` is the time Laplacian ``N tridiag(-1, 2,
    -1)`` (the Hessian of a kinetic second difference), plus the Hermitian
    ``potential`` on each flattened slice when given. Returns ``fun``, its
    real gradient ``A x - b`` and the minimizer."""
    m = len(b)
    k = b[0].size
    lap = (m + 1) * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    a = np.kron(lap, np.eye(k)) + np.kron(np.eye(m), np.zeros((k, k)) if potential is None else potential)

    def fun(x):
        ax = (a @ x.ravel()).reshape(x.shape)
        return 0.5 * float(np.real(np.vdot(x, ax))) - float(np.real(np.vdot(b, x))), ax

    return fun, lambda x, ax: ax - b, np.linalg.solve(a, b.ravel()).reshape(b.shape)


def test_time_preconditioner_inverts_the_scaled_time_laplacian(rng):
    # The quadratic's Hessian N tridiag(-1, 2, -1) is 2 H0^{-1}.
    fun, _, x_star = stack_quadratic(random_stack(rng, 11, 3, 2, 2))
    back = time_preconditioner(12)(fun(x_star)[1])
    assert back.shape == x_star.shape
    assert np.abs(back - 2.0 * x_star).max() <= 1e-13 * np.abs(x_star).max()


def test_time_preconditioner_flattens_iterations_on_a_time_laplacian(rng, monkeypatch):
    # H0 A = 2 I: one steepest step, then one exact quasi-Newton step, at
    # every N. Unpreconditioned, the condition number grows as N^2 (plain
    # L-BFGS took about 200 iterations at N = 64).
    set_tolerances(monkeypatch, 0.0, 1e-6)
    for n_steps in (16, 64):
        fun, grad, x_star = stack_quadratic(random_stack(rng, n_steps - 1, 2, 2))
        res = run(fun, grad, np.zeros_like(x_star))
        assert res.stop_reason == "gradient_tol"
        assert np.abs(res.x - x_star).max() <= 1e-12 * np.abs(x_star).max()
        assert res.iterations <= 3, n_steps


def test_first_accepted_step_is_along_preconditioned_gradient(rng):
    fun, grad, x_star = stack_quadratic(random_stack(rng, 15, 2, 2))
    x0 = np.zeros_like(x_star)
    h0 = time_preconditioner(len(x0) + 1)
    accepted = []

    def recording_grad(x, ax):
        accepted.append(x)
        return grad(x, ax)

    run(fun, recording_grad, x0, max_iters=1)
    g0 = grad(x0, fun(x0)[1])
    step, direction = accepted[1] - accepted[0], -h0(g0)
    t = float(np.real(np.vdot(direction, step))) / float(np.real(np.vdot(direction, direction)))
    assert t > 0.0
    assert np.abs(step - t * direction).max() <= 1e-14 * np.abs(step).max()
    # The step is not along -g.
    assert np.abs(step + t * g0).max() > 0.1 * np.abs(step).max()


def test_gradient_tol_measures_the_preconditioned_dual_norm(monkeypatch):
    # H0 scales the time mode sin(pi i j / N) by 1 / (2 N sin^2(pi j / 2N)):
    # about 1/128 for the highest mode and 13 for the lowest at N = 64. A
    # tolerance between |g| and sqrt(g.H0 g) stops at the start exactly when
    # the dual norm is the smaller.
    n_steps = 64
    for mode, at_start in ((n_steps - 1, True), (1, False)):
        b = (1.0 + 1j) * np.sin(np.pi * np.arange(1, n_steps) * mode / n_steps)[:, None]
        fun, grad, _ = stack_quadratic(b)
        x0 = np.zeros_like(b)
        g = grad(x0, fun(x0)[1])
        dual = np.sqrt(np.real(np.vdot(g, time_preconditioner(n_steps)(g))))
        assert (dual < 0.1 * np.linalg.norm(g)) if at_start else (dual > 3.0 * np.linalg.norm(g))
        set_tolerances(monkeypatch, 0.0, np.sqrt(dual * np.linalg.norm(g)))
        res = run(fun, grad, x0)
        assert res.stop_reason == "gradient_tol"
        assert (res.iterations == 0) is at_start, mode


def ill_conditioned_quadratic(rng, cond=1e4):
    """:func:`stack_quadratic` on 4 slices of 2 entries, with a per-slice
    potential of eigenvalues 1 and ``cond`` that ``H0`` does not see."""
    q, _ = np.linalg.qr(random_stack(rng, 2, 2))
    return stack_quadratic(random_stack(rng, 4, 2), (q * [1.0, cond]) @ np.conj(q.T))


def test_ill_conditioned_complex_quadratic_reaches_gradient_tol(rng, monkeypatch):
    fun, grad, x_star = ill_conditioned_quadratic(rng)
    # The tolerance sits well above the gradient norm at which the decreases
    # along the stiff directions fall below the objective's round-off.
    set_tolerances(monkeypatch, 0.0, 1e-4)
    res = run(fun, grad, np.zeros_like(x_star))
    assert res.stop_reason == "gradient_tol"
    dual = np.sqrt(np.real(np.vdot(res.grad, time_preconditioner(5)(res.grad))))
    assert dual <= 1e-4 * max(1.0, abs(res.f))
    assert np.abs(res.x - x_star).max() <= 1e-4 * np.abs(x_star).max()
    # Steepest descent, at rate 1 - 2 / (1 + cond), would need ~1e5 steps.
    assert res.iterations <= 300


def test_every_accepted_objective_strictly_decreases(monkeypatch):
    # Rosenbrock's valley on a stack of two scalar slices yields a step of
    # negative curvature, so this also covers the curvature skip: the memory
    # restarts, and the next step is a steepest one along -H0 g.
    def fun(x):
        f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        return f, f

    accepted = []

    def grad(x, f):
        g = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2)])
        accepted.append((x, f, g))
        return g

    set_tolerances(monkeypatch, 0.0, 1e-9)
    res = run(fun, grad, np.array([-1.2, 1.0]))
    assert res.stop_reason == "gradient_tol"
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert len(accepted) > 10
    assert all(b[1] < a[1] for a, b in zip(accepted, accepted[1:]))
    xs, gs = [a[0] for a in accepted], [a[2] for a in accepted]
    skips = [k for k in range(1, len(xs) - 1) if np.dot(xs[k] - xs[k - 1], gs[k] - gs[k - 1]) <= 0.0]
    assert skips
    h0 = time_preconditioner(3)
    for k in skips:
        step, direction = xs[k + 1] - xs[k], -h0(gs[k])
        assert np.dot(step, direction) >= (1.0 - 1e-12) * np.linalg.norm(step) * np.linalg.norm(direction)


def test_budget(rng):
    fun, grad, x_star = ill_conditioned_quadratic(rng)
    res = run(fun, grad, np.zeros_like(x_star), max_iters=2)
    assert res.stop_reason == "budget"
    assert res.iterations <= 2


@pytest.mark.parametrize("objective_tol, reason", [(1e-3, "stall"), (1e-6, "line_search_exhausted")])
def test_unresolvable_descent_follows_predicted_decrease(objective_tol, reason, monkeypatch):
    # The objective is quantized, so no step of |x|^2 / 2 < 1e-3 lowers it,
    # although the gradient promises a model decrease of t x.H0 x / 2 = 8.2e-6
    # at the first trial t = STEP_INIT, with H0 = (2/9) [[2, 1], [1, 2]].
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
