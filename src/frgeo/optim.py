"""Limited-memory BFGS with Armijo backtracking, shared by the solvers.

The two-loop recursion (Liu & Nocedal, *Math. Programming* 45, 1989;
Nocedal & Wright, *Numerical Optimization*, Alg. 7.4/7.5) works on arrays
of any shape and dtype in the real inner product ``Re vdot``, so complex
parameters descend as pairs of real ones.
Every accepted step strictly decreases the objective.

This module owns the one step and stop policy of both solvers (the
dynamical Bures action and the Schrödinger bridge); a caller passes only
its problem and an iteration budget. Both solvers descend on a stack of
interior slices whose kinetic term is a second difference in time, so the
stack fixes the initial inverse Hessian ``H0``: :func:`time_preconditioner`
of its ``N - 1`` slices, the inverse of the time Laplacian, a Sobolev
(H¹-in-time) gradient (Neuberger, *Sobolev Gradients and Differential
Equations*, LNM 1670, 1997) that keeps the iteration count flat in the
number of time steps. Quasi-Newton steps start at ``t = 1``,
steepest-descent steps ``-H0 g`` (the first, and after a memory reset) at
``STEP_INIT``, and backtracking multiplies ``t`` by ``STEP_SHRINK``. A descent stops on ``gradient_tol`` (the dual norm
``sqrt(g.H0 g)`` at most ``GRADIENT_RTOL * max(1, |f|)``), on ``stall`` (the
line search failed at the round-off floor: the model decrease of its first
trial was at most ``OBJECTIVE_RTOL * |f|``), on ``line_search_exhausted`` or
on ``budget``. :attr:`LbfgsResult.converged`, true for the first two, is the
one definition of convergence that both solvers report.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

MEMORY = 8
ARMIJO = 1e-4
STEP_INIT = 0.25
STEP_SHRINK = 0.5
OBJECTIVE_RTOL = 1e-9
# Over 101 seeded solves of both solvers (N = 12 to 128), the preconditioned
# dual norm at the stall was 4e-11 to 8e-7; stopping at 1e-8 fires on most of
# them and leaves every objective bit-identical to the run on to the stall.
GRADIENT_RTOL = 1e-8
CURVATURE_EPS = 1e-10
ROUNDOFF = float(np.finfo(float).eps)


class LbfgsResult(NamedTuple):
    x: np.ndarray
    f: float
    aux: Any
    grad: np.ndarray
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("gradient_tol", "stall")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def time_preconditioner(n_steps: int) -> Callable[[np.ndarray], np.ndarray]:
    """The initial inverse Hessian ``H0`` of a solver whose parameters stack
    the ``N - 1`` interior slices of an ``N``-step path on the leading axis:
    the inverse of ``(N/2) tridiag(-1, 2, -1)``, whose entries are the
    discrete Green's function ``(2/N^2) min(i, j) (N - max(i, j))``. It acts
    by one matrix product on the reshaped stack."""
    k = np.arange(1, n_steps)
    green = 2.0 * np.minimum.outer(k, k) * (n_steps - np.maximum.outer(k, k)) / n_steps**2
    return lambda v: (green @ v.reshape(n_steps - 1, -1)).reshape(v.shape)


def _direction(g: np.ndarray, pairs: list, h0: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``-H g`` for the inverse-Hessian estimate of the stored pairs, from
    ``(s.y / y.H0 y) H0`` (Nocedal & Wright, §7.2), with ``H0`` the inverse
    time Laplacian of the stack, whose norm the stop test uses."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * _dot(s, q))
        q -= alphas[-1] * y
    s, y, _ = pairs[-1]
    r = (_dot(s, y) / _dot(y, h0(y))) * h0(q)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * _dot(y, r)) * s
    return -r


def lbfgs(
    fun: Callable[[np.ndarray], tuple[float, Any]],
    grad: Callable[[np.ndarray, Any], np.ndarray],
    x: np.ndarray,
    f: float,
    aux: Any,
    *,
    max_iters: int,
) -> LbfgsResult:
    """Minimize ``fun`` over stacks shaped like ``x`` (``N - 1`` time slices
    on the leading axis), from ``x`` with ``(f, aux) = fun(x)`` given, in at
    most ``max_iters`` iterations, under the module's step and stop policy
    with ``H0 = time_preconditioner(N)``.

    ``fun`` returns the objective and auxiliary data that ``grad(x, aux)``
    reuses; a non-finite objective rejects the trial step. Backtracking runs
    until the first-order decrease ``-t g.p`` drops below the round-off of
    ``f``. A failed line search is a ``stall`` when its model decrease
    ``-t0 g.p / 2`` at the first trial ``t0`` was at most
    ``OBJECTIVE_RTOL * |f|``; otherwise a quasi-Newton one resets the memory
    and a steepest-descent one is ``line_search_exhausted``.
    """
    h0 = time_preconditioner(len(x) + 1)
    g = grad(x, aux)
    hg = h0(g)
    pairs: list = []
    for it in range(max_iters):
        if np.sqrt(_dot(g, hg)) <= GRADIENT_RTOL * max(1.0, abs(f)):
            return LbfgsResult(x, f, aux, g, it, "gradient_tol")
        p = _direction(g, pairs, h0) if pairs else -hg
        gp = _dot(g, p)
        if not gp < 0.0:
            pairs = []
            p, gp = -hg, -_dot(g, hg)
        t = 1.0 if pairs else STEP_INIT
        predicted = -0.5 * t * gp
        while -t * gp > ROUNDOFF * abs(f):
            x_new = x + t * p
            f_new, aux_new = fun(x_new)
            if f_new < f and f_new <= f + ARMIJO * t * gp:
                break
            t *= STEP_SHRINK
        else:
            if predicted <= OBJECTIVE_RTOL * abs(f):
                return LbfgsResult(x, f, aux, g, it + 1, "stall")
            if not pairs:
                return LbfgsResult(x, f, aux, g, it + 1, "line_search_exhausted")
            pairs = []
            continue
        g_new = grad(x_new, aux_new)
        s, y = x_new - x, g_new - g
        sy = _dot(s, y)
        if sy > CURVATURE_EPS * np.sqrt(_dot(s, s) * _dot(y, y)):
            pairs = pairs[-(MEMORY - 1):] + [(s, y, 1.0 / sy)]
        else:
            # Skip the pair and restart: the stale memory's scaling would
            # otherwise pin every later step at t = 1 to a stale length.
            pairs = []
        x, f, aux, g = x_new, f_new, aux_new, g_new
        hg = h0(g)
    return LbfgsResult(x, f, aux, g, max_iters, "budget")
