"""Limited-memory BFGS with Armijo backtracking, shared by the solvers.

The two-loop recursion (Liu & Nocedal, *Math. Programming* 45, 1989;
Nocedal & Wright, *Numerical Optimization*, Alg. 7.4/7.5) works on arrays
of any shape and dtype in the real inner product ``Re vdot``, so complex
parameters descend as pairs of real ones.
Every accepted step strictly decreases the objective.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

MEMORY = 8
ARMIJO = 1e-4
STALL_WINDOW = 10
CURVATURE_EPS = 1e-10
ROUNDOFF = float(np.finfo(float).eps)


class LbfgsResult(NamedTuple):
    x: np.ndarray
    f: float
    aux: Any
    grad: np.ndarray
    iterations: int
    stop_reason: str


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _direction(g: np.ndarray, pairs: list) -> np.ndarray:
    """``-H g`` for the inverse-Hessian estimate of the stored pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * _dot(s, q))
        q -= alphas[-1] * y
    s, y, _ = pairs[-1]
    r = (_dot(s, y) / _dot(y, y)) * q
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
    step_init: float,
    step_shrink: float,
    objective_tol: float,
    gradient_tol: float,
) -> LbfgsResult:
    """Minimize ``fun`` from ``x`` (with ``(f, aux) = fun(x)`` given).

    ``fun`` returns the objective and auxiliary data that ``grad(x, aux)``
    reuses; a non-finite objective rejects the trial step. Quasi-Newton
    steps start at ``t = 1``, steepest-descent steps (first, and after a
    reset) at ``step_init``; backtracking multiplies ``t`` by ``step_shrink``
    until the first-order decrease ``-t g.p`` drops below the round-off of
    ``f``. A failed quasi-Newton line search resets the memory.

    The stop reason is ``gradient_tol`` (gradient norm at most
    ``gradient_tol * max(1, |f|)``), ``stall`` (the last ``STALL_WINDOW``
    steps dropped the objective by at most ``objective_tol * |f|``, or a line
    search failed on a step whose model decrease ``-t0 g.p / 2`` at its first
    trial ``t0`` was already that small: the objective's round-off floor),
    ``line_search_exhausted`` (steepest descent failed although its model
    predicted more) or ``budget``.
    """
    g = grad(x, aux)
    pairs: list = []
    history = [f]
    for it in range(max_iters):
        if np.sqrt(_dot(g, g)) <= gradient_tol * max(1.0, abs(f)):
            return LbfgsResult(x, f, aux, g, it, "gradient_tol")
        p = _direction(g, pairs) if pairs else -g
        gp = _dot(g, p)
        if not gp < 0.0:
            pairs = []
            p, gp = -g, -_dot(g, g)
        t = 1.0 if pairs else step_init
        predicted = -0.5 * t * gp
        while -t * gp > ROUNDOFF * abs(f):
            x_new = x + t * p
            f_new, aux_new = fun(x_new)
            if f_new < f and f_new <= f + ARMIJO * t * gp:
                break
            t *= step_shrink
        else:
            if predicted <= objective_tol * abs(f):
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
        history = history[-STALL_WINDOW:] + [f]
        if len(history) > STALL_WINDOW and history[0] - f <= objective_tol * abs(f):
            return LbfgsResult(x, f, aux, g, it + 1, "stall")
    return LbfgsResult(x, f, aux, g, max_iters, "budget")
