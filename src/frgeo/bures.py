"""Bures-Wasserstein geometry on single Hermitian-PSD fibers.

Provides the closed-form squared distance, its spherical (unit-trace)
companion, geodesics in polar form ``Y_t Y_t*`` (exact on the cone boundary),
the complex-to-real embedding identity, and a dynamical solver that minimizes
the kinetic action over discretized paths. The dynamical solver is
deliberately independent of the polar construction so the two routes
cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NotUnitTraceError
from .hpsd import (
    clamp_psd,
    cross_trace,
    frobenius_inner,
    frobenius_norm,
    hermitian_part,
    is_positive_definite,
    psd_sqrt,
    real_embedding,
    solve_sylvester_eigh,
    solve_sylvester_velocity,
    spectral_rank,
    sym_product,
)
from .optim import lbfgs

UNIT_TRACE_TOL = 1e-9
GEODESIC_REG_SCALE = 1e-8


@dataclass(frozen=True)
class FiberGeodesic:
    """Sampled path between two PSD fibers (or two stacks of fibers).

    ``points[k]`` is the matrix (or stack) at ``times[k]``; ``velocities[k]``
    solves the continuity equation at that sample where the point is
    nonsingular, and is None otherwise. ``meta`` records solver details
    (regularization shift, convergence, ...); closed-form paths leave it empty.
    """

    a0: np.ndarray
    a1: np.ndarray
    times: np.ndarray
    points: np.ndarray
    velocities: tuple
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BuresActionResult:
    """Outcome of the dynamical action minimization.

    ``stop_reason`` is how the final inner descent stopped
    (``gradient_tol``, ``stall`` or ``line_search_exhausted``) once the
    endpoint constraint is met, and ``budget`` when the iteration or
    multiplier-update budget ran out first; ``converged`` is exactly
    ``stop_reason != "budget"``."""

    value: float
    path: FiberGeodesic
    converged: bool
    iterations: int
    stop_reason: str


def bures_distance_sq_stack(a0: np.ndarray, a1: np.ndarray, labels=None) -> np.ndarray:
    """Squared Bures-Wasserstein distances between paired fibers of two
    ``(..., d, d)`` stacks, one per pair; ``labels`` name the fibers in a
    :class:`~frgeo.exceptions.NotPSDError`."""
    tr0 = np.real(np.trace(a0, axis1=-2, axis2=-1))
    tr1 = np.real(np.trace(a1, axis1=-2, axis2=-1))
    a1 = clamp_psd(a1, labels=labels)
    return np.maximum(tr0 + tr1 - 2.0 * cross_trace(psd_sqrt(a0, labels=labels), a1), 0.0)


def bures_distance_sq(a0: np.ndarray, a1: np.ndarray) -> float:
    """Squared Bures-Wasserstein distance
    ``tr a0 + tr a1 - 2 tr sqrt(sqrt(a0) a1 sqrt(a0))``.

    The two trace orderings agree; this one puts ``a0`` outside. Both inputs
    must be PSD (within the clamping floor).
    """
    return float(bures_distance_sq_stack(a0, a1))


def spherical_bures(a0: np.ndarray, a1: np.ndarray) -> float:
    """Spherical distance ``arccos(1 - d_B^2 / 2)`` between unit-trace fibers."""
    for label, a in (("first", a0), ("second", a1)):
        tr = float(np.real(np.trace(a)))
        if abs(tr - 1.0) > UNIT_TRACE_TOL:
            raise NotUnitTraceError(f"{label} argument has trace {tr!r}, expected 1")
    arg = np.clip(1.0 - bures_distance_sq(a0, a1) / 2.0, -1.0, 1.0)
    return float(np.arccos(arg))


def _geodesic_factors(a0: np.ndarray, a1: np.ndarray, ts, labels):
    """Points of :func:`bures_geodesic_stack` with their factors ``Y_t`` and
    the factor velocity ``Y_1 - a0^{1/2}``."""
    r0 = psd_sqrt(a0, labels=labels)
    r1 = psd_sqrt(a1, labels=labels)
    p, _, qh = np.linalg.svd(r1 @ r0)
    y1 = r1 @ p @ qh
    t = np.asarray(ts, dtype=float)[:, None, None, None]
    y_t = (1.0 - t) * r0 + t * y1
    return hermitian_part(y_t @ np.conj(np.swapaxes(y_t, -1, -2))), y_t, y1 - r0


def bures_geodesic_points(a0: np.ndarray, a1: np.ndarray, ts, labels=None) -> np.ndarray:
    """The points ``(len(ts), n, d, d)`` of :func:`bures_geodesic_stack`,
    without its velocity step."""
    return _geodesic_factors(np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex), ts, labels)[0]


def bures_geodesic_stack(a0: np.ndarray, a1: np.ndarray, ts, labels=None) -> FiberGeodesic:
    """Geodesic samples between paired fibers of two ``(n, d, d)`` stacks,
    each fiber as :func:`bures_geodesic` builds it.

    ``points[k]`` is the stack at ``ts[k]``; ``velocities[k]`` is the stack
    of fiber velocities when every fiber point there is definite, else None.
    """
    a0, a1 = np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex)
    points, y_t, dy = _geodesic_factors(a0, a1, ts, labels)
    rates = 2.0 * hermitian_part(dy @ np.conj(np.swapaxes(y_t, -1, -2)))
    w, v = np.linalg.eigh(points)
    definite = np.all(spectral_rank(w) == points.shape[-1], axis=-1)
    us = np.zeros_like(points)
    us[definite] = solve_sylvester_eigh(w[definite], v[definite], rates[definite])
    velocities = tuple(u if ok else None for u, ok in zip(us, definite))
    return FiberGeodesic(a0, a1, np.asarray(ts, dtype=float), points, velocities)


def bures_geodesic(a0: np.ndarray, a1: np.ndarray, ts) -> FiberGeodesic:
    """Geodesic samples between PSD fibers.

    The path is ``a_t = Y_t Y_t*`` with ``Y_t = (1 - t) a0^{1/2} + t a1^{1/2} U``,
    where ``U`` is the unitary polar factor of ``a1^{1/2} a0^{1/2}`` (one
    batched SVD). This holds for singular ``a0`` as well, so the endpoints
    and the mass interpolation are exact on the cone boundary; for definite
    ``a0`` it is the optimal-map path ``M_t a0 M_t``. Velocities solve
    ``(a_t u + u a_t) / 2 = d a_t / dt`` where ``a_t`` is definite.
    """
    geo = bures_geodesic_stack(np.asarray(a0)[None], np.asarray(a1)[None], ts)
    velocities = tuple(None if u is None else u[0] for u in geo.velocities)
    return FiberGeodesic(geo.a0[0], geo.a1[0], geo.times, geo.points[:, 0], velocities)


def bures_real_embedding_check(a0: np.ndarray, a1: np.ndarray) -> tuple[float, float]:
    """Both sides of the real-embedding identity:
    ``(d_B^2 of the 2d x 2d real images, 2 * d_B^2 of the originals)``."""
    lhs = bures_distance_sq(real_embedding(np.asarray(a0, dtype=complex)), real_embedding(np.asarray(a1, dtype=complex)))
    rhs = 2.0 * bures_distance_sq(a0, a1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Dynamical formulation: minimize the kinetic action over discretized paths.
# ---------------------------------------------------------------------------


def _forward_integrate(a0: np.ndarray, us: np.ndarray, dt: float):
    """Integrate ``da/dt = (a u)^Sym`` with the explicit midpoint rule.

    Returns the states ``a_k``, the midpoint states, and the action
    ``(1/4) sum_k dt * (abar_k u_k : u_k)``.
    """
    n = us.shape[0]
    states = np.empty((n + 1,) + a0.shape, dtype=complex)
    mids = np.empty((n,) + a0.shape, dtype=complex)
    states[0] = a0
    action = 0.0
    for k in range(n):
        u = us[k]
        a = states[k]
        abar = a + (dt / 2.0) * sym_product(a, u)
        states[k + 1] = a + dt * sym_product(abar, u)
        mids[k] = abar
        action += float(np.real(np.vdot(u, abar @ u)))
    return states, mids, 0.25 * dt * action


def _action_gradient(a0: np.ndarray, us: np.ndarray, dt: float, p_final: np.ndarray,
                     states: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Adjoint pass for the action plus an endpoint term with gradient
    ``p_final`` at the last state."""
    n = us.shape[0]
    grads = np.empty_like(us)
    p = p_final
    for k in range(n - 1, -1, -1):
        u, a, abar = us[k], states[k], mids[k]
        q = 0.25 * dt * (u @ u) + dt * sym_product(p, u)
        grads[k] = (
            0.5 * dt * sym_product(abar, u)
            + dt * sym_product(abar, p)
            + 0.5 * dt * sym_product(a, q)
        )
        p = p + q + 0.5 * dt * sym_product(q, u)
    return grads


def dynamical_bures_solver(
    a0: np.ndarray,
    a1: np.ndarray,
    n_steps: int,
    max_iters: int = 20000,
    endpoint_tol: float = 1e-9,
) -> BuresActionResult:
    """Minimize the discretized kinetic action over paths joining ``a0, a1``.

    The path is integrated from stacked velocities with the explicit midpoint
    rule; the free endpoint is pinned by an augmented-Lagrangian penalty whose
    squared mismatch is driven below ``endpoint_tol``. Each multiplier update
    restarts the shared L-BFGS routine (:func:`frgeo.optim.lbfgs`) on the
    augmented Lagrangian, along adjoint gradients.

    Returns the action value, the discrete path, a convergence flag, the
    total iteration count and the stop reason. Singular inputs are shifted by
    ``1e-8 * max(tr a0, tr a1)`` before solving.
    """
    if n_steps < 8:
        raise ValueError(f"n_steps must be at least 8, got {n_steps}")
    a0 = clamp_psd(np.asarray(a0, dtype=complex))
    a1 = clamp_psd(np.asarray(a1, dtype=complex))
    d = a0.shape[0]
    scale = max(float(np.real(np.trace(a0))), float(np.real(np.trace(a1))))
    if scale <= 0.0:
        times = np.linspace(0.0, 1.0, n_steps + 1)
        zeros = np.zeros((n_steps + 1, d, d), dtype=complex)
        path = FiberGeodesic(a0, a1, times, zeros, tuple([None] * (n_steps + 1)), {"mode": "apex"})
        return BuresActionResult(0.0, path, True, 0, "gradient_tol")
    delta = 0.0
    if not (is_positive_definite(a0) and is_positive_definite(a1)):
        delta = GEODESIC_REG_SCALE * scale
        a0 = a0 + delta * np.eye(d)
        a1 = a1 + delta * np.eye(d)

    # Start from the straight line's velocities at the step midpoints,
    # independent of the polar construction on purpose.
    dt = 1.0 / n_steps
    diff = a1 - a0
    mids = a0 + ((np.arange(n_steps) + 0.5) * dt)[:, None, None] * diff
    us = solve_sylvester_velocity(mids, np.broadcast_to(diff, mids.shape))

    mu = np.zeros((d, d), dtype=complex)
    beta = 100.0 / max(scale, 1e-12)
    total_iters = 0
    prev_action = np.inf

    def lagrangian(vel):
        states, mids, action = _forward_integrate(a0, vel, dt)
        v = states[-1] - a1
        obj = action + frobenius_inner(mu, v) + 0.5 * beta * frobenius_norm(v) ** 2
        return obj, (states, mids, action)

    def gradient(vel, aux):
        states, mids, _ = aux
        return _action_gradient(a0, vel, dt, mu + beta * (states[-1] - a1), states, mids)

    obj, aux = lagrangian(us)
    stop_reason = "budget"
    for outer in range(60):
        # Descend the augmented Lagrangian at fixed multiplier, with fresh
        # quasi-Newton memory since the multiplier changes the objective.
        res = lbfgs(
            lagrangian,
            gradient,
            us,
            obj,
            aux,
            max_iters=min(400, max_iters - total_iters),
            step_init=1.0,
            step_shrink=0.5,
            objective_tol=1e-7 if outer < 3 else 1e-11,
            gradient_tol=1e-14,
        )
        us, aux = res.x, res.aux
        states, _, action = aux
        total_iters += res.iterations
        violation = frobenius_norm(states[-1] - a1) ** 2
        if (
            res.stop_reason != "budget"
            and violation <= endpoint_tol
            and abs(action - prev_action) <= 1e-9 * max(1.0, abs(action))
        ):
            stop_reason = res.stop_reason
            break
        if total_iters >= max_iters:
            break
        prev_action = action
        mu = mu + beta * (states[-1] - a1)
        if violation > 0.1 * frobenius_norm(mu) ** 2 / max(beta, 1.0) ** 2 or outer >= 2:
            beta *= 3.0
        obj, aux = lagrangian(us)
    converged = stop_reason != "budget"

    times = np.linspace(0.0, 1.0, n_steps + 1)
    velocities = tuple(us[min(k, n_steps - 1)] for k in range(n_steps + 1))
    meta = {
        "mode": "dynamical",
        "delta": delta,
        "endpoint_error": frobenius_norm(states[-1] - a1),
        "converged": converged,
        "iterations": total_iters,
    }
    path = FiberGeodesic(a0, a1, times, states, velocities, meta)
    return BuresActionResult(float(action), path, converged, total_iters, stop_reason)
