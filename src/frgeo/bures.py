"""Bures-Wasserstein geometry on single Hermitian-PSD fibers.

Provides the closed-form squared distance, its spherical (unit-trace)
companion, geodesics through the optimal linear map, the complex-to-real
embedding identity, and a dynamical solver that minimizes the kinetic action
over discretized paths. The dynamical solver is deliberately independent of
the optimal-map construction so the two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NotUnitTraceError, SingularMatrixError
from .hpsd import (
    clamp_psd,
    cross_trace,
    from_spectrum,
    frobenius_inner,
    frobenius_norm,
    hermitian_part,
    is_positive_definite,
    psd_spectrum,
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
GEODESIC_ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class FiberGeodesic:
    """Sampled path between two PSD fibers (or two stacks of fibers).

    ``points[k]`` is the matrix (or stack) at ``times[k]``; ``velocities[k]``
    solves the continuity equation at that sample where the point is
    nonsingular, and is None otherwise. ``meta`` records construction details
    (regularization shift, solver convergence, ...).
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


def optimal_transport_map(w: np.ndarray, v: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """The Hermitian PSD map ``T`` with ``T a0 T = a1`` for definite
    ``a0 = v diag(w) v*`` (per pair of a stack), given by that decomposition:
    ``T = a0^{-1/2} (a0^{1/2} a1 a0^{1/2})^{1/2} a0^{-1/2}``."""
    s = np.sqrt(np.clip(w, 0.0, None))
    sqrt_a0 = from_spectrum(v, s)
    # Divide rather than scale by 1 / s: the regularized start amplifies
    # that 1-ulp difference about 1e5-fold in the geodesic points.
    inv_sqrt_a0 = (v / s[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    middle = psd_sqrt(hermitian_part(sqrt_a0 @ a1 @ sqrt_a0))
    return hermitian_part(inv_sqrt_a0 @ middle @ inv_sqrt_a0)


def _geodesic_points(a0: np.ndarray, a1: np.ndarray, ts, labels):
    """The points of :func:`bures_geodesic_stack` (``velocities`` None) plus
    the fibers' bases, optimal maps and ``M_t``, which the velocity step needs."""
    a0, w0, v0 = psd_spectrum(np.asarray(a0, dtype=complex), labels=labels)
    a1 = clamp_psd(np.asarray(a1, dtype=complex), labels=labels)
    ts = np.asarray(ts, dtype=float)
    d = a0.shape[-1]
    eye = np.eye(d, dtype=complex)
    rank = spectral_rank(w0)
    radial = rank == 0
    regularized = ~radial & (rank < d)
    tr0 = np.real(np.trace(a0, axis1=-2, axis2=-1))
    tr1 = np.real(np.trace(a1, axis1=-2, axis2=-1))
    delta = np.where(regularized, GEODESIC_REG_SCALE * np.maximum(tr0, tr1), 0.0)
    # Radial fibers take no map; the identity stands in as a harmless base.
    base = np.where(radial[:, None, None], eye, a0 + delta[:, None, None] * eye)
    endpoint_error = np.linalg.norm(base - a0, axis=(-2, -1)) * regularized
    if np.any(endpoint_error > GEODESIC_ENDPOINT_TOL):
        raise SingularMatrixError(
            f"regularized geodesic start error {endpoint_error.max():.3e} exceeds {GEODESIC_ENDPOINT_TOL:.1e}"
        )
    # A map-mode base is a0 itself, so only shifted bases need a new eigh.
    w_base, v_base = w0.copy(), v0.copy()
    w_base[radial], v_base[radial] = 1.0, eye
    w_base[regularized], v_base[regularized] = np.linalg.eigh(base[regularized])

    t_map = optimal_transport_map(w_base, v_base, a1)
    t = ts[:, None, None, None]
    m_t = (1.0 - t) * eye + t * t_map
    points = hermitian_part(m_t @ base @ m_t)
    points[:, radial] = (t * t * a1)[:, radial]
    mode = np.where(radial, "radial", np.where(regularized, "regularized", "map"))
    meta = {"mode": mode, "delta": delta, "endpoint_error": endpoint_error}
    return FiberGeodesic(a0, a1, ts, points, None, meta), base, t_map, m_t


def bures_geodesic_points(a0: np.ndarray, a1: np.ndarray, ts, labels=None) -> np.ndarray:
    """The points ``(len(ts), n, d, d)`` of :func:`bures_geodesic_stack`,
    without its velocity step."""
    return _geodesic_points(a0, a1, ts, labels)[0].points


def bures_geodesic_stack(a0: np.ndarray, a1: np.ndarray, ts, labels=None) -> FiberGeodesic:
    """Geodesic samples between paired fibers of two ``(n, d, d)`` stacks,
    each fiber as :func:`bures_geodesic` builds it: ``radial`` from a zero
    start, ``regularized`` from a singular one, ``map`` otherwise.

    ``points[k]`` is the stack at ``ts[k]``; ``velocities[k]`` is the stack
    of fiber velocities when every fiber has one there, else None. ``meta``
    holds the per-fiber arrays ``mode``, ``delta`` and ``endpoint_error``.
    """
    geo, base, t_map, m_t = _geodesic_points(a0, a1, ts, labels)
    ts, points = geo.times, geo.points
    radial = geo.meta["mode"] == "radial"
    eye = np.eye(points.shape[-1], dtype=complex)
    dm = t_map - eye
    da_t = hermitian_part(dm @ base @ m_t + m_t @ base @ dm)
    w, v = np.linalg.eigh(points)
    has_velocity = spectral_rank(w) == points.shape[-1]
    has_velocity[:, radial] &= (ts > 0.0)[:, None]
    solve = has_velocity & ~radial
    us = np.zeros_like(points)
    us[solve] = solve_sylvester_eigh(w[solve], v[solve], da_t[solve])
    us[:, radial] = (2.0 / np.where(ts > 0.0, ts, 1.0))[:, None, None, None] * eye
    velocities = tuple(us[k] if has_velocity[k].all() else None for k in range(len(ts)))
    return replace(geo, velocities=velocities)


def bures_geodesic(a0: np.ndarray, a1: np.ndarray, ts) -> FiberGeodesic:
    """Geodesic samples between PSD fibers.

    For definite ``a0`` the path is ``a_t = M_t a0 M_t`` with
    ``M_t = (1 - t) I + t T``. A zero start gives the radial path
    ``a_t = t^2 a1``. A singular nonzero start is shifted by
    ``delta = 1e-8 * max(tr a0, tr a1)`` before applying the map; the shift
    and the resulting endpoint error are recorded in ``meta``.
    """
    geo = bures_geodesic_stack(np.asarray(a0)[None], np.asarray(a1)[None], ts)
    mode = str(geo.meta["mode"][0])
    meta: dict = {"delta": float(geo.meta["delta"][0]), "mode": mode}
    if mode == "regularized":
        meta["endpoint_error"] = float(geo.meta["endpoint_error"][0])
    velocities = tuple(None if u is None else u[0] for u in geo.velocities)
    return FiberGeodesic(geo.a0[0], geo.a1[0], geo.times, geo.points[:, 0], velocities, meta)


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
    # independent of the optimal-map construction on purpose.
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
