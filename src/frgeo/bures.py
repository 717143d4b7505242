"""Bures-Wasserstein geometry on Hermitian-PSD fibers and stacks of them.

Provides the squared distance as one polar residual, its spherical (unit-trace)
companion, geodesics in polar form ``Y_t Y_t*`` (exact on the cone boundary),
the complex-to-real embedding identity, and a dynamical solver that minimizes
the kinetic action over discretized PSD paths with both endpoints pinned. The
dynamical solver is deliberately independent of the polar construction so the
two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import FRGeoError, NotUnitTraceError
from .hpsd import (
    RANK_RTOL,
    hermitian_part,
    psd_spectrum,
    psd_sqrt,
    real_embedding,
    singular,
    solve_sylvester_eigh,
)
from .optim import lbfgs

UNIT_TRACE_TOL = 1e-9
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # adj(M)* = conj(M reversed) * _ADJ_SIGNS for 2x2 M
MAX_ITERS = 20000  # iteration budget of the dynamical solver


@dataclass(frozen=True)
class FiberGeodesic:
    """Sampled path between two PSD fibers (or two stacks of fibers).

    ``points[k]`` is the matrix (or stack) at ``times[k]``; ``velocities[k]``
    solves the continuity equation at that sample where the point is
    nonsingular, and is None otherwise. ``meta`` records solver details (the
    dynamical solver's ``mode``); closed-form paths leave it empty.
    """

    a0: np.ndarray
    a1: np.ndarray
    times: np.ndarray
    points: np.ndarray
    velocities: tuple
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BuresActionResult:
    """Outcome of the dynamical action minimization: the action value, the
    node path, and how the descent stopped (:mod:`frgeo.optim`)."""

    value: float
    path: FiberGeodesic
    converged: bool
    iterations: int
    stop_reason: str


def check_times(ts) -> np.ndarray:
    """``ts`` as a float array, else :class:`FRGeoError` unless the times
    increase strictly within ``[0, 1]``; NaN fails both tests."""
    times = np.asarray(ts, dtype=float)
    if not np.all(np.diff(times) > 0.0):
        raise FRGeoError(f"times must be strictly increasing, got {times.tolist()}")
    if times.size and not (times[0] >= -1e-12 and times[-1] <= 1.0 + 1e-12):
        raise FRGeoError(f"times must lie within [0, 1], got {times.tolist()}")
    return times


def bures_distance_sq(a0: np.ndarray, a1: np.ndarray, labels=None) -> float | np.ndarray:
    """Squared Bures-Wasserstein distance ``tr a0 + tr a1 - 2 tr sqrt(sqrt(a0) a1 sqrt(a0))``
    between two fibers (a ``float``) or the paired fibers of two ``(n, d, d)`` stacks (one per
    pair), as the polar residual of :func:`polar_endpoints`, which has no cancellation at small
    distances. Inputs must be PSD (within the clamping floor); ``labels`` name the fibers in a
    :class:`~frgeo.exceptions.NotPSDError`."""
    d_sq = polar_endpoints(a0, a1, labels)[2]
    return float(d_sq) if d_sq.ndim == 0 else d_sq


def spherical_bures(a0: np.ndarray, a1: np.ndarray) -> float:
    """Spherical distance ``arccos(1 - d_B^2 / 2)`` between unit-trace
    fibers, as ``2 arcsin(d_B / 2)``, which keeps small distances exact."""
    for label, a in (("first", a0), ("second", a1)):
        tr = float(np.real(np.trace(a)))
        if abs(tr - 1.0) > UNIT_TRACE_TOL:
            raise NotUnitTraceError(f"{label} argument has trace {tr!r}, expected 1")
    return float(2.0 * np.arcsin(min(np.sqrt(bures_distance_sq(a0, a1)) / 2.0, 1.0)))


def polar_residual(y0: np.ndarray, y1: np.ndarray):
    """``(R, W)`` for paired factors of two ``(..., d, d)`` stacks: ``W`` is
    a unitary polar factor of ``M = y0* y1``, a minimizer of ``|y1 - y0 W|``
    over unitaries, and ``R = y1 - y0 W``. For ``a = y0 y0*`` and
    ``b = y1 y1*``, ``|R|^2 = d_B^2(a, b)`` (Bhatia, Jain & Lim, Expo. Math.
    37, 2019), without the trace formula's cancellation at small distances.
    ``W`` is one batched SVD's, or at ``d = 2`` the closed form
    ``(M + e^{i arg det M} adj(M)*) / sqrt(|M|_F^2 + 2 |det M|)`` (Higham,
    *Functions of Matrices*, 2008, ch. 8), with phase 1 where ``det M = 0``
    (still unitary, with ``W* M`` PSD) and ``W = I`` where ``M = 0``."""
    m = np.conj(np.swapaxes(y0, -1, -2)) @ y1
    if m.shape[-1] == 2:
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        det += det == 0.0
        w = m + (det / np.abs(det))[..., None, None] * (np.conj(m[..., ::-1, ::-1]) * _ADJ_SIGNS)
        # The numerator's |.|_F^2 is 2 |M|_F^2 + 4 |det M|, 0 only where M = 0.
        sq = (w * w.conj()).real.sum(axis=(-2, -1), keepdims=True)
        if not sq.all():
            w, sq = np.where(sq > 0.0, w, np.eye(2)), np.where(sq > 0.0, sq, 2.0)
        w = w * np.sqrt(2.0 / sq)
    else:
        p, _, qh = np.linalg.svd(m)
        w = p @ qh
    return y1 - y0 @ w, w


def polar_from_roots(a0: np.ndarray, a1: np.ndarray, r0: np.ndarray, r1: np.ndarray):
    """``(Y_1, d_B^2)`` of :func:`polar_endpoints` from given roots ``r0, r1`` of ``a0, a1``."""
    res, u = polar_residual(r1, r0)
    same = np.equal(a0, a1).all(axis=(-2, -1))
    return np.where(same[..., None, None], r0, r1 @ u), np.where(same, 0.0, (np.abs(res) ** 2).sum(axis=(-2, -1)))


def polar_endpoints(a0: np.ndarray, a1: np.ndarray, labels=None):
    """``(a0^{1/2}, Y_1, d_B^2)`` for paired fibers of two ``(..., d, d)``
    stacks: ``Y_1 = a1^{1/2} U`` with ``U`` a unitary polar factor of
    ``a1^{1/2} a0^{1/2}`` (:func:`polar_residual`), and
    ``d_B^2 = |Y_1 - a0^{1/2}|^2`` per fiber. Both roots come from one
    ``eigh`` of the two stacks. Equal fibers give ``Y_1 = a0^{1/2}`` and
    ``d_B^2 = 0`` exactly (:func:`polar_from_roots`); their polar factor is
    ``I`` only up to round-off."""
    r0, r1 = psd_sqrt(np.stack([a0, a1]), labels=labels)
    return (r0, *polar_from_roots(a0, a1, r0, r1))


def geodesic_factors(a0: np.ndarray, r0: np.ndarray, y1: np.ndarray, ts):
    """Points ``(len(ts), *r0.shape)`` of :func:`bures_geodesic` with their
    factors ``Y_t = (1 - t) r0 + t y1`` (from :func:`polar_endpoints`) and
    the factor velocity ``y1 - r0``. A fiber whose factor does not move
    (``y1 == r0``, as for equal endpoints) is ``a0`` exactly at every time."""
    t = np.asarray(ts, dtype=float).reshape(-1, *[1] * r0.ndim)
    y_t = (1.0 - t) * r0 + t * y1
    points = hermitian_part(y_t @ np.conj(np.swapaxes(y_t, -1, -2)))
    np.copyto(points, a0, where=(y1 == r0).all(axis=(-2, -1))[..., None, None])
    return points, y_t, y1 - r0


def bures_geodesic(a0: np.ndarray, a1: np.ndarray, ts, labels=None) -> FiberGeodesic:
    """Geodesic samples between two PSD fibers, or the paired fibers of two ``(n, d, d)`` stacks.

    The path is ``a_t = Y_t Y_t*`` with ``Y_t = (1 - t) a0^{1/2} + t a1^{1/2} U``,
    where ``U`` is a unitary polar factor of ``a1^{1/2} a0^{1/2}``
    (:func:`polar_residual`). This holds for singular ``a0`` as well, so the
    endpoints and the mass interpolation are exact on the cone boundary; for definite
    ``a0`` it is the optimal-map path ``M_t a0 M_t``. A fiber equal at both
    ends is exactly ``a0`` at every time. ``points[k]`` is the fiber (or
    stack) at ``ts[k]``; ``velocities[k]`` solves ``(a_t u + u a_t) / 2 =
    d a_t / dt`` when every fiber point there is definite, else is None.
    Times must increase strictly within ``[0, 1]`` (:func:`check_times`);
    ``labels`` name the fibers in a ``NotPSDError``.
    """
    ts = check_times(ts)
    a0, a1 = np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex)
    r0, y1, _ = polar_endpoints(a0, a1, labels)
    points, y_t, dy = geodesic_factors(a0, r0, y1, ts)
    rates = 2.0 * hermitian_part(dy @ np.conj(np.swapaxes(y_t, -1, -2)))
    w, v = np.linalg.eigh(points)
    definite = ~singular(w).any(axis=tuple(range(1, w.ndim - 1)))
    us = np.zeros_like(points)
    us[definite] = solve_sylvester_eigh(w[definite], v[definite], rates[definite])
    velocities = tuple(u if ok else None for u, ok in zip(us, definite))
    return FiberGeodesic(a0, a1, ts, points, velocities)


def bures_real_embedding_check(a0: np.ndarray, a1: np.ndarray) -> tuple[float, float]:
    """Both sides of the real-embedding identity:
    ``(d_B^2 of the 2d x 2d real images, 2 * d_B^2 of the originals)``."""
    lhs = bures_distance_sq(real_embedding(np.asarray(a0, dtype=complex)), real_embedding(np.asarray(a1, dtype=complex)))
    rhs = 2.0 * bures_distance_sq(a0, a1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Dynamical formulation: minimize the kinetic action over discretized paths.
# ---------------------------------------------------------------------------


def _step_velocities(nodes: np.ndarray, dt: float) -> tuple[float, np.ndarray | None]:
    """Action ``(1/4) sum_k Re <u_k, A_{k+1} - A_k>`` of the node path
    ``(N+1, d, d)`` and its step velocities ``u_k``, which solve
    ``(abar_k u + u abar_k) / 2 = (A_{k+1} - A_k) / dt`` at the midpoints
    ``abar_k = (A_k + A_{k+1}) / 2`` of a staggered grid (Papadakis, Peyré &
    Oudet, SIAM J. Imaging Sci. 7, 2014). ``(inf, None)`` when the nodes are
    not finite or a midpoint is :func:`~frgeo.hpsd.singular`."""
    if not np.all(np.isfinite(nodes)):
        return np.inf, None
    w, v = np.linalg.eigh(0.5 * (nodes[:-1] + nodes[1:]))
    if singular(w).any():
        return np.inf, None
    steps = np.diff(nodes, axis=0)
    us = solve_sylvester_eigh(w, v, steps / dt)
    return 0.25 * float(np.real(np.vdot(us, steps))), us


def _node_action(fac: np.ndarray, b0: np.ndarray, b1: np.ndarray, dt: float):
    """The :func:`_step_velocities` action of the nodes ``b0, C_k C_k*, b1``, and ``(nodes, us)``."""
    nodes = np.concatenate([b0[None], fac @ np.conj(np.swapaxes(fac, -1, -2)), b1[None]])
    value, us = _step_velocities(nodes, dt)
    return value, (nodes, us)


def _factor_gradient(factors: np.ndarray, us: np.ndarray, dt: float) -> np.ndarray:
    """Gradient ``2 H_k C_k`` of the :func:`_step_velocities` action in the
    interior factors ``C_k`` of ``A_k = C_k C_k*``, given its velocities:
    ``H_k = (u_{k-1} - u_k) / 2 - (dt / 8) (u_{k-1}^2 + u_k^2)``."""
    h = 0.5 * (us[:-1] - us[1:]) - (dt / 8.0) * (us[:-1] @ us[:-1] + us[1:] @ us[1:])
    return 2.0 * h @ factors


def dynamical_bures_solver(a0: np.ndarray, a1: np.ndarray, n_steps: int) -> BuresActionResult:
    """Minimize the discretized kinetic action over paths joining ``a0, a1``.

    Both endpoints are pinned and the interior nodes are ``A_k = C_k C_k*``,
    so every path is PSD and joins ``a0`` to ``a1`` exactly. One run of the
    shared L-BFGS routine (:func:`frgeo.optim.lbfgs`, at most ``MAX_ITERS``
    iterations) descends on the factors along :func:`_factor_gradient` of
    their action :func:`_node_action`, preconditioned in time, from the
    square roots of the straight line (independent of the polar construction
    on purpose). Nothing is shifted: it solves on the range ``Q`` of
    ``a0 + a1`` at the grid's resolution, the eigenvectors with eigenvalues
    above ``2 N^2 RANK_RTOL`` of the largest (none is the apex), so the
    midpoints stay definite when the ends share a kernel, or nearly do. The
    path is lifted by ``Q . Q*``; lighter directions stay out of the action.
    """
    if n_steps < 8:
        raise ValueError(f"n_steps must be at least 8, got {n_steps}")
    a0 = psd_spectrum(np.asarray(a0, dtype=complex))[0]
    a1 = psd_spectrum(np.asarray(a1, dtype=complex))[0]
    times = np.linspace(0.0, 1.0, n_steps + 1)
    w, q = np.linalg.eigh(a0 + a1)
    # From an end singular in a direction of weight w, the first midpoint
    # weighs about dt^2 w / 2 there, which must pass the rank rule.
    q = q[:, w > 2.0 * n_steps**2 * RANK_RTOL * max(w[-1], 0.0)]
    if q.shape[1] == 0:
        zeros = np.zeros((n_steps + 1,) + a0.shape, dtype=complex)
        path = FiberGeodesic(a0, a1, times, zeros, tuple([None] * (n_steps + 1)), {"mode": "apex"})
        return BuresActionResult(0.0, path, True, 0, "gradient_tol")
    qh = np.conj(q.T)
    b0, b1 = hermitian_part(qh @ np.stack([a0, a1]) @ q)
    dt = 1.0 / n_steps
    factors = psd_sqrt(b0 + times[1:-1, None, None] * (b1 - b0))
    res = lbfgs(
        lambda fac: _node_action(fac, b0, b1, dt), lambda fac, aux: _factor_gradient(fac, aux[1], dt),
        factors, *_node_action(factors, b0, b1, dt), max_iters=MAX_ITERS,
    )
    nodes, us = (hermitian_part(q @ x @ qh) for x in res.aux)
    nodes[0], nodes[-1] = a0, a1
    velocities = tuple(us[min(k, n_steps - 1)] for k in range(n_steps + 1))
    path = FiberGeodesic(a0, a1, times, nodes, velocities, {"mode": "dynamical"})
    return BuresActionResult(res.f, path, res.converged, res.iterations, res.stop_reason)
