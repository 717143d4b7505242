"""Dynamical Schrödinger bridges on the unit-mass sphere of matrix measures.

The temperature-``epsilon`` problem minimizes
``kinetic + (epsilon^2 / 2) * integral of the Fisher information`` over
sphere paths with pinned endpoints. The kinetic term is discretized through
the closed-form Fisher-Rao distance between consecutive slices,
``(N/2) * sum_k d_FR(G_k, G_{k+1})^2``, and the Fisher term by the trapezoid
rule. Every slice is given by a factor, ``G_k = Y_k Y_k*``: the end factors
are the roots of the endpoints, and the interior ones are ``Y_k = F_k / |F_k|``
with free complex ``F_k``, which keeps every iterate PSD and exactly unit-mass
without projections. Each ``d_B^2`` is the polar residual
``min_W |Y_{k+1} - Y_k W|^2`` over unitaries (:func:`frgeo.bures.polar_residual`),
which does not cancel at small steps. The solver runs L-BFGS along the
closed-form gradient of the objective in the free factors.

The module also provides the heat-flow recovery perturbation (which both
initializes the solver and realizes the vanishing-temperature upper bound),
the closed-form Gaussian bridge for the single-fiber real case, and the
temperature-sweep / geodesic-convexity experiment drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .bures import check_times, polar_residual
from .entropy_flow import entropy, entropy_terms, heat_flow, slice_entropies
from .exceptions import (
    AntipodalError,
    FRGeoError,
    InfiniteEndpointEntropyError,
)
from .fisher_rao import (
    ANTIPODAL_TOL,
    MeasurePath,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    fisher_rao_geodesic,
)
from .hpsd import (
    EigenDecomposition,
    eigendecomposition,
    from_spectrum,
    hermitian_part,
    psd_sqrt,
    spd_inverse,
    zero_floor,
)
from .measures import (
    MatrixMeasure,
    ReferenceMeasure,
    check_probability,
    check_reference_support,
    check_same_support,
    tv_distance,
)
from .optim import lbfgs


@dataclass(frozen=True)
class SchrodingerConfig:
    """Solver settings: temperature, grid size and iteration budget."""

    epsilon: float
    n_steps: int = 32
    max_iters: int = 2000

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.n_steps < 8:
            raise ValueError(f"n_steps must be at least 8, got {self.n_steps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class BridgeResult:
    """Bridge path plus its objective decomposition and how the descent
    stopped (:mod:`frgeo.optim`)."""

    path: MeasurePath
    kinetic: float
    fisher_term: float
    objective: float
    converged: bool
    iterations: int
    stop_reason: str


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    objective: float
    kinetic: float
    fisher_term: float
    tv_gap: float
    converged: bool
    error: str | None = None


@dataclass(frozen=True)
class GaussianBridgeResult:
    """Entropic interpolation between real SPD fibers: ``points[k]`` is the
    covariance at ``times[k]``."""

    times: np.ndarray
    points: np.ndarray


# ---------------------------------------------------------------------------
# Objective and gradient on stacked slices (hot path of the solver).
# ---------------------------------------------------------------------------


class _Forward(NamedTuple):
    """One evaluation of the discrete objective on a factor stack
    ``(N+1, n, d, d)``, with the pieces its gradient reuses."""

    kinetic: float
    fisher_term: float
    factors: np.ndarray  # Y_k
    slices: np.ndarray  # G_k = Y_k Y_k*
    eig: EigenDecomposition  # of every slice
    residual: np.ndarray  # R_k = Y_{k+1} - Y_k W_k
    polar: np.ndarray  # W_k
    dfr: np.ndarray  # d_FR(G_k, G_{k+1})


def _stack_objective(factors: np.ndarray, weights: np.ndarray, epsilon: float) -> _Forward:
    """The discrete objective of the slices ``G_k = Y_k Y_k*`` given by a
    factor stack ``(N+1, n, d, d)``, with the pieces its gradient reuses:
    one batched SVD of the edges gives ``d_B^2 = |R_k|^2`` per atom through
    :func:`~frgeo.bures.polar_residual`, and one batched ``eigh`` of the
    slices gives the Fisher term. The value depends on each ``Y_k`` only
    through ``G_k``."""
    n_steps = factors.shape[0] - 1
    residual, polar = polar_residual(factors[:-1], factors[1:])
    dfr = fisher_rao_from_hellinger(4.0 * (np.abs(residual) ** 2).sum(axis=(1, 2, 3)))
    kinetic = 0.5 * n_steps * float((dfr**2).sum())
    slices = factors @ np.conj(np.swapaxes(factors, -1, -2))
    eig = eigendecomposition(slices)
    fisher = entropy_terms(eig.eigenvalues, weights)[1]
    tw = np.full(n_steps + 1, 1.0 / n_steps)  # trapezoid rule
    tw[[0, -1]] /= 2.0
    fisher_term = 0.5 * epsilon**2 * float(np.dot(tw, fisher))
    return _Forward(kinetic, fisher_term, factors, slices, eig, residual, polar, dfr)


def discrete_objective(
    path: MeasurePath, lam: ReferenceMeasure, epsilon: float
) -> tuple[float, float]:
    """Objective decomposition of a sphere path on a uniform grid:
    ``kinetic = (N/2) sum_k d_FR(G_k, G_{k+1})^2`` and the trapezoid Fisher
    term weighted by ``epsilon^2 / 2``. Infinity propagates from singular
    interior slices."""
    check_reference_support(path.slices[0], lam)
    steps = np.diff(path.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise FRGeoError("discrete objective requires a uniform time grid")
    for k, g in enumerate(path.slices):
        check_probability(g, f"slice {k}")
    fwd = _stack_objective(psd_sqrt(np.stack([g.atoms for g in path.slices])), lam.weights, epsilon)
    return fwd.kinetic, fwd.fisher_term


def recovery_sequence(path: MeasurePath, lam: ReferenceMeasure, epsilon: float) -> MeasurePath:
    """Heat-flow perturbation ``G_k -> S_{h(t_k)}(G_k)`` with
    ``h(t) = epsilon * min(t, 1 - t)``.

    Endpoints are untouched; interior slices mix toward the weighted
    identity, which bounds their Fisher information. Requires finite
    endpoint entropies; with ``epsilon = 0`` the path is returned unchanged.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    _check_endpoint_entropies(path.slices[0], path.slices[-1], lam)
    return path if epsilon == 0.0 else _heat_flow_perturbation(path, lam, epsilon)


def _check_endpoint_entropies(g0: MatrixMeasure, g1: MatrixMeasure, lam: ReferenceMeasure) -> None:
    for label, g in (("initial", g0), ("final", g1)):
        if math.isinf(entropy(g, lam)):
            raise InfiniteEndpointEntropyError(f"{label} endpoint has infinite entropy")


def _heat_flow_perturbation(path: MeasurePath, lam: ReferenceMeasure, epsilon: float) -> MeasurePath:
    """:func:`recovery_sequence` for ``epsilon > 0``, without its endpoint checks."""
    slices = []
    for t, g in zip(path.times, path.slices):
        h = epsilon * min(float(t), 1.0 - float(t))
        slices.append(heat_flow(g, lam, h) if h > 0.0 else g)
    meta = dict(path.meta)
    meta["recovery_epsilon"] = epsilon
    return MeasurePath(path.times, tuple(slices), None, meta)


# ---------------------------------------------------------------------------
# Bridge solver.
# ---------------------------------------------------------------------------


def _bridge_gradient(
    factors: np.ndarray, fwd: _Forward, weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """Closed-form gradient of the objective on the interior factors ``F_k``
    of ``Y_k = F_k / |F_k|``, built from the pieces of the objective
    evaluation ``fwd`` at ``factors`` without a further decomposition.

    By the envelope theorem, ``d_B^2 = min_W |Y_{k+1} - Y_k W|^2`` has the
    gradient ``2 R_k`` in ``Y_{k+1}`` and ``-2 R_k W_k*`` in ``Y_k``, chained
    through ``f(x) = (4 arcsin(sqrt(x) / 4))^2`` at ``x = 4 sum_i d_B^2``;
    the Fisher term gives ``-(epsilon^2 / N) w_i^2 G_i^{-2} Y_i``, inverted
    on the range only. The normalization then removes the radial part
    ``Re <g_k, Y_k> Y_k`` of each slice's gradient and divides by ``|F_k|``.
    """
    n_steps = factors.shape[0] + 1
    # (N/2) * 4 * f'(x), with f'(x) = (theta/2) / sin(theta/2) -> 1 as x -> 0.
    coef = (2.0 * n_steps / np.sinc(fwd.dfr / (2.0 * np.pi)))[:, None, None, None]
    res = coef * fwd.residual
    y = fwd.factors[1:-1]
    w, v = fwd.eig
    inv_sq = np.where(zero_floor(w[1:-1]) > 0.0, w[1:-1], np.inf) ** -2.0
    g = 2.0 * (res[:-1] - res[1:] @ np.conj(np.swapaxes(fwd.polar[1:], -1, -2))) - (
        epsilon**2 / n_steps
    ) * weights[:, None, None] ** 2 * (from_spectrum(v[1:-1], inv_sq) @ y)
    radial = np.real(np.einsum("kijl,kijl->k", np.conj(g), y))[:, None, None, None]
    norms = np.sqrt((np.abs(factors) ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    return (g - radial * y) / norms


def solve_bridge(
    g0: MatrixMeasure,
    g1: MatrixMeasure,
    lam: ReferenceMeasure,
    cfg: SchrodingerConfig,
    init_path: MeasurePath | None = None,
) -> BridgeResult:
    """Minimize the discrete bridge objective over interior sphere slices.

    Initialization is the heat-flow recovery perturbation of the Fisher-Rao
    geodesic (always a finite-objective interior competitor) unless an
    explicit ``init_path`` on the same grid is supplied. The shared L-BFGS
    routine (:func:`frgeo.optim.lbfgs`) descends on the stacked factors
    along the closed-form gradient of the objective, preconditioned in time;
    steps that would make an interior density singular price themselves out
    through an infinite objective.
    """
    check_same_support(g0, g1)
    check_reference_support(g0, lam)
    _check_endpoint_entropies(g0, g1, lam)

    n_steps = cfg.n_steps
    times = np.linspace(0.0, 1.0, n_steps + 1)
    if init_path is None:
        # The geodesic makes the antipodal check, with the same tolerance.
        init_path = _heat_flow_perturbation(fisher_rao_geodesic(g0, g1, times), lam, cfg.epsilon)
    else:
        dfr = fisher_rao_distance(g0, g1)
        if dfr >= np.pi - ANTIPODAL_TOL:
            raise AntipodalError(f"endpoints at distance {dfr!r} >= pi - 1e-6")
        if init_path.n_slices != n_steps + 1:
            raise FRGeoError(f"init_path has {init_path.n_slices} slices, expected {n_steps + 1}")
    factors = psd_sqrt(np.stack([g.atoms for g in init_path.slices[1:-1]]))
    ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))

    def objective(fac: np.ndarray) -> tuple[float, _Forward | None]:
        if not np.all(np.isfinite(fac)):
            return math.inf, None
        norms = np.sqrt((np.abs(fac) ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
        stacked = np.concatenate([ends[:1], fac / norms, ends[1:]])
        if not np.all(np.isfinite(stacked)):
            return math.inf, None
        fwd = _stack_objective(stacked, lam.weights, cfg.epsilon)
        return fwd.kinetic + fwd.fisher_term, fwd

    obj, fwd = objective(factors)
    if math.isinf(obj):
        raise FRGeoError("initialization has infinite objective; endpoints too degenerate")

    res = lbfgs(
        objective,
        lambda fac, fwd: _bridge_gradient(fac, fwd, lam.weights, cfg.epsilon),
        factors,
        obj,
        fwd,
        max_iters=cfg.max_iters,
    )
    fwd = res.aux
    slices = [g0, *(g0.with_atoms(atoms) for atoms in fwd.slices[1:-1]), g1]
    path = MeasurePath(times, slices, None, {"spherical": True, "epsilon": cfg.epsilon, "metric": "fisher_rao"})
    return BridgeResult(path, fwd.kinetic, fwd.fisher_term, res.f, res.converged, res.iterations, res.stop_reason)


# ---------------------------------------------------------------------------
# Closed-form Gaussian bridge (single real SPD fiber).
# ---------------------------------------------------------------------------


def gaussian_bridge_oracle(a0: np.ndarray, a1: np.ndarray, epsilon: float, ts) -> GaussianBridgeResult:
    """Entropic interpolation between definite real matrices at temperature
    ``epsilon``: the covariances of the Schrödinger bridge between centred
    Gaussians under the heat kernel of variance ``sigma^2 = 2 eps`` per unit
    time, in closed form (Bunne, Hsieh, Cuturi & Krause, AISTATS 2023;
    Janati, Muzellec, Peyré & Cuturi, NeurIPS 2020):

    ``A_t = (1-t)^2 a0 + t^2 a1 + t (1-t) (C + C^T + sigma^2 I)``,
    ``C = (a0^{1/2} D a0^{-1/2} - sigma^2 I) / 2``,
    ``D = (4 a0^{1/2} a1 a0^{1/2} + sigma^4 I)^{1/2}``,

    where ``C + C^T + sigma^2 I`` is the symmetric part of
    ``a0^{1/2} D a0^{-1/2}``. A singular marginal raises
    :class:`SingularMatrixError`, and times that do not increase strictly
    within ``[0, 1]`` raise :class:`FRGeoError` before any arithmetic.
    """
    ts = check_times(ts)
    a0, a1 = np.asarray(a0), np.asarray(a1)
    if max(np.abs(np.imag(a0)).max(), np.abs(np.imag(a1)).max()) > 1e-12:
        raise FRGeoError("the Gaussian oracle handles real SPD matrices only")
    a0, a1 = (np.asarray(np.real(a), dtype=float) for a in (a0, a1))
    a0, a1 = (a0 + a0.T) / 2.0, (a1 + a1.T) / 2.0
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    inv_a0 = spd_inverse(np.stack([a0, a1]))[0]  # both marginals must be definite
    sigma_sq = 2.0 * epsilon
    root = psd_sqrt(a0)
    d = psd_sqrt(4.0 * root @ a1 @ root + sigma_sq**2 * np.eye(a0.shape[0]))
    cross = hermitian_part(root @ d @ psd_sqrt(inv_a0))
    t = ts[:, None, None]
    points = (1.0 - t) ** 2 * a0 + t**2 * a1 + t * (1.0 - t) * cross
    return GaussianBridgeResult(ts, points)


# ---------------------------------------------------------------------------
# Experiment drivers.
# ---------------------------------------------------------------------------


def _sweep_row(
    g0: MatrixMeasure,
    g1: MatrixMeasure,
    lam: ReferenceMeasure,
    geodesic: MeasurePath,
    cfg: SchrodingerConfig,
) -> SweepRow:
    try:
        result = solve_bridge(g0, g1, lam, cfg)
    except FRGeoError as exc:
        return SweepRow(cfg.epsilon, math.nan, math.nan, math.nan, math.nan, False, str(exc))
    gap = max(
        tv_distance(result.path.slices[k], geodesic.slices[k])
        for k in range(result.path.n_slices)
    )
    return SweepRow(
        cfg.epsilon, result.objective, result.kinetic, result.fisher_term, gap, result.converged
    )


def gamma_sweep(
    g0: MatrixMeasure,
    g1: MatrixMeasure,
    lam: ReferenceMeasure,
    epsilons,
    cfg: SchrodingerConfig,
    jobs: int = 1,
) -> list[SweepRow]:
    """Solve the bridge along a descending temperature schedule, one cold
    solve per row, each with ``cfg`` at the row's temperature.

    ``jobs`` only chooses where the rows run: in a pool of
    ``min(jobs, len(epsilons))`` processes when that is more than one, else
    in this process; the rows are the same either way. Output rows follow
    the given temperature order; a failed row is flagged with its error and
    the sweep continues.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("epsilons must not be empty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be strictly descending")
    cfgs = [replace(cfg, epsilon=eps) for eps in epsilons]
    times = np.linspace(0.0, 1.0, cfg.n_steps + 1)
    row = partial(_sweep_row, g0, g1, lam, fisher_rao_geodesic(g0, g1, times))
    workers = min(jobs, len(cfgs))
    if workers < 2:
        return [row(c) for c in cfgs]

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row, cfgs))


def convexity_experiment(
    g0: MatrixMeasure,
    g1: MatrixMeasure,
    lam: ReferenceMeasure,
    thetas,
) -> list[tuple[float, float, float]]:
    """Entropy along the sphere geodesic against the strengthened chord bound
    ``(1 - theta) E0 + theta E1 - (1/4) theta (1 - theta) d_FR^2``.

    Returns rows ``(theta, entropy_at_theta, bound)`` in ascending ``theta``;
    comparing them is the caller's job (``frgeo convexity`` fails on a slack
    below -1e-6).
    """
    e0, e1 = entropy(g0, lam), entropy(g1, lam)
    if math.isinf(e0) or math.isinf(e1):
        raise InfiniteEndpointEntropyError("convexity experiment requires finite endpoint entropies")
    thetas = sorted(float(t) for t in thetas)
    path = fisher_rao_geodesic(g0, g1, thetas)
    dfr_sq = path.meta["distance"] ** 2
    return [
        (theta, lhs, (1.0 - theta) * e0 + theta * e1 - 0.25 * theta * (1.0 - theta) * dfr_sq)
        for theta, lhs in zip(thetas, slice_entropies(path.slices, lam)[0].tolist())
    ]
