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
which does not cancel at small steps, and each interior ``tr G^{-1}`` is
``|Y^{-1}|_F^2``. The solver runs L-BFGS along the closed-form gradient of
the objective in the free factors, without the ends' Fisher term, which no
step moves.

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
from .entropy_flow import flow_atoms, slice_entropies
from .exceptions import FRGeoError, InfiniteEndpointEntropyError
from .fisher_rao import (
    MeasurePath,
    check_not_antipodal,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    fisher_rao_geodesic,
)
from .hpsd import RANK_RTOL, hermitian_part, psd_sqrt, spd_inverse
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
    fisher_term: float  # of the interior slices only
    factors: np.ndarray  # Y_k
    inverses: np.ndarray | None  # Z_k = Y_k^{-1} of the interior positive-weight atoms
    residual: np.ndarray  # R_k = Y_{k+1} - Y_k W_k
    polar: np.ndarray  # W_k
    dfr: np.ndarray  # d_FR(G_k, G_{k+1})


def _stack_objective(factors: np.ndarray, weights: np.ndarray, epsilon: float) -> _Forward:
    """The kinetic and interior Fisher terms of the slices ``G_k = Y_k Y_k*``
    of a factor stack ``(N+1, n, d, d)``, with the pieces the gradient reuses:
    one batched SVD of the edges gives ``d_B^2 = |R_k|^2`` per atom through
    :func:`~frgeo.bures.polar_residual`, and one batched ``inv`` of the
    interior positive-weight factors gives ``tr G^{-1} = |Y^{-1}|_F^2``
    without squaring their condition numbers. An interior density is
    singular (Fisher term ``inf``) when its factor is exactly singular or
    ``tr G tr G^{-1} = |Y|_F^2 |Y^{-1}|_F^2 >= 1 / RANK_RTOL``; as
    ``cond G <= tr G tr G^{-1} <= d^2 cond G``, that is every
    :func:`~frgeo.hpsd.singular` density, and also those with a
    condition number between ``1e12 / d^2`` and ``1e12``."""
    n_steps, d = factors.shape[0] - 1, factors.shape[-1]
    residual, polar = polar_residual(factors[:-1], factors[1:])
    dfr = fisher_rao_from_hellinger(4.0 * (np.abs(residual) ** 2).sum(axis=(1, 2, 3)))
    kinetic = 0.5 * n_steps * float((dfr**2).sum())
    pos = weights > 0.0
    y = factors[1:-1, pos]
    try:
        inverses = np.linalg.inv(y)
    except np.linalg.LinAlgError:  # an exactly singular factor
        return _Forward(kinetic, math.inf, factors, None, residual, polar, dfr)
    trace_inv = (np.abs(inverses) ** 2).sum(axis=(-2, -1))
    singular = np.any((np.abs(y) ** 2).sum(axis=(-2, -1)) * trace_inv >= 1.0 / RANK_RTOL)
    fisher = math.inf if singular else float((weights[pos] * (weights[pos] * trace_inv - d)).sum())
    return _Forward(kinetic, 0.5 * epsilon**2 / n_steps * fisher, factors, inverses, residual, polar, dfr)


def discrete_objective(
    path: MeasurePath, lam: ReferenceMeasure, epsilon: float
) -> tuple[float, float]:
    """Objective decomposition of a sphere path on a uniform grid:
    ``kinetic = (N/2) sum_k d_FR(G_k, G_{k+1})^2`` and the trapezoid Fisher
    term weighted by ``epsilon^2 / 2``. Infinity propagates from singular
    slices, with the interior ones singular under :func:`_stack_objective`'s
    rule. ``epsilon`` must be finite and nonnegative."""
    _check_epsilon(epsilon)
    check_reference_support(path, lam)
    if path.n_slices < 2:
        raise FRGeoError("discrete objective needs at least two slices")
    steps = np.diff(path.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise FRGeoError("discrete objective requires a uniform time grid")
    check_probability(path, "slice")
    fwd = _stack_objective(psd_sqrt(path.atoms), lam.weights, epsilon)
    end_fishers = slice_entropies(path.atoms[[0, -1]], lam)[1]
    return fwd.kinetic, fwd.fisher_term + 0.25 * epsilon**2 / (path.n_slices - 1) * float(end_fishers.sum())


def recovery_sequence(path: MeasurePath, lam: ReferenceMeasure, epsilon: float) -> MeasurePath:
    """Heat-flow perturbation ``G_k -> S_{h(t_k)}(G_k)`` with
    ``h(t) = epsilon * min(t, 1 - t)``, as one broadcast of the affine flow
    (:func:`~frgeo.entropy_flow.flow_atoms`) over the atom stack.

    Endpoints are untouched; interior slices mix toward the weighted
    identity, which bounds their Fisher information. Requires finite
    endpoint entropies and ``epsilon``; ``epsilon = 0`` returns the path as is.
    """
    _check_epsilon(epsilon)
    check_reference_support(path, lam)
    _endpoint_entropies(path.atoms[[0, -1]], lam)
    return path if epsilon == 0.0 else _heat_flow_perturbation(path, lam, epsilon)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be {'finite' if epsilon > 0.0 else 'nonnegative'}, got {epsilon}")


def _endpoint_entropies(ends: np.ndarray, lam: ReferenceMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and Fisher informations of the end slices ``(2, n, d, d)``, from one
    ``slice_entropies`` call; :class:`InfiniteEndpointEntropyError` names an infinite end."""
    entropies, fishers = slice_entropies(ends, lam)
    for label, e in zip(("initial", "final"), entropies):
        if math.isinf(e):
            raise InfiniteEndpointEntropyError(f"{label} endpoint has infinite entropy")
    return entropies, fishers


def _heat_flow_perturbation(path: MeasurePath, lam: ReferenceMeasure, epsilon: float) -> MeasurePath:
    """:func:`recovery_sequence` for ``epsilon > 0``, without its endpoint checks."""
    h = epsilon * np.minimum(path.times, 1.0 - path.times)[:, None, None, None]
    decay = np.vectorize(math.exp)(-h)  # the decay heat_flow takes, bit for bit
    atoms = np.where(h > 0.0, flow_atoms(path.atoms, lam, decay), path.atoms)
    return MeasurePath(path.times, path.support, atoms, {**path.meta, "recovery_epsilon": epsilon})


# ---------------------------------------------------------------------------
# Bridge solver.
# ---------------------------------------------------------------------------


def _bridge_objective(fac: np.ndarray, ends: np.ndarray, weights: np.ndarray, epsilon: float):
    """The descended objective and its :class:`_Forward` at free interior factors ``F_k``: the slices
    ``Y_k = F_k / |F_k|`` between the end roots ``ends``, or ``(inf, None)`` where one is not finite."""
    if not np.all(np.isfinite(fac)):
        return math.inf, None
    norms = np.sqrt((np.abs(fac) ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    stacked = np.concatenate([ends[:1], fac / norms, ends[1:]])
    if not np.all(np.isfinite(stacked)):
        return math.inf, None
    fwd = _stack_objective(stacked, weights, epsilon)
    return fwd.kinetic + fwd.fisher_term, fwd


def _bridge_gradient(
    factors: np.ndarray, fwd: _Forward, weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """Closed-form gradient of the objective on the interior factors ``F_k``
    of ``Y_k = F_k / |F_k|``, built from the pieces of the objective
    evaluation ``fwd`` at ``factors`` without a further decomposition.

    By the envelope theorem, ``d_B^2 = min_W |Y_{k+1} - Y_k W|^2`` has the
    gradient ``2 R_k`` in ``Y_{k+1}`` and ``-2 R_k W_k*`` in ``Y_k``, chained
    through ``f(x) = (4 arcsin(sqrt(x) / 4))^2`` at ``x = 4 sum_i d_B^2``;
    the Fisher term gives ``-(epsilon^2 / N) w_i^2 G_i^{-2} Y_i``, with
    ``G^{-2} Y = Z* Z Z*`` from the inverse ``Z = Y^{-1}``. The normalization
    then removes the radial part ``Re <g_k, Y_k> Y_k`` of each slice's
    gradient and divides by ``|F_k|``.
    """
    n_steps = factors.shape[0] + 1
    # (N/2) * 4 * f'(x), with f'(x) = (theta/2) / sin(theta/2) -> 1 as x -> 0.
    coef = (2.0 * n_steps / np.sinc(fwd.dfr / (2.0 * np.pi)))[:, None, None, None]
    res = coef * fwd.residual
    y = fwd.factors[1:-1]
    g = 2.0 * (res[:-1] - res[1:] @ np.conj(np.swapaxes(fwd.polar[1:], -1, -2)))
    pos = weights > 0.0
    zh = np.conj(np.swapaxes(fwd.inverses, -1, -2))
    g[:, pos] -= (epsilon**2 / n_steps) * weights[pos][:, None, None] ** 2 * (zh @ fwd.inverses @ zh)
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
    explicit ``init_path`` is supplied. That path must have ``n_steps + 1``
    slices on the support of ``g0``, and nothing else of it is checked: its
    times are never read, and its interior atoms start the descent at the
    uniform grid's interior times. Either way, endpoints that
    :func:`~frgeo.fisher_rao.check_not_antipodal` rejects raise
    :class:`AntipodalError`. The shared L-BFGS routine
    (:func:`frgeo.optim.lbfgs`) descends on the stacked factors along the
    closed-form gradient :func:`_bridge_gradient` of the objective
    :func:`_bridge_objective`, preconditioned in time; steps
    that would make an interior density singular price themselves out
    through an infinite objective. The descent leaves out the end slices'
    Fisher term, which no step moves, so that an ill-conditioned endpoint's
    large constant cannot swamp the stop tests; the result reports it.
    """
    check_same_support(g0, g1)
    check_reference_support(g0, lam)
    end_atoms = np.stack([g0.atoms, g1.atoms])
    end_fishers = _endpoint_entropies(end_atoms, lam)[1]

    n_steps = cfg.n_steps
    times = np.linspace(0.0, 1.0, n_steps + 1)
    if init_path is None:
        init_path = _heat_flow_perturbation(fisher_rao_geodesic(g0, g1, times), lam, cfg.epsilon)
    else:
        check_not_antipodal(fisher_rao_distance(g0, g1))
        if init_path.n_slices != n_steps + 1:
            raise FRGeoError(f"init_path has {init_path.n_slices} slices, expected {n_steps + 1}")
        check_same_support(init_path, g0)
    roots = psd_sqrt(np.concatenate([end_atoms, init_path.atoms[1:-1]]))
    obj, fwd = _bridge_objective(roots[2:], roots[:2], lam.weights, cfg.epsilon)
    if math.isinf(obj):
        raise FRGeoError("initialization has infinite objective; endpoints too degenerate")
    res = lbfgs(
        lambda fac: _bridge_objective(fac, roots[:2], lam.weights, cfg.epsilon),
        lambda fac, fwd: _bridge_gradient(fac, fwd, lam.weights, cfg.epsilon),
        roots[2:], obj, fwd, max_iters=cfg.max_iters,
    )
    y = res.aux.factors[1:-1]
    atoms = np.concatenate([g0.atoms[None], y @ np.conj(np.swapaxes(y, -1, -2)), g1.atoms[None]])
    path = MeasurePath(times, g0.support, atoms, meta={"spherical": True, "epsilon": cfg.epsilon, "metric": "fisher_rao"})
    fisher_term = res.aux.fisher_term + 0.25 * cfg.epsilon**2 / n_steps * float(end_fishers.sum())
    return BridgeResult(
        path, res.aux.kinetic, fisher_term, res.aux.kinetic + fisher_term, res.converged, res.iterations, res.stop_reason
    )


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
    result = solve_bridge(g0, g1, lam, cfg)
    gap = float(tv_distance(result.path, geodesic).max())
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
    the given temperature order. A row's error propagates: it comes from a
    precondition on the endpoints, which every row shares.
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
    check_same_support(g0, g1)
    check_reference_support(g0, lam)
    e0, e1 = _endpoint_entropies(np.stack([g0.atoms, g1.atoms]), lam)[0].tolist()
    thetas = sorted(float(t) for t in thetas)
    path = fisher_rao_geodesic(g0, g1, thetas)
    dfr_sq = path.meta["distance"] ** 2
    return [
        (theta, lhs, (1.0 - theta) * e0 + theta * e1 - 0.25 * theta * (1.0 - theta) * dfr_sq)
        for theta, lhs in zip(thetas, slice_entropies(path.atoms, lam)[0].tolist())
    ]
