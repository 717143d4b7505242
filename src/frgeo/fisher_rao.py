"""Hellinger and Fisher-Rao distances and geodesics on matrix measures.

The Hellinger distance is four times the fiberwise sum of squared Bures
distances; on a shared finite support the dominating-measure bookkeeping is
automatic. The total-mass sphere sits inside the Hellinger cone, and the
Fisher-Rao distance is obtained by inverting the cone law on it:
``d_FR = 2 arccos(1 - d_H^2 / 8) = 4 arcsin(d_H / 4)``, bounded by pi.

Fisher-Rao geodesics are built by normalizing the fiberwise Hellinger
geodesic back to unit mass and reparametrizing to constant speed. Because a
cone geodesic between two unit-radius points is isometric to a planar chord,
the reparametrization has a closed form and the construction is exact (up to
round-off) whenever the endpoints are not antipodal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bures
from .exceptions import AntipodalError, FRGeoError, ZeroLengthError
from .hpsd import psd_sqrt, sym_product
from .measures import MatrixMeasure, check_probability, check_same_support, mass, tv_distance

ANTIPODAL_TOL = 1e-6


@dataclass(frozen=True)
class MeasurePath:
    """Time-indexed sequence of measures on a shared support.

    ``velocities`` is either None or one optional ``(n, d, d)`` Hermitian
    stack per slice, representing the continuity-equation potential. ``meta``
    records construction details (sphere flag, discrete ODE residual, ...).
    """

    times: np.ndarray
    slices: tuple[MatrixMeasure, ...]
    velocities: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "slices", tuple(self.slices))
        if times.ndim != 1 or len(times) != len(self.slices):
            raise FRGeoError("times and slices must have matching lengths")
        bures.check_times(times)
        for g in self.slices[1:]:
            check_same_support(self.slices[0], g)
        if self.velocities is not None and len(self.velocities) != len(self.slices):
            raise FRGeoError("velocities must align with slices")

    @property
    def n_slices(self) -> int:
        return len(self.slices)


def hellinger_distance_sq(g0: MatrixMeasure, g1: MatrixMeasure) -> float:
    """Four times the fiberwise sum of squared Bures distances."""
    check_same_support(g0, g1)
    return 4.0 * float(bures.bures_distance_sq_stack(g0.atoms, g1.atoms, g0.support.point_ids).sum())


def fisher_rao_from_hellinger(dh_sq):
    """Sphere distance from ``dh_sq = d_H^2`` (array or scalar) by the inverted
    cone law ``2 arccos(1 - d_H^2 / 8)``, as ``4 arcsin(d_H / 4)`` to keep small distances exact."""
    return 4.0 * np.arcsin(np.minimum(np.sqrt(dh_sq) / 4.0, 1.0))


def fisher_rao_distance(g0: MatrixMeasure, g1: MatrixMeasure) -> float:
    """Sphere distance ``2 arccos(1 - d_H^2 / 8) = 4 arcsin(d_H / 4)``, in ``[0, pi]``."""
    check_probability(g0, "first measure")
    check_probability(g1, "second measure")
    return float(fisher_rao_from_hellinger(hellinger_distance_sq(g0, g1)))


def cone_scaling_check(
    g0: MatrixMeasure, g1: MatrixMeasure, r0: float, r1: float
) -> tuple[float, float]:
    """Both sides of the cone scaling law for sphere points scaled by ``r^2``:
    ``(d_H^2(r0^2 g0, r1^2 g1), r0 r1 d_H^2(g0, g1) + 4 (r1 - r0)^2)``."""
    check_probability(g0, "first measure")
    check_probability(g1, "second measure")
    lhs = hellinger_distance_sq(
        g0.with_atoms(g0.atoms * r0 * r0), g1.with_atoms(g1.atoms * r1 * r1)
    )
    rhs = r0 * r1 * hellinger_distance_sq(g0, g1) + 4.0 * (r1 - r0) ** 2
    return lhs, rhs


def _discrete_ode_residual(times, slices, velocities) -> float:
    """Max TV residual of ``(G_{k+1} - G_k)/dt = (G_k U_k)^Sym`` over steps
    with a velocity attached."""
    resids = (
        np.linalg.norm((b.atoms - a.atoms) / (t1 - t0) - sym_product(a.atoms, u), axis=(1, 2)).sum()
        for t0, t1, a, b, u in zip(times, times[1:], slices, slices[1:], velocities)
        if u is not None
    )
    return float(max(resids, default=0.0))


def hellinger_geodesic(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> MeasurePath:
    """Fiberwise Bures geodesic through every atom.

    The resulting path moves at constant Hellinger speed. Per-slice
    velocities are attached whenever every fiber admits one.
    """
    check_same_support(g0, g1)
    geo = bures.bures_geodesic_stack(g0.atoms, g1.atoms, ts, g0.support.point_ids)
    slices = tuple(g0.with_atoms(atoms) for atoms in geo.points)
    meta = {"metric": "hellinger", "ode_residual": _discrete_ode_residual(geo.times, slices, geo.velocities)}
    return MeasurePath(geo.times, slices, geo.velocities, meta)


def hellinger_geodesic_points(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> MeasurePath:
    """The slices of :func:`hellinger_geodesic` without its velocities: one
    polar SVD (:func:`~frgeo.bures.polar_endpoints`) and no velocity step."""
    ts = bures.check_times(ts)
    check_same_support(g0, g1)
    r0, y1, _ = bures.polar_endpoints(g0.atoms, g1.atoms, g0.support.point_ids)
    points = bures.geodesic_factors(r0, y1, ts)[0]
    return MeasurePath(ts, tuple(g0.with_atoms(atoms) for atoms in points), None, {"metric": "hellinger"})


def _chord_parameter(theta: float, phi: float) -> float:
    """Cone-chord parameter hitting sphere-arc fraction ``theta``.

    A cone geodesic between two unit-radius points with sphere angle ``phi``
    is a planar chord; the point at angle ``alpha = theta * phi`` sits at
    chord parameter ``sin(alpha) / (sin(alpha) + sin(phi - alpha))``.
    """
    alpha = theta * phi
    denom = np.sin(alpha) + np.sin(phi - alpha)
    if denom <= 0.0:
        raise AntipodalError("degenerate chord: endpoints are antipodal")
    return float(np.sin(alpha) / denom)


def fisher_rao_geodesic(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> MeasurePath:
    """Constant-speed sphere geodesic between unit-mass measures.

    Takes the points of the Hellinger geodesic (the fiberwise Bures
    geodesics, without their velocities), normalizes each slice back to the
    sphere and reparametrizes with the exact cone-chord formula, so that
    ``d_FR(G_s, G_t) = |s - t| d_FR(G_0, G_1)``. Raises
    :class:`AntipodalError` within ``1e-6`` of the diameter ``pi``, where the
    underlying cone geodesic passes through the apex. ``meta["distance"]`` is
    ``d_FR(G_0, G_1)``.
    """
    ts = bures.check_times(ts)
    check_probability(g0, "first measure")
    check_probability(g1, "second measure")
    check_same_support(g0, g1)
    # d_H^2 from the polar residual of the SVD the chord needs anyway.
    r0, y1, d_sq = bures.polar_endpoints(g0.atoms, g1.atoms, g0.support.point_ids)
    dfr = float(fisher_rao_from_hellinger(4.0 * d_sq.sum()))
    if dfr >= np.pi - ANTIPODAL_TOL:
        raise AntipodalError(
            f"endpoints at distance {dfr!r} >= pi - 1e-6: sphere projection undefined"
        )
    meta = {"metric": "fisher_rao", "spherical": True, "distance": dfr}
    if dfr <= 1e-15:
        return MeasurePath(ts, tuple(g0 for _ in ts), None, meta)
    phi = dfr / 2.0
    chord_ts = np.array([_chord_parameter(float(th), phi) for th in ts])
    chord = bures.geodesic_factors(r0, y1, chord_ts)[0]
    masses = np.real(np.trace(chord, axis1=-2, axis2=-1)).sum(axis=-1)
    slices = [
        g0 if theta <= 0.0 else g1 if theta >= 1.0 else g0.with_atoms(atoms / m)
        for theta, atoms, m in zip(ts, chord, masses)
    ]
    return MeasurePath(ts, tuple(slices), None, meta)


def _index_distances(slices, lo, hi, metric: str) -> np.ndarray:
    """Metric distances between the slice pairs ``(lo[k], hi[k])`` from one checked
    square root of all slices and one batched polar SVD of the pairs, oriented as
    :func:`~frgeo.bures.polar_endpoints` orients them."""
    if metric not in ("hellinger", "fisher_rao"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "fisher_rao":
        for k, g in enumerate(slices):
            check_probability(g, f"path slice {k}")
    roots = psd_sqrt(np.stack([g.atoms for g in slices]), labels=slices[0].support.point_ids)
    res, _ = bures.polar_residual(roots[hi], roots[lo])
    # Summed per atom, then per slice: the order of the pairwise route, bit for bit.
    dh_sq = 4.0 * (np.abs(res) ** 2).sum(axis=(-2, -1)).sum(axis=-1)
    return np.sqrt(dh_sq) if metric == "hellinger" else fisher_rao_from_hellinger(dh_sq)


def constant_speed_reparametrize(path: MeasurePath, metric: str) -> MeasurePath:
    """Resample a path by arc length so consecutive distances equalize.

    New slices are placed by geodesic interpolation inside the segment that
    contains each arc-length target, which is exact when the input traverses
    a single geodesic (the intended use); one geodesic call per segment
    places all of its targets. Output times are uniform on the input's time
    interval. A two-slice path is returned unchanged.
    """
    n_seg = path.n_slices - 1
    if n_seg < 1:
        raise FRGeoError("need at least two slices to reparametrize")
    lengths = _index_distances(path.slices, np.arange(n_seg), np.arange(1, n_seg + 1), metric)
    total = float(lengths.sum())
    # The polar residual puts a segment length's round-off floor near 1e-16;
    # a path shorter than 1e-6 per segment is still treated as zero length.
    if total <= 1e-6 * len(lengths):
        raise ZeroLengthError(f"path has (numerically) zero length {total:.3e}")
    if n_seg == 1:
        return path
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    new_times = np.linspace(path.times[0], path.times[-1], path.n_slices)
    targets = total * np.arange(1, n_seg) / n_seg
    segments = np.clip(np.searchsorted(cumulative, targets, side="right") - 1, 0, n_seg - 1)
    seg_len = lengths[segments]
    thetas = np.where(seg_len <= 1e-15, 0.0, (targets - cumulative[segments]) / np.maximum(seg_len, 1e-15))
    geodesic = hellinger_geodesic_points if metric == "hellinger" else fisher_rao_geodesic
    new_slices = [path.slices[0]]
    for j in np.unique(segments):
        a, b, th = path.slices[j], path.slices[j + 1], thetas[segments == j]
        inner = th[(th > 0.0) & (th < 1.0)]
        points = iter(geodesic(a, b, inner).slices if inner.size else ())
        new_slices.extend(a if t <= 0.0 else b if t >= 1.0 else next(points) for t in th)
    new_slices.append(path.slices[-1])
    meta = dict(path.meta)
    meta["reparametrized"] = metric
    return MeasurePath(new_times, tuple(new_slices), None, meta)


def metric_speed(path: MeasurePath, metric: str) -> np.ndarray:
    """Finite-difference metric speeds, one per slice.

    Central differences at interior nodes (second-order on smooth paths),
    one-sided at the endpoints. One ``eigh`` of the slice stack gives the
    roots, and one batched SVD gives the polar residuals of all pairs.
    """
    m = path.n_slices
    if m < 2:
        raise FRGeoError("need at least two slices for a speed")
    # Pairs (0, 1), (k - 1, k + 1) for interior k, and (m - 2, m - 1).
    lo = np.concatenate([[0], np.arange(m - 2), [m - 2]])
    hi = np.concatenate([[1], np.arange(2, m), [m - 1]])
    dist = _index_distances(path.slices, lo, hi, metric)
    return dist / (path.times[hi] - path.times[lo])


def velocity_speed(path: MeasurePath) -> np.ndarray | None:
    """Kinetic speeds ``sqrt(sum_i G_i U_i : U_i)`` where velocities are
    attached; None when the path carries no velocities."""
    if path.velocities is None:
        return None
    return np.array([
        np.nan if u is None else np.sqrt(max(float(np.real(np.vdot(u, g.atoms @ u))), 0.0))
        for g, u in zip(path.slices, path.velocities)
    ])


def tv_comparison_check(g0: MatrixMeasure, g1: MatrixMeasure) -> tuple[float, float, float]:
    """The two-sided comparison chain between the Hellinger and TV distances:
    ``(d_H^2 / (4 sqrt(d)), ||G1 - G0||_TV, sqrt(m0 + m1) * d_H)``."""
    check_same_support(g0, g1)
    dh_sq = hellinger_distance_sq(g0, g1)
    lower = dh_sq / (4.0 * np.sqrt(g0.dim))
    mid = tv_distance(g0, g1)
    upper = float(np.sqrt(mass(g0) + mass(g1)) * np.sqrt(dh_sq))
    return lower, mid, upper


def path_masses(path: MeasurePath) -> np.ndarray:
    return np.array([mass(g) for g in path.slices])


def mass_interpolation_values(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> np.ndarray:
    """Exact masses of the Hellinger geodesic:
    ``m_t = t m1 + (1 - t) m0 - t (1 - t) d_H^2 / 4``."""
    m0, m1 = mass(g0), mass(g1)
    dh_sq = hellinger_distance_sq(g0, g1)
    ts = np.asarray(ts, dtype=float)
    return ts * m1 + (1.0 - ts) * m0 - ts * (1.0 - ts) * dh_sq / 4.0
