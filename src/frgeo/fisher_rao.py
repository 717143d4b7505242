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
round-off) for every pair: the cone angle is ``d_FR / 2 <= pi / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bures
from .exceptions import FRGeoError
from .hpsd import check_hermitian, hermitian_part, psd_sqrt
from .measures import MatrixMeasure, Support, check_probability, check_same_support, mass, tv_distance


@dataclass(frozen=True)
class MeasurePath:
    """Time-indexed measures on one support, held as one atom stack
    ``(len(times), n, d, d)`` that is checked and hermitized once, as
    :class:`MatrixMeasure` checks one measure; each access to ``slices``
    builds one measure per time. ``meta`` records construction details
    (metric, sphere flag, endpoint distance, ...). A path carries no
    velocities: where a slice is definite, its velocity solves
    ``(G u + u G) / 2 = dG/dt`` per atom (:func:`~frgeo.hpsd.solve_sylvester_velocity`).
    """

    times: np.ndarray
    support: Support
    atoms: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        atoms = np.asarray(self.atoms, dtype=complex)
        if times.ndim != 1 or atoms.ndim != 4 or atoms.shape[:3] != (len(times), self.support.n, atoms.shape[3]):
            raise FRGeoError(f"atoms must have shape ({times.size}, {self.support.n}, d, d), got {atoms.shape}")
        bures.check_times(times)
        check_hermitian(atoms, labels=self.support.point_ids)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "atoms", hermitian_part(atoms))

    @property
    def n_slices(self) -> int:
        return len(self.atoms)

    @property
    def dim(self) -> int:
        return int(self.atoms.shape[-1])

    @property
    def slices(self) -> tuple[MatrixMeasure, ...]:
        return tuple(MatrixMeasure(self.support, atoms) for atoms in self.atoms)


def hellinger_distance_sq(g0: MatrixMeasure, g1: MatrixMeasure) -> float:
    """Four times the fiberwise sum of squared Bures distances."""
    check_same_support(g0, g1)
    return 4.0 * float(bures.bures_distance_sq(g0.atoms, g1.atoms, g0.support.point_ids).sum())


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


def hellinger_geodesic(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> MeasurePath:
    """Fiberwise Bures geodesic through every atom, at constant Hellinger
    speed: one polar step (:func:`~frgeo.bures.polar_endpoints`) and the
    points of :func:`~frgeo.bures.geodesic_factors`. ``meta["distance"]`` is
    ``d_H(G_0, G_1)``, from the polar residual of that step. A fiber equal at
    both ends stays exactly at its atom, so identical endpoints give exactly
    0 and the constant path. A definite slice's velocity is that of
    :func:`~frgeo.bures.bures_geodesic` (:func:`~frgeo.hpsd.solve_sylvester_velocity`)."""
    ts = bures.check_times(ts)
    check_same_support(g0, g1)
    r0, y1, d_sq = bures.polar_endpoints(g0.atoms, g1.atoms, g0.support.point_ids)
    meta = {"metric": "hellinger", "distance": float(np.sqrt(4.0 * d_sq.sum()))}
    return MeasurePath(ts, g0.support, bures.geodesic_factors(g0.atoms, r0, y1, ts)[0], meta)


def fisher_rao_geodesic(g0: MatrixMeasure, g1: MatrixMeasure, ts) -> MeasurePath:
    """Constant-speed sphere geodesic between unit-mass measures.

    Takes the points of the Hellinger geodesic (the fiberwise Bures
    geodesics), normalizes each slice back to the sphere and reparametrizes
    time ``t`` to the exact cone-chord parameter
    ``sin(t phi) / (sin(t phi) + sin(phi - t phi))``, ``phi = d_FR / 2``, so
    that ``d_FR(G_s, G_t) = |s - t| d_FR(G_0, G_1)``, for every pair: the
    cone angle ``phi <= pi / 2`` keeps the chord's mass at least 1/2. At
    ``d_FR = pi`` with ``d >= 2`` the geodesic need not be unique, as every
    unitary is a polar factor of ``M = 0``.
    ``meta["distance"]`` is ``d_FR(G_0, G_1)``; the path is constant only where
    it is exactly 0, and times 0 and 1 give ``G_0`` and ``G_1`` bit for bit.
    """
    ts = bures.check_times(ts)
    check_probability(g0, "first measure")
    check_probability(g1, "second measure")
    check_same_support(g0, g1)
    # d_H^2 from the polar residual the chord needs anyway.
    r0, y1, d_sq = bures.polar_endpoints(g0.atoms, g1.atoms, g0.support.point_ids)
    dfr = float(fisher_rao_from_hellinger(4.0 * d_sq.sum()))
    meta = {"metric": "fisher_rao", "spherical": True, "distance": dfr}
    if dfr == 0.0:
        atoms = np.repeat(g0.atoms[None], len(ts), axis=0)
    else:
        phi = dfr / 2.0
        chord_ts = np.sin(ts * phi) / (np.sin(ts * phi) + np.sin(phi - ts * phi))
        chord = bures.geodesic_factors(g0.atoms, r0, y1, chord_ts)[0]
        atoms = chord / mass(chord)[:, None, None, None]
    atoms[ts <= 0.0], atoms[ts >= 1.0] = g0.atoms, g1.atoms
    return MeasurePath(ts, g0.support, atoms, meta)


def metric_speed(path: MeasurePath, metric: str) -> np.ndarray:
    """Finite-difference metric speeds, one per slice.

    Central differences at interior nodes (second-order on smooth paths),
    one-sided at the endpoints. One ``eigh`` of the slice stack gives the
    roots, and one batched polar step of the pairs
    (:func:`~frgeo.bures.polar_from_roots`, oriented as the pairwise route)
    gives their residuals.
    """
    if metric not in ("hellinger", "fisher_rao"):
        raise ValueError(f"unknown metric {metric!r}")
    m = path.n_slices
    if m < 2:
        raise FRGeoError("need at least two slices for a speed")
    if metric == "fisher_rao":
        check_probability(path, "path slice")
    # Pairs (0, 1), (k - 1, k + 1) for interior k, and (m - 2, m - 1).
    lo = np.concatenate([[0], np.arange(m - 2), [m - 2]])
    hi = np.concatenate([[1], np.arange(2, m), [m - 1]])
    roots = psd_sqrt(path.atoms, labels=path.support.point_ids)
    # Summed per atom, then per slice: the order of the pairwise route, bit for bit.
    dh_sq = 4.0 * bures.polar_from_roots(path.atoms[lo], path.atoms[hi], roots[lo], roots[hi])[1].sum(axis=-1)
    dist = np.sqrt(dh_sq) if metric == "hellinger" else fisher_rao_from_hellinger(dh_sq)
    return dist / (path.times[hi] - path.times[lo])


def tv_comparison_check(g0: MatrixMeasure, g1: MatrixMeasure) -> tuple[float, float, float]:
    """The two-sided comparison chain between the Hellinger and TV distances:
    ``(d_H^2 / (4 sqrt(d)), ||G1 - G0||_TV, sqrt(m0 + m1) * d_H)``."""
    dh_sq = hellinger_distance_sq(g0, g1)
    lower = dh_sq / (4.0 * np.sqrt(g0.dim))
    mid = tv_distance(g0, g1)
    upper = float(np.sqrt(mass(g0) + mass(g1)) * np.sqrt(dh_sq))
    return lower, mid, upper
