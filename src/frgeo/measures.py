"""Discrete matrix-valued measures on a finite support.

A :class:`MatrixMeasure` assigns one Hermitian ``d x d`` atom to each support
point. PSD-ness and unit total trace ("probability" membership) are checked
properties rather than separate types: signed measures (differences,
gradients) reuse the same container.

All measures taking part in one computation share a single
:class:`Support`; there is no support merging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    FRGeoError,
    NotProbabilityError,
    SupportMismatchError,
    ZeroMassError,
)
from .hpsd import check_hermitian, hermitian_part

SPHERE_MASS_TOL = 1e-8
ZERO_TRACE_FLOOR = 1e-14


@dataclass(frozen=True)
class Support:
    """Finite collection of distinct point labels."""

    point_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "point_ids", tuple(str(p) for p in self.point_ids))
        if len(self.point_ids) == 0:
            raise FRGeoError("support must contain at least one point")
        if len(set(self.point_ids)) != len(self.point_ids):
            raise FRGeoError("support labels must be unique")

    @property
    def n(self) -> int:
        return len(self.point_ids)


def make_support(n: int) -> Support:
    """Support with labels ``p1 .. pn``."""
    return Support(tuple(f"p{i + 1}" for i in range(n)))


@dataclass(frozen=True)
class MatrixMeasure:
    """Finitely supported measure with Hermitian matrix atoms.

    ``atoms`` has shape ``(n, d, d)``; a zero atom is allowed. Atoms are
    hermitized on construction, after the symmetry check of
    :func:`~frgeo.hpsd.check_hermitian` (tolerance 1e-9), whose
    :class:`NotHermitianError` names the atom's point and the entry, so that
    downstream spectral calls never see asymmetric round-off.
    """

    support: Support
    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=complex)
        if atoms.ndim != 3 or atoms.shape[1] != atoms.shape[2]:
            raise FRGeoError(f"atoms must have shape (n, d, d), got {atoms.shape}")
        if atoms.shape[0] != self.support.n:
            raise SupportMismatchError(
                f"{atoms.shape[0]} atoms for {self.support.n} support points"
            )
        check_hermitian(atoms, labels=self.support.point_ids)
        object.__setattr__(self, "atoms", hermitian_part(atoms))

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def dim(self) -> int:
        return int(self.atoms.shape[1])

    def with_atoms(self, atoms: np.ndarray) -> "MatrixMeasure":
        return MatrixMeasure(self.support, atoms)


@dataclass(frozen=True)
class ReferenceMeasure:
    """Scalar nonnegative weights, normalized so that ``d * sum(weights) = 1``
    (the trace of the weighted identity measure is a probability measure)."""

    support: Support
    dim: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.support.n,):
            raise FRGeoError(f"weights must have shape ({self.support.n},), got {w.shape}")
        if not np.isfinite(w).all():
            raise FRGeoError(f"reference weights must be finite, got non-finite weights {w[~np.isfinite(w)].tolist()}")
        if np.any(w < 0.0):
            raise FRGeoError("reference weights must be nonnegative")
        total = self.dim * float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise FRGeoError(
                f"reference not normalized: dim * sum(weights) = {total!r}, expected 1"
            )
        object.__setattr__(self, "weights", w)


def uniform_reference(support: Support, dim: int) -> ReferenceMeasure:
    """Uniform reference: every weight equals ``1 / (n * d)``."""
    n = support.n
    return ReferenceMeasure(support, dim, np.full(n, 1.0 / (n * dim)))


def reference_identity(lam: ReferenceMeasure) -> MatrixMeasure:
    """The measure with atoms ``weights[i] * I`` (total mass one)."""
    eye = np.eye(lam.dim, dtype=complex)
    return MatrixMeasure(lam.support, lam.weights[:, None, None] * eye)


def check_same_support(a: MatrixMeasure, b: MatrixMeasure) -> None:
    if a.support.point_ids != b.support.point_ids:
        raise SupportMismatchError("measures live on different supports")
    if a.dim != b.dim:
        raise SupportMismatchError(f"measures have different dims {a.dim} and {b.dim}")


def check_reference_support(g: MatrixMeasure, lam: ReferenceMeasure) -> None:
    if g.support.point_ids != lam.support.point_ids:
        raise SupportMismatchError("measure and reference live on different supports")
    if g.dim != lam.dim:
        raise SupportMismatchError(f"measure dim {g.dim} != reference dim {lam.dim}")


def tv_distance(a, b):
    """TV norm of the atomwise difference (which need not be PSD); of two
    paths, one value per slice."""
    check_same_support(a, b)
    tv = np.linalg.norm(a.atoms - b.atoms, axis=(-2, -1)).sum(axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def mass(g):
    """Total trace mass ``sum_i tr G_i`` of a measure or an atom stack
    ``(n, d, d)``; of a path or a ``(T, n, d, d)`` stack, one value per slice."""
    m = np.real(np.trace(getattr(g, "atoms", g), axis1=-2, axis2=-1)).sum(axis=-1)
    return float(m) if m.ndim == 0 else m


def check_probability(g, label: str) -> None:
    """Require membership in the unit-trace-mass sphere,
    ``|mass - 1| <= SPHERE_MASS_TOL``, else raise :class:`NotProbabilityError`
    naming the measure by ``label``. ``g`` may also be a path, whose slices
    are named by ``label`` and their index."""
    for k, m in np.ndenumerate(mass(g)):
        if abs(m - 1.0) > SPHERE_MASS_TOL:
            name = " ".join([label, *map(str, k)])
            raise NotProbabilityError(f"{name} has mass {float(m)!r}, expected 1 within {SPHERE_MASS_TOL:.0e}")


def lebesgue_split(g: MatrixMeasure, lam: ReferenceMeasure) -> tuple[MatrixMeasure, MatrixMeasure]:
    """Split into the part carried by the reference's ``weights > 0`` and the
    rest.

    The two parts sum back to ``g`` atomwise; on a finite support this is the
    whole content of the Lebesgue decomposition against the reference.
    """
    check_reference_support(g, lam)
    pos = lam.weights > 0.0
    ac = np.where(pos[:, None, None], g.atoms, 0.0)
    sing = np.where(pos[:, None, None], 0.0, g.atoms)
    return g.with_atoms(ac), g.with_atoms(sing)


def normalize_to_sphere(g: MatrixMeasure) -> tuple[MatrixMeasure, float]:
    """Sphere representative ``(G / m, sqrt(m))`` of a nonzero measure."""
    m = mass(g)
    if m <= ZERO_TRACE_FLOOR:
        raise ZeroMassError(f"measure has mass {m:.3e}; the cone apex has no sphere representative")
    return g.with_atoms(g.atoms / m), float(np.sqrt(m))


def scale_measure(g: MatrixMeasure, factor: float) -> MatrixMeasure:
    return g.with_atoms(g.atoms * factor)
