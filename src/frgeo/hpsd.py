"""Dense Hermitian matrix algebra: decompositions, matrix functions, PSD
projections and the complex-to-real embedding.

Every matrix function here runs through a single eigendecomposition backend
(`numpy.linalg.eigh`) so that the tolerance policy lives in one place:

* a matrix is Hermitian when no entry deviates from its mirror by more than
  ``1e-9``,
* eigenvalues in ``[-1e-10, 0)`` are clamped to zero when validating PSD-ness,
* one rank rule, :func:`zero_floor`, for every rank and singularity decision:
  eigenvalues at most ``1e-12 * lambda_max`` of their own matrix are zero, and
  a matrix is :func:`singular` when its smallest floored eigenvalue is zero.

Every matrix function takes one ``(d, d)`` matrix or a ``(..., d, d)`` stack
and decomposes each matrix once per call. ``labels`` (one per matrix along the
last stack axis, such as a support's point ids) name the offending matrix in
an error.

All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
)

HERMITIAN_ATOL = 1e-9
PSD_CLAMP_FLOOR = -1e-10
RANK_RTOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a*) / 2`` (batched over leading axes)."""
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def check_hermitian(a: np.ndarray, labels=None) -> None:
    """Raise :class:`NotHermitianError` when an entry deviates from its mirror
    by more than ``HERMITIAN_ATOL``, naming the worst offending entry, and
    the matrix holding it by its label when ``labels`` is given. A non-finite
    entry fails too, named as such: its deviation is NaN or infinite."""
    dev = np.abs(a - np.conj(np.swapaxes(a, -1, -2)))
    worst = float(dev.max()) if dev.size else 0.0
    if worst <= HERMITIAN_ATOL:
        return
    bad = ~np.isfinite(a)
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad if bad.any() else dev)), dev.shape))
    label = "matrix"
    if labels is not None and len(idx) > 2:
        label, idx = f"atom at point '{labels[idx[-3]]}'", idx[-2:]
    if bad.any():
        raise NotHermitianError(f"{label} has a non-finite entry at {idx}")
    raise NotHermitianError(
        f"{label} is not Hermitian: entry {idx} deviates by {worst:.3e} (tolerance {HERMITIAN_ATOL:.1e})"
    )


def from_spectrum(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``v diag(values) v*`` for each matrix of a stack."""
    return (v * values[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _check_nonsingular(w: np.ndarray, what: str, labels=None) -> None:
    """Raise :class:`SingularMatrixError` naming the first singular matrix of ascending eigenvalues ``w``."""
    bad = singular(w)
    if bad.any():
        lo, hi = w[bad][0, [0, -1]]
        if labels is not None and bad.ndim:
            what = f"atom at point '{labels[int(np.argmax(bad)) % len(labels)]}'"
        raise SingularMatrixError(f"{what} is singular: eigenvalue {lo:.3e} at or below {RANK_RTOL:.0e} * lambda_max {hi:.3e}")


def psd_spectrum(a: np.ndarray, labels=None):
    """One checked decomposition of a PSD matrix or stack: ``(clamped,
    eigenvalues, eigenvectors)``, with eigenvalues in ``[PSD_CLAMP_FLOOR, 0)``
    clamped to zero in both. :class:`NotPSDError` names the matrix lowest
    below the floor, or the first with a non-finite eigenvalue (from a
    non-finite entry)."""
    w, v = np.linalg.eigh(a)
    lam_min = w.min(axis=-1) if w.size else np.zeros(w.shape[:-1])
    worst = float(lam_min.min()) if lam_min.size else 0.0
    if not worst >= PSD_CLAMP_FLOOR:
        where = "matrix"
        if labels is not None and lam_min.ndim:
            where = f"atom at point '{labels[int(np.argmin(lam_min)) % len(labels)]}'"
        low = f"minimum eigenvalue {worst:.3e} below PSD floor {PSD_CLAMP_FLOOR:.1e}"
        raise NotPSDError(f"{where} has {low if np.isfinite(worst) else 'a non-finite eigenvalue'}")
    negative = lam_min < 0.0
    clipped = np.clip(w, 0.0, None)
    if negative.any():
        a = np.where(negative[..., None, None], hermitian_part(from_spectrum(v, clipped)), a)
    return a, clipped, v


def zero_floor(w: np.ndarray) -> np.ndarray:
    """The rank rule: eigenvalues at most ``RANK_RTOL * lambda_max`` of their
    own matrix, negatives included, become exact zero.

    The cut is relative because rank deficiency does not depend on scale. The
    square root has infinite slope at zero, so eigenvalues at the round-off
    noise level (|w| ~ eps * lam_max) would otherwise contribute
    sqrt(noise) ~ 1e-8 errors.
    """
    w = np.maximum(w, 0.0)
    return np.where(w <= RANK_RTOL * w.max(axis=-1, keepdims=True), 0.0, w)


def singular(w: np.ndarray) -> np.ndarray:
    """The rank rule's "is it singular?" for ascending eigenvalues ``w``: the smallest is zero under :func:`zero_floor`."""
    return zero_floor(w)[..., 0] == 0.0


def psd_sqrt(a: np.ndarray, labels=None) -> np.ndarray:
    """Principal square root of a PSD matrix or stack via its eigendecomposition."""
    _, w, v = psd_spectrum(a, labels=labels)
    return hermitian_part(from_spectrum(v, np.sqrt(zero_floor(w))))


def logdet(a: np.ndarray) -> float:
    """Sum of log eigenvalues of a positive-definite matrix.

    Raises :class:`SingularMatrixError` when ``a`` is :func:`singular`, so
    callers can map singularity to an infinite entropy.
    """
    w = np.linalg.eigvalsh(a)
    _check_nonsingular(w, "matrix")
    return float(np.sum(np.log(w)))


def spd_inverse(a: np.ndarray, labels=None) -> np.ndarray:
    """Inverse of a matrix or stack that is not :func:`singular`, else
    :class:`SingularMatrixError` naming the first singular matrix."""
    w, v = np.linalg.eigh(a)
    _check_nonsingular(w, "matrix", labels)
    return hermitian_part(from_spectrum(v, 1.0 / w))


def real_embedding(a: np.ndarray) -> np.ndarray:
    """Real-symmetric 2d x 2d image of a complex Hermitian d x d matrix.

    Each complex entry ``x + iy`` becomes the 2x2 block ``[[x, -y], [y, x]]``.
    The image is PSD exactly when the input is, and traces double.
    """
    d = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * d, 2 * d), dtype=float)
    re, im = np.real(a), np.imag(a)
    out[..., 0::2, 0::2] = re
    out[..., 1::2, 1::2] = re
    out[..., 0::2, 1::2] = -im
    out[..., 1::2, 0::2] = im
    return out


def solve_sylvester_velocity(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Solve ``(g u + u g) / 2 = xi`` for Hermitian ``u`` with ``g`` definite
    (per matrix of a stack).

    In the eigenbasis of ``g`` the solution is entrywise
    ``u_jk = 2 xi_jk / (w_j + w_k)``. Raises :class:`SingularMatrixError`
    when ``g`` is :func:`singular` (the velocity is not unique on the kernel).
    """
    if g.shape != xi.shape or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatchError(f"incompatible shapes {g.shape} and {xi.shape}")
    return solve_sylvester_eigh(*np.linalg.eigh(g), xi)


def solve_sylvester_eigh(w: np.ndarray, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """:func:`solve_sylvester_velocity` on base points given by their
    eigendecomposition ``(w, v)``."""
    _check_nonsingular(w, "base point")
    vh = np.conj(np.swapaxes(v, -1, -2))
    u_hat = 2.0 * (vh @ xi @ v) / (w[..., :, None] + w[..., None, :])
    return hermitian_part(v @ u_hat @ vh)


def sym_product(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symmetrized product ``(x u + u x) / 2`` (batched over leading axes)."""
    xu = x @ u
    return (xu + np.conj(np.swapaxes(xu, -1, -2))) / 2.0
