"""Seeded random generators for tests and the built-in selftest."""

from __future__ import annotations

import numpy as np

from .measures import MatrixMeasure, ReferenceMeasure, Support, make_support, mass, uniform_reference
from .hpsd import hermitian_part


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    return scale * hermitian_part(random_complex(rng, (d, d)))


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix ``X X*`` with optional rank deficiency."""
    r = d if rank is None else rank
    x = random_complex(rng, (d, r)) / np.sqrt(d)
    return scale * hermitian_part(x @ np.conj(x.T))


def random_spd(rng: np.random.Generator, d: int, jitter: float = 0.3, scale: float = 1.0) -> np.ndarray:
    return random_psd(rng, d, scale=scale) + jitter * scale * np.eye(d)


def random_real_spd(rng: np.random.Generator, d: int, jitter: float = 0.3) -> np.ndarray:
    x = rng.standard_normal((d, d)) / np.sqrt(d)
    return x @ x.T + jitter * np.eye(d)


def random_density(rng: np.random.Generator, d: int, definite: bool = True) -> np.ndarray:
    """Random unit-trace PSD matrix."""
    a = random_spd(rng, d) if definite else random_psd(rng, d)
    return a / np.real(np.trace(a))


def random_measure(
    rng: np.random.Generator,
    n: int,
    d: int,
    definite: bool = False,
    support: Support | None = None,
) -> MatrixMeasure:
    """Random PSD measure on ``n`` points (no mass normalization)."""
    support = support or make_support(n)
    gen = random_spd if definite else random_psd
    atoms = np.stack([gen(rng, d) for _ in range(n)])
    return MatrixMeasure(support, atoms)


def random_probability_measure(
    rng: np.random.Generator,
    n: int,
    d: int,
    definite: bool = False,
    support: Support | None = None,
) -> MatrixMeasure:
    """Random element of the unit-trace-mass sphere."""
    g = random_measure(rng, n, d, definite=definite, support=support)
    return g.with_atoms(g.atoms / mass(g))


def random_finite_entropy_measure(
    rng: np.random.Generator,
    n: int,
    d: int,
    blend: float = 0.5,
    support: Support | None = None,
    lam: ReferenceMeasure | None = None,
) -> MatrixMeasure:
    """Sphere measure with well-conditioned densities: a convex blend of the
    weighted identity with a random sphere measure. Smaller ``blend`` means
    smaller entropy."""
    support = support or make_support(n)
    lam = lam or uniform_reference(support, d)
    rand = random_probability_measure(rng, n, d, definite=True, support=support)
    eye = np.eye(d, dtype=complex)
    atoms = (1.0 - blend) * lam.weights[:, None, None] * eye + blend * rand.atoms
    return MatrixMeasure(support, atoms)
