"""The canonical entropy, its heat-flow semigroup, the Fisher information,
and the sphere tangent norm / gradient.

The entropy is the reference-weighted negative log-determinant of the
density (an Itakura-Saito-type divergence), minimized at the weighted
identity measure. Its gradient flow on the unit-mass sphere is affine and
solvable in closed form; the Fisher information is the entropy production
along that flow and doubles as the squared tangent norm of the entropy
gradient.

Singular densities give an infinite entropy / Fisher information; infinity
is returned as ``math.inf``, never raised, so optimizers can compare
candidates during line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hpsd import singular, spd_inverse, sym_product
from .measures import (
    MatrixMeasure,
    ReferenceMeasure,
    check_probability,
    check_reference_support,
    mass,
    reference_identity,
    tv_distance,
)


@dataclass(frozen=True)
class TangentVector:
    """Sphere tangent vector at ``base``, represented by a per-atom Hermitian
    potential ``U`` (the realized vector is ``(G U)^Sym - G * (sum_j G_j : U_j)``)."""

    base: MatrixMeasure
    potential: np.ndarray

    def __post_init__(self):
        potential = np.asarray(self.potential, dtype=complex)
        if potential.shape != self.base.atoms.shape:
            raise ValueError(
                f"potential shape {potential.shape} does not match atoms {self.base.atoms.shape}"
            )
        object.__setattr__(self, "potential", potential)


def entropy_terms(eigs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fiber_entropies` ``(..., n)`` and :func:`fisher_information`
    ``(...)`` of measures given by their atom eigenvalues ``(..., n, d)``."""
    pos = weights > 0.0
    dens = eigs[..., pos, :] / weights[pos][:, None]
    flat = singular(dens)
    dens = np.where(flat[..., None], 1.0, dens)
    fibers = np.zeros(eigs.shape[:-1])
    fibers[..., pos] = np.where(flat, math.inf, -np.log(dens).sum(axis=-1))
    fisher = (weights[pos] * ((1.0 / dens).sum(axis=-1) - eigs.shape[-1])).sum(axis=-1)
    return fibers, np.where(flat.any(axis=-1), math.inf, fisher)


def fiber_entropies(g: MatrixMeasure, lam: ReferenceMeasure) -> np.ndarray:
    """Per-atom ``-log det(G_i / w_i)`` where ``w_i > 0`` (``inf`` on singular
    densities), and ``0`` on the weightless atoms, which the entropy ignores."""
    check_reference_support(g, lam)
    return entropy_terms(np.linalg.eigvalsh(g.atoms), lam.weights)[0]


def entropy(g: MatrixMeasure, lam: ReferenceMeasure) -> float:
    """Canonical entropy ``sum_i w_i * (-log det(G_i / w_i))`` over the
    positive-weight atoms; ``inf`` when any such density is singular."""
    return float(np.dot(lam.weights, fiber_entropies(g, lam)))


def fisher_information(g: MatrixMeasure, lam: ReferenceMeasure) -> float:
    """Entropy production ``sum_i w_i tr[(G_i / w_i)^{-1} - I]`` over the
    positive-weight atoms; ``inf`` on singular densities."""
    check_reference_support(g, lam)
    return float(entropy_terms(np.linalg.eigvalsh(g.atoms), lam.weights)[1])


def heat_flow(g: MatrixMeasure, lam: ReferenceMeasure, t: float) -> MatrixMeasure:
    """Heat-flow semigroup ``S_t(G) = L + e^{-t} (G - L)`` where ``L`` is the
    weighted identity measure. Fixed point at ``L``; weightless atoms decay
    by the factor ``e^{-t}``."""
    check_reference_support(g, lam)
    if not t >= 0.0:
        raise ValueError(f"flow time must be nonnegative, got {t}")
    return g.with_atoms(flow_atoms(g.atoms, lam, math.exp(-t)))


def flow_atoms(atoms: np.ndarray, lam: ReferenceMeasure, decay) -> np.ndarray:
    """:func:`heat_flow`'s ``L + decay (G - L)`` on an atom stack, ``decay`` broadcast against it."""
    target = reference_identity(lam).atoms
    return target + decay * (atoms - target)


def entropy_decay_check(
    g: MatrixMeasure, lam: ReferenceMeasure, s: float, t: float
) -> tuple[float, float]:
    """``(E(S_t G), e^{-(t - s)} E(S_s G))``; the flow decays the entropy at
    unit exponential rate, so the first never exceeds the second."""
    if not 0.0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    lhs = entropy(heat_flow(g, lam, t), lam)
    rhs = math.exp(-(t - s)) * entropy(heat_flow(g, lam, s), lam)
    return lhs, rhs


def fr_gradient_entropy(g: MatrixMeasure, lam: ReferenceMeasure) -> MatrixMeasure:
    """Sphere gradient of the entropy: the signed measure with atoms
    ``G_i - w_i I`` (total trace zero)."""
    check_reference_support(g, lam)
    check_probability(g, "measure")
    return g.with_atoms(g.atoms - reference_identity(lam).atoms)


def tangent_realization(v: TangentVector) -> np.ndarray:
    """Realized tangent atoms ``(G_i U_i)^Sym - G_i * (sum_j G_j : U_j)``."""
    atoms = v.base.atoms
    mean = float(np.real(np.vdot(atoms, v.potential)))
    return sym_product(atoms, v.potential) - atoms * mean


def tangent_norm_sq(v: TangentVector) -> float:
    """Squared sphere tangent norm
    ``sum_i G_i U_i : U_i - (sum_i G_i : U_i)^2`` (nonnegative at unit mass)."""
    check_probability(v.base, "tangent base")
    atoms = v.base.atoms
    energy = float(np.real(np.vdot(v.potential, atoms @ v.potential)))
    mean = float(np.real(np.vdot(atoms, v.potential)))
    return max(energy - mean * mean, 0.0)


def entropy_gradient_potential(g: MatrixMeasure, lam: ReferenceMeasure) -> TangentVector:
    """The entropy gradient as a tangent potential: ``U_i = (G_i / w_i)^{-1}``
    on positive-weight atoms, whose densities must not be singular
    (:func:`~frgeo.hpsd.spd_inverse` names the first that is).

    Its squared tangent norm equals the Fisher information.
    """
    check_reference_support(g, lam)
    pos = lam.weights > 0.0
    potential = np.zeros_like(g.atoms)
    labels = np.asarray(g.support.point_ids)[pos]
    potential[pos] = spd_inverse(g.atoms[pos] / lam.weights[pos][:, None, None], labels=labels)
    return TangentVector(g, potential)


def von_neumann_entropy(g: MatrixMeasure, lam: ReferenceMeasure) -> float:
    """Diagnostic only: ``sum_i w_i tr(rho_i log rho_i)`` for the densities
    ``rho_i = G_i / w_i``, with ``0 log 0 = 0``. Carries no convexity
    guarantees along the sphere geodesics (unlike the canonical entropy)."""
    check_reference_support(g, lam)
    pos = lam.weights > 0.0
    dens = np.clip(np.linalg.eigvalsh(g.atoms[pos]) / lam.weights[pos][:, None], 0.0, None)
    xlogx = np.where(dens > 0.0, dens * np.log(np.where(dens > 0.0, dens, 1.0)), 0.0)
    return float(np.dot(lam.weights[pos], xlogx.sum(axis=-1)))


def slice_entropies(eigs: np.ndarray, lam: ReferenceMeasure) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entropy` and :func:`fisher_information` of each slice of an atom
    stack ``(T, n, d, d)`` on the support of ``lam`` (a path's ``atoms``),
    given by the atom eigenvalues ``(T, n, d)`` of one call over the stack."""
    fibers, fishers = entropy_terms(eigs, lam.weights)
    return np.array([np.dot(lam.weights, f) for f in fibers]), fishers


def flow_table(g: MatrixMeasure, lam: ReferenceMeasure, ts) -> list[tuple[float, float, float, float, float]]:
    """Rows ``(t, entropy, fisher, mass, tv_to_equilibrium)`` along the flow,
    in closed form from one eigenvalue call on ``G``: the flow moves each atom
    along ``w_i I``, so ``S_t G`` has the eigenvalues ``w_i + e^{-t} (lambda - w_i)``,
    the mass ``m_L + e^{-t} (m_0 - m_L)`` and the TV distance ``e^{-t} TV(G, L)``."""
    check_reference_support(g, lam)
    ts = np.asarray(ts, dtype=float)
    bad = ~(ts >= 0.0)
    if bad.any():
        raise ValueError(f"flow time must be nonnegative, got {ts[bad][0]}")
    target, decay, w = reference_identity(lam), np.exp(-ts), lam.weights[:, None]
    fibers, fishers = entropy_terms(w + decay[:, None, None] * (np.linalg.eigvalsh(g.atoms) - w), lam.weights)
    m_l, m_0, tv_0 = mass(target), mass(g), tv_distance(g, target)
    return [
        (float(t), float(np.dot(lam.weights, f)), float(fi), float(m_l + e * (m_0 - m_l)), float(e * tv_0))
        for t, e, f, fi in zip(ts, decay, fibers, fishers)
    ]
