import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def mixed_mode_pair():
    """Two measures on three points whose fibers cover the start cases of the
    Bures geodesic: a zero start, a rank-1 start with a rank-2 end (singular
    at every t, so no velocity anywhere) and a definite pair."""
    from frgeo.measures import MatrixMeasure, make_support
    from frgeo.testing import random_psd, random_spd

    gen = np.random.default_rng(7)
    sup = make_support(3)
    g0 = MatrixMeasure(sup, np.stack([np.zeros((3, 3)), random_psd(gen, 3, rank=1), random_spd(gen, 3)]))
    g1 = MatrixMeasure(sup, np.stack([random_spd(gen, 3), random_psd(gen, 3, rank=2), random_spd(gen, 3)]))
    return g0, g1


def _psd_root(a):
    """Principal square root with eigenvalues below ``1e-12 lambda_max``
    taken as zero, as frgeo's tolerance policy counts them."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    w = np.where(w > 1e-12 * w[-1], w, 0.0)
    return (v * np.sqrt(w)) @ np.conj(v.T)


def bures_sq_formula(a0, a1):
    """``tr a0 + tr a1 - 2 ||a0^{1/2} a1^{1/2}||_*``: the squared Bures
    distance through the nuclear norm, independent of frgeo's eigenvalue
    route through ``a0^{1/2} a1 a0^{1/2}``."""
    fidelity = np.linalg.svd(_psd_root(a0) @ _psd_root(a1), compute_uv=False).sum()
    return max(float(np.real(np.trace(a0) + np.trace(a1))) - 2.0 * fidelity, 0.0)


def mass_interpolation_values(g0, g1, ts):
    """Exact masses of the Hellinger geodesic:
    ``m_t = t m1 + (1 - t) m0 - t (1 - t) d_H^2 / 4``."""
    from frgeo.fisher_rao import hellinger_distance_sq
    from frgeo.measures import mass

    m0, m1 = mass(g0), mass(g1)
    dh_sq = hellinger_distance_sq(g0, g1)
    ts = np.asarray(ts, dtype=float)
    return ts * m1 + (1.0 - ts) * m0 - ts * (1.0 - ts) * dh_sq / 4.0


def _is_definite(a):
    w = np.linalg.eigvalsh(a)
    return w[0] > 1e-12 * w[-1]


def _map_path(a0, a1, ts):
    """``M_t a0 M_t`` and its time derivative for definite ``a0``, with
    ``M_t = (1 - t) I + t T`` and ``T`` the PSD solution of ``T a0 T = a1``."""
    eye = np.eye(a0.shape[0])
    root = _psd_root(a0)
    inv_root = np.linalg.inv(root)
    t_map = inv_root @ _psd_root(root @ a1 @ root) @ inv_root
    m = (1.0 - ts) * eye + ts * t_map
    return m @ a0 @ m, (t_map - eye) @ a0 @ m + m @ a0 @ (t_map - eye)


def fiber_geodesic_formula(a0, a1, ts):
    """Points and time derivatives of the Bures geodesic from ``a0`` to
    ``a1`` at ``ts`` by closed forms, or None when both ends are singular
    and the start is nonzero.

    A zero start gives ``t^2 a1``, a definite start the optimal-map path
    ``M_t a0 M_t``, and a singular start with a definite end that path run
    backwards from ``a1`` (the geodesic is unique once one end is definite).
    """
    ts = np.asarray(ts, dtype=float)[:, None, None]
    if not np.any(a0):
        return ts * ts * a1, 2.0 * ts * a1
    if _is_definite(a0):
        return _map_path(a0, a1, ts)
    if _is_definite(a1):
        points, rates = _map_path(a1, a0, 1.0 - ts)
        return points, -rates
    return None


def geodesic_velocities(a0, a1, ts, labels=None):
    """Velocities of ``bures_geodesic(a0, a1, ts, labels)``: per time, ``solve_sylvester_velocity`` of the
    point and its rate ``2 Herm(dY Y_t*)`` from ``geodesic_factors``, or None where a fiber is singular."""
    from frgeo import bures, hpsd

    a0, a1 = np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex)
    r0, y1, _ = bures.polar_endpoints(a0, a1, labels)
    points, y_t, dy = bures.geodesic_factors(a0, r0, y1, np.asarray(ts, dtype=float))
    rates = 2.0 * hpsd.hermitian_part(dy @ np.conj(np.swapaxes(y_t, -1, -2)))
    singular = hpsd.singular(np.linalg.eigvalsh(points)).reshape(len(points), -1).any(axis=1)
    return tuple(None if s else hpsd.solve_sylvester_velocity(a, r) for a, r, s in zip(points, rates, singular))


def check_path_follows_fiber_formulas(g0, g1, ts, points, velocities=None):
    """Assert that a measure path (``points[k]`` the atom stack at ``ts[k]``)
    runs every fiber along :func:`fiber_geodesic_formula` within 1e-12, or,
    for a fiber without a closed form, along a geodesic:
    ``d_B^2(a0, a_t) = t^2 d^2`` and ``d_B^2(a_t, a1) = (1 - t)^2 d^2``.
    A velocity stack must be attached exactly where every fiber point is
    definite, and solve the continuity equation ``(a u + u a) / 2 = da/dt``
    on every fiber with a closed form."""
    points = np.asarray(points)
    for i in range(g0.n):
        a0, a1, path = g0.atoms[i], g1.atoms[i], points[:, i]
        formula = fiber_geodesic_formula(a0, a1, ts)
        if formula is None:
            d_sq = bures_sq_formula(a0, a1)
            scale = max(1.0, float(np.real(np.trace(a0) + np.trace(a1))))
            for t, a_t in zip(ts, path):
                assert abs(bures_sq_formula(a0, a_t) - t * t * d_sq) <= 1e-12 * scale, f"fiber {i} at t = {t}"
                assert abs(bures_sq_formula(a_t, a1) - (1 - t) ** 2 * d_sq) <= 1e-12 * scale, f"fiber {i} at t = {t}"
            continue
        ref_points, ref_rates = formula
        scale = max(1.0, float(np.abs(np.concatenate([ref_points, ref_rates])).max()))
        assert np.abs(path - ref_points).max() <= 1e-12 * scale, f"fiber {i}"
        for k, u in enumerate(velocities or ()):
            if u is not None:
                a = ref_points[k]
                resid = np.abs((a @ u[i] + u[i] @ a) / 2.0 - ref_rates[k]).max()
                assert resid <= 1e-12 * scale, f"fiber {i} continuity residual {resid} at t = {ts[k]}"
    for k, u in enumerate(velocities or ()):
        definite = all(_is_definite(a) for a in points[k])
        assert (u is not None) == definite, f"velocity attachment at t = {ts[k]}"


@pytest.fixture(scope="session")
def fiber_formulas():
    """The closed-form references above, for tests to compare against."""
    from types import SimpleNamespace

    return SimpleNamespace(
        bures_sq=bures_sq_formula,
        masses=mass_interpolation_values,
        geodesic=fiber_geodesic_formula,
        velocities=geodesic_velocities,
        check_path=check_path_follows_fiber_formulas,
    )
