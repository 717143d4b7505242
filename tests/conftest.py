import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def mixed_mode_pair():
    """Two measures on three points whose fiber geodesics take every mode:
    a zero start (radial), a rank-deficient start with a rank-deficient end
    (regularized, no velocity at t = 1) and a definite pair (map)."""
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


def fiber_geodesic_formula(a0, a1, ts):
    """Points and time derivatives of the Bures geodesic from ``a0`` to
    ``a1`` at ``ts`` by the closed forms, plus the start shift ``delta``.

    A zero start gives ``t^2 a1``. Otherwise the path is ``M_t B M_t`` with
    ``M_t = (1 - t) I + t T``, where ``B`` is ``a0`` shifted by
    ``1e-8 max(tr a0, tr a1)`` when singular and ``T`` is the PSD solution
    of ``T B T = a1``.
    """
    ts = np.asarray(ts, dtype=float)[:, None, None]
    if not np.any(a0):
        return ts * ts * a1, 2.0 * ts * a1, 0.0
    d = a0.shape[0]
    eye = np.eye(d)
    w = np.linalg.eigvalsh(a0)
    delta = 0.0 if w[0] > 1e-12 * w[-1] else 1e-8 * max(np.trace(a0).real, np.trace(a1).real)
    b = a0 + delta * eye
    root_b = _psd_root(b)
    inv_root_b = np.linalg.inv(root_b)
    t_map = inv_root_b @ _psd_root(root_b @ a1 @ root_b) @ inv_root_b
    m = (1.0 - ts) * eye + ts * t_map
    return m @ b @ m, (t_map - eye) @ b @ m + m @ b @ (t_map - eye), delta


# The shifted start of a regularized fiber has condition number about
# tr / delta = 1e8, and its transport map is accurate only to about that
# multiple of machine epsilon; definite and radial fibers meet 1e-12.
REGULARIZED_FIBER_TOL = 1e-7


def check_path_follows_fiber_formulas(g0, g1, ts, points, velocities=None, deltas=None):
    """Assert that a measure path (``points[k]`` the atom stack at ``ts[k]``)
    runs every fiber along :func:`fiber_geodesic_formula`, that ``deltas``
    are the fiber start shifts, and that a velocity stack is attached
    exactly where every fiber point is definite and solves the continuity
    equation ``(a u + u a) / 2 = da/dt`` fiber by fiber."""
    d = g0.dim
    formulas = [fiber_geodesic_formula(g0.atoms[i], g1.atoms[i], ts) for i in range(g0.n)]
    ref_points = np.stack([f[0] for f in formulas], axis=1)
    ref_rates = np.stack([f[1] for f in formulas], axis=1)
    tol = np.array([REGULARIZED_FIBER_TOL if f[2] > 0.0 else 1e-12 for f in formulas])
    scale = np.maximum(1.0, np.abs(np.concatenate([ref_points, ref_rates])).max(axis=(0, 2, 3)))
    assert np.all(np.abs(np.asarray(points) - ref_points).max(axis=(0, 2, 3)) <= tol * scale)
    if deltas is not None:
        assert deltas == pytest.approx([f[2] for f in formulas], rel=1e-12, abs=0.0)
    if velocities is None:
        return
    for k, u in enumerate(velocities):
        w = np.linalg.eigvalsh(ref_points[k])
        definite = np.all(w > 1e-12 * np.maximum(w[:, -1:], 1e-300), axis=1)
        assert (u is not None) == bool(definite.all()), f"velocity attachment at t = {ts[k]}"
        if u is not None:
            a = ref_points[k]
            resid = np.abs((a @ u + u @ a) / 2.0 - ref_rates[k]).max(axis=(1, 2))
            assert np.all(resid <= tol * scale), f"continuity residual {resid} at t = {ts[k]}"


@pytest.fixture(scope="session")
def fiber_formulas():
    """The closed-form fiber references above, for tests to compare against."""
    from types import SimpleNamespace

    return SimpleNamespace(
        bures_sq=bures_sq_formula, geodesic=fiber_geodesic_formula, check_path=check_path_follows_fiber_formulas
    )
