import numpy as np
import pytest

from frgeo import bures
from frgeo.bures import (
    _factor_gradient,
    _node_action,
    bures_distance_sq,
    bures_geodesic,
    bures_real_embedding_check,
    dynamical_bures_solver,
    spherical_bures,
)
from frgeo.exceptions import FRGeoError, NotPSDError, NotUnitTraceError
from frgeo.hpsd import hermitian_part, psd_sqrt
from frgeo.optim import lbfgs
from frgeo.testing import random_complex, random_density, random_hermitian, random_psd, random_spd


class TestBuresDistanceSq:
    def test_identical(self, rng):
        # A matrix is at distance exactly 0 from itself, on definite and
        # singular fibers: equal fibers never reach the polar residual.
        for d in (1, 2, 3, 4):
            for rank in range(d + 1):
                a = random_psd(rng, d, rank=rank)
                assert bures_distance_sq(a, a) == 0.0

    def test_equal_fibers_are_exactly_zero(self, rng):
        # Equal fibers are at distance exactly 0, alone or paired within a
        # stack, and the rule leaves the other pairs of that stack as they are.
        fibers = [random_spd(rng, 3), random_psd(rng, 3, rank=1), np.zeros((3, 3), dtype=complex)]
        for a in fibers:
            assert bures_distance_sq(a, a.copy()) == 0.0
        stack = np.stack(fibers)
        other = stack.copy()
        other[1] = random_psd(rng, 3, rank=2)
        assert np.array_equal(bures_distance_sq(stack, stack.copy()), np.zeros(3))
        got = bures_distance_sq(stack, other)
        assert got[0] == got[2] == 0.0
        assert got[1] == bures_distance_sq(stack[1], other[1]) > 0.0

    def test_against_zero(self, rng):
        a = random_psd(rng, 3)
        assert bures_distance_sq(a, np.zeros_like(a)) == pytest.approx(np.real(np.trace(a)))

    def test_commuting_diagonal_pair(self):
        # Commuting case oracle: |sqrt(a1) - sqrt(a0)|_2^2 = |diag(1, -1)|^2 = 2.
        a0 = np.diag([1.0, 4.0]).astype(complex)
        a1 = np.diag([4.0, 1.0]).astype(complex)
        assert bures_distance_sq(a0, a1) == pytest.approx(2.0, abs=1e-12)

    def test_ordering_symmetry(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 5))
            a0, a1 = random_psd(rng, d), random_psd(rng, d)
            assert abs(bures_distance_sq(a0, a1) - bures_distance_sq(a1, a0)) <= 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            a, b, c = (random_psd(rng, d) for _ in range(3))
            dab = np.sqrt(bures_distance_sq(a, b))
            dbc = np.sqrt(bures_distance_sq(b, c))
            dac = np.sqrt(bures_distance_sq(a, c))
            assert dac <= dab + dbc + 1e-9

    def test_root_difference_and_trace_norm_chain(self, rng):
        for _ in range(500):
            d = int(rng.integers(1, 5))
            a0, a1 = random_psd(rng, d), random_psd(rng, d)
            sq_diff = np.linalg.norm(psd_sqrt(a1) - psd_sqrt(a0)) ** 2
            schatten1 = float(np.sum(np.abs(np.linalg.eigvalsh(a1 - a0))))
            d_sq = bures_distance_sq(a0, a1)
            assert d_sq <= sq_diff + 1e-9
            assert sq_diff <= schatten1 + 1e-9

    def test_rejects_non_psd(self, rng):
        with pytest.raises(NotPSDError):
            bures_distance_sq(-np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def haar_unitaries(rng, shape):
    """Haar-random unitaries of shape ``(..., d, d)``: QR with the phases of ``R`` taken out."""
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def svd_polar(m):
    p, _, qh = np.linalg.svd(m)
    return p @ qh


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPolarResidual:
    """The polar step: a closed form at d = 2, the batched SVD otherwise."""

    @staticmethod
    def polar(m):
        """``(R, W)`` of :func:`bures.polar_residual` with ``y0 = I``, so that ``y0* y1 = m``."""
        return bures.polar_residual(np.broadcast_to(np.eye(m.shape[-1]), m.shape), m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_from_condition_number_1_to_1e12(self, rng, n):
        # Row k of the (12, n, 2, 2) stack has condition number conds[k].
        conds = np.logspace(0, 12, 12)[:, None]
        s1 = rng.uniform(0.1, 1.0, (12, n))
        m = haar_unitaries(rng, (12, n, 2, 2)) * np.stack([s1, s1 / conds], axis=-1)[..., None, :]
        m = m @ haar_unitaries(rng, (12, n, 2, 2))
        r, w = self.polar(m)
        wh = np.conj(np.swapaxes(w, -1, -2))
        assert np.abs(wh @ w - np.eye(2)).max() <= 1e-14
        h = wh @ m
        assert np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max(axis=(-2, -1)).max() <= 1e-14
        assert np.linalg.eigvalsh(hermitian_part(h)).min() >= -1e-14
        # The polar factor's condition number is about cond M, for either route.
        assert np.all(np.abs(w - svd_polar(m)).max(axis=(-2, -1)) <= 1e-14 * conds)
        assert np.array_equal(r, m - w)
        assert np.abs((np.abs(r) ** 2).sum(axis=(-2, -1)) - (np.abs(m - svd_polar(m)) ** 2).sum(axis=(-2, -1))).max() <= 1e-14

    def test_rank_one_zero_and_orthogonal_fibers(self, rng):
        # det M = 0 takes the phase 1, which still gives a unitary minimizer;
        # M = 0 gives I. Orthogonal fibers have M = 0 as well.
        u, v = haar_unitaries(rng, (2, 4, 2, 2))
        rank_one = rng.uniform(0.1, 2.0, (4, 1, 1)) * u[..., :1] @ np.conj(np.swapaxes(v[..., :1], -1, -2))
        m = np.concatenate([rank_one, np.zeros((1, 2, 2), dtype=complex)])
        r, w = self.polar(m)
        assert np.abs(np.conj(np.swapaxes(w, -1, -2)) @ w - np.eye(2)).max() <= 1e-15
        assert np.array_equal(w[-1], np.eye(2))
        assert np.linalg.eigvalsh(hermitian_part(np.conj(np.swapaxes(w, -1, -2)) @ m)).min() >= -1e-15
        want = (np.abs(m - svd_polar(m)) ** 2).sum(axis=(-2, -1))
        assert np.abs((np.abs(r) ** 2).sum(axis=(-2, -1)) - want).max() <= 1e-14
        y0 = np.diag([1.0, 0.0]).astype(complex)
        y1 = np.diag([0.0, 0.7]) @ haar_unitaries(rng, (2, 2))
        r, w = bures.polar_residual(y0, y1)
        assert np.array_equal(w, np.eye(2)) and (np.abs(r) ** 2).sum() == pytest.approx(1.49, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_only_d_2_skips_the_svd(self, rng, monkeypatch, d):
        m = haar_unitaries(rng, (5, d, d)) * rng.uniform(0.1, 1.0, (5, 1, d))
        calls = []

        def counted(a, *args, _original=np.linalg.svd, **kwargs):
            calls.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        r, w = self.polar(m)
        assert calls == ([] if d == 2 else [(5, d, d)])
        monkeypatch.undo()
        assert np.abs(w - svd_polar(m)).max() <= 1e-14
        assert np.array_equal(r, m - w)


class TestSphericalBures:
    def test_identical(self, rng):
        a = random_density(rng, 3)
        assert spherical_bures(a, a) == 0.0

    def test_orthogonal_supports(self):
        a0 = np.diag([1.0, 0.0]).astype(complex)
        a1 = np.diag([0.0, 1.0]).astype(complex)
        # d_B^2 = 2, so the angle is arccos(0) = pi/2.
        assert spherical_bures(a0, a1) == pytest.approx(np.pi / 2.0)

    def test_bounded_by_half_pi(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a0, a1 = random_density(rng, d, definite=False), random_density(rng, d, definite=False)
            assert spherical_bures(a0, a1) <= np.pi / 2.0 + 1e-12

    def test_requires_unit_trace(self, rng):
        with pytest.raises(NotUnitTraceError):
            spherical_bures(2.0 * np.eye(2, dtype=complex), random_density(rng, 2))

    def test_unit_trace_tolerance_is_1e_9(self, rng):
        # Both arguments count as unit trace within UNIT_TRACE_TOL = 1e-9 and no further.
        a = random_density(rng, 2)
        assert bures.UNIT_TRACE_TOL == 1e-9
        assert spherical_bures((1.0 + 5e-10) * a, (1.0 - 5e-10) * a) <= 1e-6
        with pytest.raises(NotUnitTraceError, match="first argument"):
            spherical_bures((1.0 + 2e-9) * a, a)
        with pytest.raises(NotUnitTraceError, match="second argument"):
            spherical_bures(a, (1.0 - 2e-9) * a)


class TestBuresGeodesic:
    def test_constant(self, rng):
        a = random_psd(rng, 3)
        geo = bures_geodesic(a, a, [0.0, 0.5, 1.0])
        for p in geo.points:
            assert np.array_equal(p, a)

    def test_radial_from_zero(self, rng):
        a1 = random_psd(rng, 2)
        zero = np.zeros_like(a1)
        ts = [0.0, 0.3, 0.7, 1.0]
        geo = bures_geodesic(zero, a1, ts)
        tr1 = np.real(np.trace(a1))
        for t, p in zip(ts, geo.points):
            assert np.linalg.norm(p - t * t * a1) <= 1e-12
            assert bures_distance_sq(zero, p) == pytest.approx(t * t * tr1, abs=1e-10)

    def test_constant_speed(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a0, a1 = random_spd(rng, d), random_spd(rng, d)
            dist = np.sqrt(bures_distance_sq(a0, a1))
            geo = bures_geodesic(a0, a1, [0.25, 0.5, 0.75])
            for t, p in zip([0.25, 0.5, 0.75], geo.points):
                assert np.sqrt(bures_distance_sq(a0, p)) == pytest.approx(t * dist, rel=1e-8, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ts", [[np.nan, 3.0], [0.5, 0.2], [0.0, 1.5]])
    @pytest.mark.parametrize(
        "geodesic",
        [bures_geodesic, lambda a0, a1, ts: bures_geodesic(a0[None], a1[None], ts)],
        ids=["fiber", "stack"],
    )
    def test_rejects_times_before_any_arithmetic(self, geodesic, ts):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(FRGeoError, match="times must"):
            geodesic(eye, 2.0 * eye, ts)

    def test_endpoints_match(self, rng):
        a0, a1 = random_spd(rng, 3), random_psd(rng, 3)
        geo = bures_geodesic(a0, a1, [0.0, 1.0])
        assert np.linalg.norm(geo.points[0] - a0) <= 1e-9
        assert np.linalg.norm(geo.points[1] - a1) <= 1e-9

    def test_trace_interpolation(self, rng):
        # Seed 7 holds a pair whose traces a d_B^2 off by 7.5e-14 would miss.
        for gen in (rng, np.random.default_rng(7)):
            for _ in range(50):
                d = int(gen.integers(1, 5))
                a0, a1 = random_psd(gen, d), random_psd(gen, d)
                # Also from a0 with its smallest eigenvalue set to zero.
                w, v = np.linalg.eigh(a0)
                w[0] = 0.0
                for start in (a0, (v * w) @ np.conj(v.T)):
                    d_sq = bures_distance_sq(start, a1)
                    ts = np.linspace(0.0, 1.0, 7)
                    geo = bures_geodesic(start, a1, ts)
                    traces = np.real(np.trace(geo.points, axis1=1, axis2=2))
                    expected = ts * np.real(np.trace(a1)) + (1 - ts) * np.real(np.trace(start)) - ts * (1 - ts) * d_sq
                    assert np.max(np.abs(traces - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    def test_points_stay_psd(self, rng):
        a0, a1 = random_psd(rng, 3, rank=2), random_psd(rng, 3)
        geo = bures_geodesic(a0, a1, np.linspace(0, 1, 9))
        for p in geo.points:
            assert np.linalg.eigvalsh(p).min() >= -1e-10

    def test_singular_start_exact_endpoints(self, rng):
        a0 = random_psd(rng, 3, rank=1)
        a1 = random_psd(rng, 3)
        geo = bures_geodesic(a0, a1, [0.0, 0.5, 1.0])
        assert geo.meta == {}
        assert np.linalg.norm(geo.points[0] - a0) <= 1e-13 * np.linalg.norm(a0)
        assert np.linalg.norm(geo.points[-1] - a1) <= 1e-13 * np.linalg.norm(a1)
        # The start is on the cone boundary, so it has no velocity.
        assert geo.velocities[0] is None and geo.velocities[1] is not None

    def test_both_endpoints_singular(self, rng):
        a0 = random_psd(rng, 3, rank=2)
        a1 = random_psd(rng, 3, rank=1)
        dist = np.sqrt(bures_distance_sq(a0, a1))
        geo = bures_geodesic(a0, a1, [0.0, 0.5, 1.0])
        assert np.linalg.norm(geo.points[0] - a0) <= 1e-13 * np.linalg.norm(a0)
        assert np.linalg.norm(geo.points[-1] - a1) <= 1e-13 * np.linalg.norm(a1)
        mid = np.sqrt(bures_distance_sq(a0, geo.points[1]))
        assert mid == pytest.approx(dist / 2.0, rel=1e-11)

    def test_small_definite_pair_has_velocities(self):
        # Definite under the relative rank rule although an eigenvalue is
        # below 1e-12: every sample gets its velocity. Along this commuting
        # pair u_t = 2 (b^{1/2} - a^{1/2}) / ((1 - t) a^{1/2} + t b^{1/2}).
        a0, a1 = np.diag([1e-2, 1e-13]), np.diag([2e-2, 1e-13])
        ts = np.linspace(0.0, 1.0, 5)
        geo = bures_geodesic(a0.astype(complex), a1.astype(complex), ts)
        r0, r1 = np.sqrt(np.diag(a0)), np.sqrt(np.diag(a1))
        for t, u in zip(ts, geo.velocities):
            expected = np.diag(2.0 * (r1 - r0) / ((1.0 - t) * r0 + t * r1))
            assert u is not None
            assert np.abs(u - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_velocities_solve_continuity_equation(self, rng):
        a0, a1 = random_spd(rng, 2), random_spd(rng, 2)
        ts = np.linspace(0.0, 1.0, 33)
        geo = bures_geodesic(a0, a1, ts)
        dt = ts[1] - ts[0]
        # Central-difference check of da/dt = (a u)^Sym at interior samples.
        for k in range(1, 32):
            u = geo.velocities[k]
            assert u is not None
            fd = (geo.points[k + 1] - geo.points[k - 1]) / (2 * dt)
            au = geo.points[k] @ u
            resid = np.linalg.norm(fd - (au + au.conj().T) / 2)
            assert resid <= 5e-3 * max(1.0, np.linalg.norm(fd))


class TestRealEmbeddingCheck:
    def test_identical(self):
        eye = np.eye(2, dtype=complex)
        lhs, rhs = bures_real_embedding_check(eye, eye)
        assert lhs == rhs == 0.0

    def test_real_pair(self, rng):
        a0 = np.real(random_psd(rng, 2)).astype(complex)
        a1 = np.real(random_psd(rng, 2)).astype(complex)
        lhs, rhs = bures_real_embedding_check(a0, a1)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_specific_complex_pair(self):
        a0 = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        lhs, rhs = bures_real_embedding_check(a0, np.eye(2, dtype=complex))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDynamicalSolver:
    def test_factor_gradient_matches_finite_differences(self, rng):
        # The closed-form factor gradient drives the solver; check it
        # against central differences of the action the solver descends.
        d, n_steps = 2, 8
        dt = 1.0 / n_steps
        a0, a1 = random_spd(rng, d), random_spd(rng, d)
        factors = psd_sqrt(np.stack([random_spd(rng, d) for _ in range(n_steps - 1)]))
        grads = _factor_gradient(factors, _node_action(factors, a0, a1, dt)[1][1], dt)
        h = 1e-6
        for _ in range(12):
            k = int(rng.integers(0, n_steps - 1))
            direction = random_complex(rng, (d, d))
            bump = direction * _bump(k, n_steps - 1, d)
            up, down = (_node_action(factors + step, a0, a1, dt)[0] for step in (h * bump, -h * bump))
            num = (up - down) / (2 * h)
            ana = np.real(np.vdot(grads[k], direction))
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-7)

    def test_identical_endpoints(self, rng):
        a = random_spd(rng, 2)
        res = dynamical_bures_solver(a, a, 8)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.converged

    def test_scalar_closed_form(self):
        res = dynamical_bures_solver(np.array([[1.0 + 0j]]), np.array([[4.0 + 0j]]), 64)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-4)

    def test_matches_closed_form(self, rng):
        a0, a1 = random_spd(rng, 2), random_spd(rng, 2)
        closed = bures_distance_sq(a0, a1)
        res = dynamical_bures_solver(a0, a1, 32)
        assert res.converged
        assert abs(res.value - closed) <= 2e-3 * closed

    def test_singular_start(self, rng):
        # A rank-1 start on the cone boundary: the pinned-endpoint solve stays
        # PSD and bounded below, and its first-order error halves with N.
        a0, a1 = random_psd(rng, 2, rank=1), random_spd(rng, 2)
        closed = bures_distance_sq(a0, a1)
        errs = []
        for n_steps in (32, 64):
            res = dynamical_bures_solver(a0, a1, n_steps)
            assert res.converged
            errs.append(abs(res.value - closed) / closed)
        assert errs[0] <= 0.05
        assert errs[1] <= 0.6 * errs[0]

    def test_singular_ends_pinned_exactly(self, rng):
        # The end nodes are the clamped inputs themselves, not a shifted copy.
        pairs = [
            (random_psd(rng, 2, rank=1), random_spd(rng, 2)),
            (np.zeros((2, 2), dtype=complex), random_psd(rng, 2, rank=1)),
            (random_psd(rng, 2, rank=1), random_psd(rng, 2, rank=1)),
        ]
        for a0, a1 in pairs:
            res = dynamical_bures_solver(a0, a1, 16)
            assert res.converged
            assert res.path.meta == {"mode": "dynamical"}
            path = res.path
            assert np.array_equal(path.points[0], path.a0) and np.array_equal(path.points[-1], path.a1)
            tr = max(np.real(np.trace(a0)), np.real(np.trace(a1)))
            assert np.abs(path.a0 - a0).max() <= 1e-14 * tr
            assert np.abs(path.a1 - a1).max() <= 1e-14 * tr

    def test_shared_kernel_solved_on_the_range(self, rng):
        # Rank-2 ends in d = 3 with a common kernel vector v: every node keeps
        # v in its kernel, and the error is second order as for definite ends.
        q = np.linalg.eigh(random_hermitian(rng, 3)).eigenvectors
        a0, a1 = (hermitian_part(q[:, :2] @ random_spd(rng, 2) @ np.conj(q[:, :2].T)) for _ in range(2))
        v = q[:, 2]
        closed = bures_distance_sq(a0, a1)
        errs = []
        for n_steps in (16, 64):
            res = dynamical_bures_solver(a0, a1, n_steps)
            assert res.converged
            leak = np.abs(np.conj(v) @ res.path.points @ v)
            assert leak.max() <= 1e-14 * np.real(np.trace(a0 + a1))
            errs.append(abs(res.value - closed))
        assert errs[1] <= 0.1 * errs[0]

    @pytest.mark.parametrize("weight", [1e-11, 1e-9, 1e-7])
    def test_light_direction_in_a_kernel(self, rng, weight):
        # a1 is light along a0's kernel: 1e-11 passes the rank rule, but the
        # grid's first midpoint, about dt^2 / 2 of it, does not. The solve
        # leaves such a direction out rather than failing on it.
        q = np.linalg.eigh(random_hermitian(rng, 3)).eigenvectors
        a0 = hermitian_part((q * [1.0, 0.5, 0.0]) @ np.conj(q.T))
        a1 = hermitian_part((q * [0.3, 0.8, weight]) @ np.conj(q.T))
        closed = bures_distance_sq(a0, a1)
        for n_steps in (16, 64):
            res = dynamical_bures_solver(a0, a1, n_steps)
            assert res.converged
            assert abs(res.value - closed) <= 1e-3 * closed

    def test_nearly_shared_kernel(self, rng):
        # Rank-2 ends in d = 3 whose kernels differ by 1e-5 rad: a0 + a1 weighs
        # about 1e-10 along them, which the rank rule resolves and the grid,
        # whose first midpoints weigh dt^2 / 2 of it, does not.
        q = np.linalg.eigh(random_hermitian(rng, 3)).eigenvectors
        c, s = np.cos(1e-5), np.sin(1e-5)
        tilted = q @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        a0 = hermitian_part((q * [1.0, 0.5, 0.0]) @ np.conj(q.T))
        a1 = hermitian_part((tilted * [0.3, 0.8, 0.0]) @ np.conj(tilted.T))
        closed = bures_distance_sq(a0, a1)
        for n_steps in (16, 64):
            res = dynamical_bures_solver(a0, a1, n_steps)
            assert res.converged
            assert abs(res.value - closed) <= 1e-3 * closed

    def test_apex(self):
        zero = np.zeros((2, 2), dtype=complex)
        res = dynamical_bures_solver(zero, zero, 8)
        assert (res.value, res.converged, res.iterations) == (0.0, True, 0)
        assert res.path.meta == {"mode": "apex"}
        assert not res.path.points.any()

    @pytest.mark.parametrize("entry", [(0, 0, np.nan), (0, 1, np.inf)])
    def test_non_finite_input_is_not_psd(self, rng, entry):
        # NaN fails every comparison, so the PSD floor tests for membership.
        r, c, value = entry
        bad = np.eye(2, dtype=complex)
        bad[r, c] = bad[c, r] = value
        good = random_spd(rng, 2)
        for f in (
            psd_sqrt,
            lambda a: bures_distance_sq(a, good),
            lambda a: bures_geodesic(a, good, [0.0, 0.5, 1.0]),
            lambda a: dynamical_bures_solver(good, a, 8),
        ):
            with pytest.raises(NotPSDError, match="non-finite"):
                f(bad)

    def test_iterations_flat_in_grid_size(self, rng):
        # Preconditioned in time, a solve takes a handful of iterations at
        # any N; plain L-BFGS needed about 2.5 N. Counts turn on the last
        # bits of the gradient, so only a fixed bound is checked.
        a0, a1 = random_spd(rng, 2), random_spd(rng, 2)
        for n_steps in (16, 128):
            res = dynamical_bures_solver(a0, a1, n_steps)
            assert res.converged
            assert res.iterations <= 25, n_steps

    def test_iteration_budget_flag(self, rng, monkeypatch):
        def three_iterations(*args, **kwargs):
            assert kwargs["max_iters"] == bures.MAX_ITERS
            return lbfgs(*args, **{**kwargs, "max_iters": 3})

        monkeypatch.setattr(bures, "lbfgs", three_iterations)
        res = dynamical_bures_solver(random_spd(rng, 2), random_spd(rng, 2), 8)
        assert not res.converged
        assert res.stop_reason == "budget"
        assert res.iterations <= 3

    def test_exhausted_line_search_is_not_converged(self, rng, monkeypatch):
        def exhausted(*args, **kwargs):
            return lbfgs(*args, **kwargs)._replace(stop_reason="line_search_exhausted")

        monkeypatch.setattr(bures, "lbfgs", exhausted)
        res = dynamical_bures_solver(random_spd(rng, 2), random_spd(rng, 2), 8)
        assert res.stop_reason == "line_search_exhausted"
        assert not res.converged

    def test_rejects_small_grid(self, rng):
        with pytest.raises(ValueError):
            dynamical_bures_solver(random_spd(rng, 2), random_spd(rng, 2), 4)


def _bump(k, n_steps, d):
    """Indicator tensor selecting factor slot k."""
    e = np.zeros((n_steps, 1, 1))
    e[k] = 1.0
    return e
