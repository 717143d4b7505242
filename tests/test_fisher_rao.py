import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgeo.bures import bures_distance_sq, bures_geodesic
from frgeo.exceptions import (
    FRGeoError,
    NotHermitianError,
    NotProbabilityError,
    NotPSDError,
    SupportMismatchError,
)
from frgeo.fisher_rao import (
    MeasurePath,
    cone_scaling_check,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
    metric_speed,
    tv_comparison_check,
)
from frgeo.hpsd import sym_product
from frgeo.measures import (
    MatrixMeasure,
    Support,
    make_support,
    mass,
    scale_measure,
    tv_distance,
)
from frgeo.testing import (
    random_density,
    random_finite_entropy_measure,
    random_measure,
    random_probability_measure,
    random_psd,
)


def zero_like(g):
    return g.with_atoms(np.zeros_like(g.atoms))


def kinetic_speeds(fiber_formulas, a0, a1, ts, labels=None):
    """Kinetic speeds ``sqrt(sum_i Re <U_i, G_i U_i>)`` along ``bures_geodesic``
    of two atom stacks: the Hellinger speeds, NaN at a time without a velocity."""
    points = bures_geodesic(a0, a1, ts, labels).points
    return np.array([
        np.nan if u is None else np.sqrt(np.real(np.vdot(u, g @ u)))
        for g, u in zip(points, fiber_formulas.velocities(a0, a1, ts, labels))
    ])


class TestHellingerDistance:
    def test_identical(self, rng):
        g = random_measure(rng, 3, 2)
        assert hellinger_distance_sq(g, g) == 0.0

    def test_against_zero_is_four_masses(self, rng):
        for _ in range(20):
            g = random_measure(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            assert hellinger_distance_sq(g, zero_like(g)) == pytest.approx(4.0 * mass(g), rel=1e-12)

    def test_sphere_pairs_bounded_by_eight(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            g0 = random_probability_measure(rng, n, d, support=sup)
            g1 = random_probability_measure(rng, n, d, support=sup)
            assert hellinger_distance_sq(g0, g1) <= 8.0 + 1e-9

    def test_equals_fiberwise_sum(self, rng):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 2, support=sup)
        g1 = random_measure(rng, 2, 2, support=sup)
        fiberwise = sum(
            bures_distance_sq(g0.atoms[i], g1.atoms[i]) for i in range(2)
        )
        assert hellinger_distance_sq(g0, g1) == pytest.approx(4.0 * fiberwise, rel=1e-12)

    def test_support_mismatch(self, rng):
        with pytest.raises(SupportMismatchError):
            hellinger_distance_sq(random_measure(rng, 2, 2), random_measure(rng, 3, 2))


class TestFisherRaoDistance:
    def test_identical(self, rng):
        g = random_probability_measure(rng, 2, 2)
        assert fisher_rao_distance(g, g) == 0.0

    @pytest.mark.parametrize("n, d", [(2, 2), (8, 3), (64, 4)])
    def test_measure_is_at_distance_zero_from_itself(self, n, d):
        # Each read 5e-16 to 2e-15 for d_FR while the polar factor of equal
        # roots carried its round-off into the residual.
        g = random_finite_entropy_measure(np.random.default_rng(7), n, d)
        copy = g.with_atoms(g.atoms.copy())
        assert hellinger_distance_sq(g, copy) == 0.0
        assert fisher_rao_distance(g, copy) == 0.0

    def test_mutually_singular_saturates(self):
        sup = make_support(2)
        g0 = MatrixMeasure(sup, np.stack([np.eye(1), np.zeros((1, 1))]).astype(complex))
        g1 = MatrixMeasure(sup, np.stack([np.zeros((1, 1)), np.eye(1)]).astype(complex))
        assert fisher_rao_distance(g0, g1) == pytest.approx(np.pi)

    def test_single_point_matches_fiber_angle(self, rng):
        # Chain of closed forms: one atom, unit trace, so
        # d_FR = 2 arccos(1 - d_B^2 / 2).
        sup = Support(("x",))
        a0, a1 = random_density(rng, 3), random_density(rng, 3)
        g0 = MatrixMeasure(sup, a0[None])
        g1 = MatrixMeasure(sup, a1[None])
        expected = 2.0 * np.arccos(np.clip(1.0 - bures_distance_sq(a0, a1) / 2.0, -1.0, 1.0))
        assert fisher_rao_distance(g0, g1) == pytest.approx(expected, abs=1e-12)

    def test_requires_probability(self, rng):
        g = random_probability_measure(rng, 2, 2)
        with pytest.raises(NotProbabilityError):
            fisher_rao_distance(scale_measure(g, 2.0), g)

    def test_small_distances_keep_every_digit(self):
        # 4 arcsin(sqrt(x) / 4) = sqrt(x) (1 + x/96 + O(x^2)); arccos(1 - x/8)
        # loses every digit here (it returns 0 at x = 1e-16).
        x = np.geomspace(1e-30, 1e-8, 89)
        series = np.sqrt(x) * (1.0 + x / 96.0)
        assert np.all(np.abs(fisher_rao_from_hellinger(x) - series) <= 4 * np.spacing(series))

    def test_bounded_by_pi(self, rng):
        for _ in range(100):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            g0 = random_probability_measure(rng, n, d, support=sup)
            g1 = random_probability_measure(rng, n, d, support=sup)
            assert fisher_rao_distance(g0, g1) <= np.pi + 1e-9


class TestConeScaling:
    def test_unit_radii(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        lhs, rhs = cone_scaling_check(g0, g1, 1.0, 1.0)
        assert lhs == pytest.approx(hellinger_distance_sq(g0, g1), rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_apex_radius(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        lhs, rhs = cone_scaling_check(g0, g1, 0.0, 2.0)
        assert lhs == pytest.approx(16.0, rel=1e-10)
        assert rhs == pytest.approx(16.0, rel=1e-12)

    def test_random_radii(self, rng):
        sup = make_support(3)
        g0 = random_probability_measure(rng, 3, 2, support=sup)
        g1 = random_probability_measure(rng, 3, 2, support=sup)
        lhs, rhs = cone_scaling_check(g0, g1, 2.0, 3.0)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)

    def test_cone_law_with_sphere_angle(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 3, support=sup)
        g1 = random_probability_measure(rng, 2, 3, support=sup)
        r0, r1 = 0.7, 1.9
        lhs, _ = cone_scaling_check(g0, g1, r0, r1)
        half_angle = fisher_rao_distance(g0, g1) / 2.0
        law = 4.0 * (r0**2 + r1**2 - 2.0 * r0 * r1 * np.cos(half_angle))
        assert abs(lhs - law) <= 1e-8 * max(1.0, law)


class TestHellingerGeodesic:
    def test_constant(self, rng):
        g = random_measure(rng, 2, 2)
        path = hellinger_geodesic(g, g, [0.0, 0.5, 1.0])
        assert path.meta["distance"] == 0.0
        assert np.array_equal(path.atoms, np.broadcast_to(g.atoms, path.atoms.shape))

    def test_to_zero_is_quadratic_shrink(self, rng):
        g = random_measure(rng, 2, 2, definite=True)
        ts = [0.0, 0.25, 0.5, 1.0]
        path = hellinger_geodesic(g, zero_like(g), ts)
        for t, s in zip(ts, path.slices):
            assert tv_distance(s, g.with_atoms((1 - t) ** 2 * g.atoms)) <= 1e-7

    def test_constant_speed(self, rng):
        sup = make_support(3)
        g0 = random_measure(rng, 3, 2, support=sup)
        g1 = random_measure(rng, 3, 2, support=sup)
        total = np.sqrt(hellinger_distance_sq(g0, g1))
        ts = np.linspace(0.0, 1.0, 6)
        path = hellinger_geodesic(g0, g1, ts)
        for i in range(6):
            for j in range(i + 1, 6):
                d = np.sqrt(hellinger_distance_sq(path.slices[i], path.slices[j]))
                assert d == pytest.approx(abs(ts[j] - ts[i]) * total, rel=1e-6, abs=1e-9)

    def test_sphere_endpoint_mass_bound(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            g0 = random_probability_measure(rng, n, d, support=sup)
            g1 = random_probability_measure(rng, n, d, support=sup)
            ts = np.linspace(0.0, 1.0, 9)
            masses = mass(hellinger_geodesic(g0, g1, ts))
            assert np.all(masses >= 1.0 - 2.0 * ts * (1.0 - ts) - 1e-9)

    def test_mass_interpolation_exact(self, rng, fiber_formulas):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 3, support=sup)
        g1 = random_measure(rng, 2, 3, support=sup)
        ts = np.linspace(0.0, 1.0, 11)
        masses = mass(hellinger_geodesic(g0, g1, ts))
        expected = fiber_formulas.masses(g0, g1, ts)
        assert np.max(np.abs(masses - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        d=st.integers(1, 4),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_rank_deficient_starts_exact_at_every_scale(self, seed, n, d, log_scale, fiber_formulas):
        # Every start atom has rank < d (zero included); end atoms have any rank.
        gen = np.random.default_rng(seed)
        scale = 10.0**log_scale
        sup = make_support(n)
        g0 = MatrixMeasure(sup, np.stack([random_psd(gen, d, rank=int(gen.integers(0, d)), scale=scale) for _ in range(n)]))
        g1 = MatrixMeasure(sup, np.stack([random_psd(gen, d, rank=int(gen.integers(1, d + 1)), scale=scale) for _ in range(n)]))
        ts = np.linspace(0.0, 1.0, 9)
        path = hellinger_geodesic(g0, g1, ts)
        size = scale * np.sqrt(d)
        assert np.abs(path.slices[0].atoms - g0.atoms).max() <= 1e-13 * size
        assert np.abs(path.slices[-1].atoms - g1.atoms).max() <= 1e-13 * size
        masses = mass(path)
        expected = fiber_formulas.masses(g0, g1, ts)
        assert np.abs(masses - expected).max() <= 2e-14 * (mass(g0) + mass(g1))

    @pytest.mark.parametrize("start", ["definite", "singular", "zero"])
    def test_points_record_the_hellinger_distance(self, rng, start):
        # meta["distance"] comes from the geodesic's own polar residual.
        sup = make_support(64)
        rank = {"definite": None, "singular": 2, "zero": 0}[start]
        g0 = MatrixMeasure(sup, np.stack([random_psd(rng, 4, rank=rank) for _ in range(64)]))
        g1 = random_measure(rng, 64, 4, support=sup)
        path = hellinger_geodesic(g0, g1, np.linspace(0.0, 1.0, 17))
        assert path.meta["distance"] == pytest.approx(np.sqrt(hellinger_distance_sq(g0, g1)), rel=1e-14)

    def test_shared_fiber_stays_at_its_atom(self, rng, fiber_formulas):
        sup = make_support(3)
        g0, g1 = (random_measure(rng, 3, 2, definite=True, support=sup) for _ in range(2))
        g1 = g1.with_atoms(np.concatenate([g1.atoms[:1], g0.atoms[1:2], g1.atoms[2:]]))
        ts = np.linspace(0.0, 1.0, 9)
        path = hellinger_geodesic(g0, g1, ts)
        assert np.array_equal(path.atoms[:, 1], np.broadcast_to(g0.atoms[1], path.atoms[:, 1].shape))
        assert not np.array_equal(path.atoms[:, 0], np.broadcast_to(g0.atoms[0], path.atoms[:, 0].shape))
        # The stack geodesic of the same atoms has the same points, and the shared fiber's velocity is exactly 0.
        geo = bures_geodesic(g0.atoms, g1.atoms, ts, sup.point_ids)
        assert np.array_equal(geo.points, path.atoms)
        us = fiber_formulas.velocities(g0.atoms, g1.atoms, ts, sup.point_ids)
        assert all(u is not None and not u[1].any() and u[0].any() for u in us)

    def test_stack_velocities_solve_the_geodesic_ode(self, rng, fiber_formulas):
        # Forward differences of the points against (G_k U_k)^Sym: the step
        # residual of a smooth path is O(dt), so halving the step halves it.
        sup = make_support(2)
        g0 = random_measure(rng, 2, 2, definite=True, support=sup)
        g1 = random_measure(rng, 2, 2, definite=True, support=sup)
        residuals = []
        for steps in (32, 64):
            ts = np.linspace(0.0, 1.0, steps + 1)
            geo = bures_geodesic(g0.atoms, g1.atoms, ts, sup.point_ids)
            rates = np.diff(geo.points, axis=0) / np.diff(ts)[:, None, None, None]
            us = fiber_formulas.velocities(g0.atoms, g1.atoms, ts, sup.point_ids)
            gaps = rates - sym_product(geo.points[:-1], np.stack(us[:-1]))
            residuals.append(np.linalg.norm(gaps, axis=(-2, -1)).sum(axis=-1).max())
        assert residuals[0] <= 0.5 * np.sqrt(hellinger_distance_sq(g0, g1))
        assert residuals[1] == pytest.approx(residuals[0] / 2.0, rel=0.1)


class TestStackedAgainstFibers:
    """The measure-level functions run one stack call over all atoms; these
    pin them to the per-fiber functions and to closed forms built from numpy
    primitives."""

    def test_mixed_mode_hellinger_geodesic(self, mixed_mode_pair, fiber_formulas):
        g0, g1 = mixed_mode_pair
        ts = np.linspace(0.0, 1.0, 6)
        path = hellinger_geodesic(g0, g1, ts)
        stack = bures_geodesic(g0.atoms, g1.atoms, ts, g0.support.point_ids)
        assert np.array_equal(stack.points, path.atoms)
        stack_us = fiber_formulas.velocities(g0.atoms, g1.atoms, ts, g0.support.point_ids)
        fiber_formulas.check_path(g0, g1, ts, path.atoms, stack_us)
        fibers = [bures_geodesic(g0.atoms[i], g1.atoms[i], ts) for i in range(g0.n)]
        fiber_us = [fiber_formulas.velocities(g0.atoms[i], g1.atoms[i], ts) for i in range(g0.n)]
        for k in range(len(ts)):
            points = np.stack([fp.points[k] for fp in fibers])
            assert np.abs(path.slices[k].atoms - points).max() <= 1e-12
        # The exact rank-1 -> rank-2 geodesic is singular at every t, so
        # neither that fiber nor any slice of the stack has a velocity.
        assert all(u is None for u in fiber_us[1])
        assert all(u is None for u in stack_us)
        # The zero start has none at t = 0 only; the definite pair has one everywhere.
        assert fiber_us[0][0] is None
        assert all(u is not None for us in fiber_us[::2] for u in us[1:])
        definite = MatrixMeasure(make_support(2), g0.atoms[::2]), MatrixMeasure(make_support(2), g1.atoms[::2])
        geo = bures_geodesic(definite[0].atoms, definite[1].atoms, ts)
        geo_us = fiber_formulas.velocities(definite[0].atoms, definite[1].atoms, ts)
        fiber_formulas.check_path(*definite, ts, geo.points, geo_us)
        for k in range(1, len(ts)):
            us = np.stack([fiber_u[k] for fiber_u in fiber_us[::2]])
            assert np.abs(geo_us[k] - us).max() <= 1e-12 * max(1.0, np.abs(us).max())

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d=st.integers(1, 3))
    def test_hellinger_is_four_times_fiber_sum(self, seed, n, d, fiber_formulas):
        gen = np.random.default_rng(seed)
        sup = make_support(n)
        # Atoms of every rank, the zero atom included.
        g0, g1 = (
            MatrixMeasure(sup, np.stack([random_psd(gen, d, rank=int(gen.integers(0, d + 1))) for _ in range(n)]))
            for _ in range(2)
        )
        dh_sq = hellinger_distance_sq(g0, g1)
        fiber_sum = sum(bures_distance_sq(g0.atoms[i], g1.atoms[i]) for i in range(n))
        assert dh_sq == pytest.approx(4.0 * fiber_sum, rel=1e-12, abs=1e-300)
        # Two routes to a small distance cancel in tr a0 + tr a1 - 2 F
        # differently, so they agree to round-off of the masses there.
        formula_sum = sum(fiber_formulas.bures_sq(g0.atoms[i], g1.atoms[i]) for i in range(n))
        assert dh_sq == pytest.approx(4.0 * formula_sum, rel=1e-12, abs=4e-13 * (mass(g0) + mass(g1)))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        data=st.data(),
        dip_exponent=st.floats(-9.5, 0.0),
    )
    def test_not_psd_names_the_atom(self, seed, n, d, data, dip_exponent):
        gen = np.random.default_rng(seed)
        sup = make_support(n)
        atoms = [np.stack([random_psd(gen, d) for _ in range(n)]) for _ in range(2)]
        which = data.draw(st.integers(0, 1), label="which")
        i = data.draw(st.integers(0, n - 1), label="atom")
        bad = atoms[which][i]
        atoms[which][i] = bad - (np.linalg.eigvalsh(bad)[0] + 10.0**dip_exponent) * np.eye(d)
        g0, g1 = (MatrixMeasure(sup, a) for a in atoms)
        label = f"'{sup.point_ids[i]}'"
        with pytest.raises(NotPSDError, match=label):
            hellinger_distance_sq(g0, g1)
        with pytest.raises(NotPSDError, match=label):
            hellinger_geodesic(g0, g1, [0.0, 0.5, 1.0])


class TestFisherRaoGeodesic:
    def test_constant(self, rng):
        g = random_probability_measure(rng, 2, 2)
        path = fisher_rao_geodesic(g, g, [0.0, 0.5, 1.0])
        assert path.meta["distance"] == 0.0
        assert np.array_equal(path.atoms, np.broadcast_to(g.atoms, path.atoms.shape))

    @pytest.mark.parametrize("geodesic", [fisher_rao_geodesic, hellinger_geodesic])
    @pytest.mark.parametrize("steps", [1, 16])
    def test_identical_endpoints_give_zero_distance_and_the_endpoint(self, steps, geodesic):
        # The measure of the seeded CLI check: the polar factor of its equal
        # roots is the identity only up to round-off, yet equal fibers are at
        # distance exactly 0.
        g0 = random_finite_entropy_measure(np.random.default_rng(7), 8, 3)
        assert fisher_rao_from_hellinger(hellinger_distance_sq(g0, g0)) == 0.0
        ts = np.linspace(0.0, 1.0, steps + 1)
        path = geodesic(g0, g0.with_atoms(g0.atoms.copy()), ts)
        assert np.array_equal(path.atoms, np.broadcast_to(g0.atoms, path.atoms.shape))
        assert path.meta["distance"] == 0.0

    @pytest.mark.parametrize("steps", [1, 16])
    def test_identical_stacks_have_zero_velocity_or_none(self, steps, fiber_formulas):
        g0 = random_finite_entropy_measure(np.random.default_rng(7), 8, 3)
        ts = np.linspace(0.0, 1.0, steps + 1)
        # Definite fibers: a zero velocity at every time.
        geo = bures_geodesic(g0.atoms, g0.atoms.copy(), ts, g0.support.point_ids)
        assert np.array_equal(geo.points, np.broadcast_to(g0.atoms, geo.points.shape))
        us = fiber_formulas.velocities(g0.atoms, g0.atoms.copy(), ts, g0.support.point_ids)
        assert len(us) == len(ts)
        assert all(u.shape == g0.atoms.shape and not u.any() for u in us)
        # A singular fiber admits no velocity at any time.
        singular = np.concatenate([g0.atoms[:-1], np.diag([0.5, 0.0, 0.0]).astype(complex)[None]])
        geo = bures_geodesic(singular, singular.copy(), ts, g0.support.point_ids)
        assert np.array_equal(geo.points, np.broadcast_to(singular, geo.points.shape))
        assert fiber_formulas.velocities(singular, singular.copy(), ts, g0.support.point_ids) == (None,) * len(ts)

    def test_pair_one_ulp_apart_ends_exactly_at_both_endpoints(self):
        # d_FR is about 7e-16: any positive distance takes the chord, not the constant path.
        g0 = random_finite_entropy_measure(np.random.default_rng(2029), 8, 3)
        atoms = g0.atoms.copy()
        atoms[2, 1, 1] = np.nextafter(atoms[2, 1, 1].real, 1.0)
        g1 = g0.with_atoms(atoms)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 17))
        assert 0.0 < path.meta["distance"] < 1e-15
        assert np.array_equal(path.atoms[0], g0.atoms) and np.array_equal(path.atoms[-1], g1.atoms)
        # The interior slices are normalized; the ends carry the endpoints' own masses.
        assert np.array_equal(mass(path)[1:-1], np.ones(15))

    def test_antipodal_pair_has_a_constant_speed_geodesic(self):
        # Orthogonal qubit fibers sit at the diameter pi. The cone angle is
        # pi / 2, so the chord's midpoint is I / 4, of mass 1/2, not the apex:
        # the geodesic is the great circle diag(cos^2, sin^2)(t pi / 2).
        sup = Support(("x",))
        g0 = MatrixMeasure(sup, np.diag([1.0, 0.0]).astype(complex)[None])
        g1 = MatrixMeasure(sup, np.diag([0.0, 1.0]).astype(complex)[None])
        ts = np.linspace(0.0, 1.0, 5)
        path = fisher_rao_geodesic(g0, g1, ts)
        assert path.meta["distance"] == fisher_rao_distance(g0, g1) == pytest.approx(np.pi, abs=1e-15)
        circle = np.stack([np.cos(ts * np.pi / 2) ** 2, np.sin(ts * np.pi / 2) ** 2], axis=-1)
        assert np.abs(path.atoms[:, 0] - np.apply_along_axis(np.diag, 1, circle)).max() <= 1e-15
        steps = [fisher_rao_distance(a, b) for a, b in zip(path.slices[:-1], path.slices[1:])]
        assert np.allclose(steps, np.pi / 4, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        ("family", "d"), [("proportional", 1), ("proportional", 2), ("proportional", 3), ("orthogonal", 2), ("orthogonal", 3)]
    )
    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0])
    def test_constant_speed_at_and_near_the_diameter(self, family, d, gap):
        # Seeded pairs on three points with fidelity sum c = sin(gap / 2), so
        # d_FR = 2 arccos(c) = pi - gap, and c^2 + s^2 = 1.
        # "proportional": G1 is c^2 G0 on G0's two points and s^2 Z on the third.
        # "orthogonal": rank-one fibers y y* and (c y + s z)(c y + s z)*, z orthogonal to y.
        rng = np.random.default_rng(2027 + d)
        c = np.sin(gap / 2.0)
        s = np.sqrt(1.0 - c * c)
        if family == "proportional":
            a = random_finite_entropy_measure(rng, 3, d).atoms
            a0, z = a.copy(), np.zeros_like(a)
            a0[2], z[2] = 0.0, a[2] / mass(a[2:])
            a1 = c * c * a0 / mass(a0) + s * s * z
            a0 = a0 / mass(a0)
        else:
            q = np.linalg.qr(rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)))[0]
            root_p = np.sqrt(rng.dirichlet(np.ones(3)))[:, None, None]
            a0, a1 = (f @ np.conj(np.swapaxes(f, -1, -2)) for f in (root_p * q[..., :1], root_p * (c * q[..., :1] + s * q[..., 1:2])))
        g0, g1 = MatrixMeasure(make_support(3), a0), MatrixMeasure(make_support(3), a1)
        ts = np.linspace(0.0, 1.0, 9)
        path = fisher_rao_geodesic(g0, g1, ts)
        dfr = path.meta["distance"]
        assert abs(np.pi - dfr - gap) <= 1e-14
        # Near the diameter the orthogonal family's M = r1 r0 is about c times
        # its factors, so its polar factor is fixed only to eps / c. The slices
        # then carry eigenvalues of round-off origin near the rank floor, and
        # cutting them moved distances by up to 3.4e-12 over 10 seeds at gap
        # 1e-10, through the closed form (d = 2) and the SVD (d = 3) alike.
        tol = 1e-13 if family == "proportional" else 1e-11
        for i, j in zip(*np.triu_indices(len(ts), 1)):
            assert abs(fisher_rao_distance(path.slices[i], path.slices[j]) - (ts[j] - ts[i]) * dfr) <= tol

    def test_midpoint_bisects(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            g0 = random_probability_measure(rng, n, d, definite=True, support=sup)
            g1 = random_probability_measure(rng, n, d, definite=True, support=sup)
            dfr = fisher_rao_distance(g0, g1)
            mid = fisher_rao_geodesic(g0, g1, [0.0, 0.5, 1.0]).slices[1]
            assert fisher_rao_distance(g0, mid) == pytest.approx(dfr / 2, rel=1e-5)
            assert fisher_rao_distance(mid, g1) == pytest.approx(dfr / 2, rel=1e-5)

    def test_slices_on_sphere_and_psd(self, rng):
        sup = make_support(3)
        g0 = random_probability_measure(rng, 3, 2, support=sup)
        g1 = random_probability_measure(rng, 3, 2, support=sup)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        for s in path.slices:
            assert abs(mass(s) - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(s.atoms).min() >= -1e-10

    def test_slices_are_normalized_hellinger_chord_slices(self, mixed_mode_pair):
        # Zero, rank-deficient and definite starts: the sphere slices are
        # exactly the Hellinger geodesic's chord slices scaled back to unit mass.
        g0, g1 = (g.with_atoms(g.atoms / mass(g)) for g in mixed_mode_pair)
        ts = np.linspace(0.0, 1.0, 9)
        path = fisher_rao_geodesic(g0, g1, ts)
        assert path.meta["distance"] == fisher_rao_distance(g0, g1)
        phi = path.meta["distance"] / 2.0
        chord = hellinger_geodesic(g0, g1, np.sin(ts * phi) / (np.sin(ts * phi) + np.sin(phi - ts * phi)))
        assert np.array_equal(path.atoms[0], g0.atoms) and np.array_equal(path.atoms[-1], g1.atoms)
        for s, g in zip(path.slices[1:-1], chord.slices[1:-1]):
            assert np.array_equal(s.atoms, g.atoms / mass(g))

    def test_segment_lengths_equal_at_large_support(self, rng):
        # n = 64, d = 4: the 16 segment lengths each match d_FR / 16 to
        # round-off in the distance itself.
        sup = make_support(64)
        g0 = random_probability_measure(rng, 64, 4, support=sup)
        g1 = random_probability_measure(rng, 64, 4, support=sup)
        dfr = fisher_rao_distance(g0, g1)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 17))
        lengths = np.array([fisher_rao_distance(a, b) for a, b in zip(path.slices, path.slices[1:])])
        assert np.abs(lengths - dfr / 16).max() <= 1e-13 * dfr / 16

    def test_constant_speed_between_all_samples(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        dfr = fisher_rao_distance(g0, g1)
        ts = np.linspace(0.0, 1.0, 7)
        path = fisher_rao_geodesic(g0, g1, ts)
        for i in range(7):
            for j in range(i + 1, 7):
                d = fisher_rao_distance(path.slices[i], path.slices[j])
                assert d == pytest.approx((ts[j] - ts[i]) * dfr, rel=1e-5, abs=1e-9)


class TestMetricSpeed:
    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_one_slice_has_no_speed(self, rng, metric):
        g = random_probability_measure(rng, 2, 2)
        path = MeasurePath(np.array([0.5]), g.support, g.atoms[None])
        with pytest.raises(FRGeoError, match="need at least two slices for a speed"):
            metric_speed(path, metric)

    def test_constant_path_zero(self, rng):
        g = random_probability_measure(rng, 2, 2)
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), g.support, np.stack([g.atoms] * 3))
        assert np.array_equal(metric_speed(path, "fisher_rao"), np.zeros(3))

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_equal_consecutive_slices_have_exactly_zero_speed(self, rng, metric):
        sup = make_support(3)
        g0, g1 = (random_probability_measure(rng, 3, 2, support=sup) for _ in range(2))
        path = MeasurePath(np.linspace(0.0, 1.0, 4), sup, np.stack([g0.atoms] * 3 + [g1.atoms]))
        speeds = metric_speed(path, metric)
        assert speeds[0] == speeds[1] == 0.0 and np.all(speeds[2:] > 0.0)

    def test_geodesic_speed_constant(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        dfr = fisher_rao_distance(g0, g1)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 17))
        speeds = metric_speed(path, "fisher_rao")
        assert np.max(np.abs(speeds - dfr)) <= 0.02 * dfr

    def test_kinetic_speed_matches_fd(self, rng, fiber_formulas):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 2, definite=True, support=sup)
        g1 = random_measure(rng, 2, 2, definite=True, support=sup)
        ts = np.linspace(0, 1, 33)
        fd = metric_speed(hellinger_geodesic(g0, g1, ts), "hellinger")
        kin = kinetic_speeds(fiber_formulas, g0.atoms, g1.atoms, ts, sup.point_ids)
        ok = ~np.isnan(kin)
        assert ok.all()
        assert np.max(np.abs(fd[ok] - kin[ok])) <= 0.05 * max(np.max(kin), 1e-12)

    def test_kinetic_speed_is_nan_where_no_velocity_is_attached(self, rng, fiber_formulas):
        # From the zero measure the stack is singular at t = 0 only.
        g1 = random_measure(rng, 2, 2, definite=True)
        kin = kinetic_speeds(fiber_formulas, zero_like(g1).atoms, g1.atoms, np.linspace(0.0, 1.0, 5))
        assert np.isnan(kin[0]) and np.all(np.isfinite(kin[1:]))

    def test_kinetic_speed_is_the_hellinger_distance(self, rng, fiber_formulas):
        # A geodesic moves at its distance, so the kinetic speed is d_H at every time.
        sup = make_support(3)
        g0, g1 = (random_measure(rng, 3, 2, definite=True, support=sup) for _ in range(2))
        kin = kinetic_speeds(fiber_formulas, g0.atoms, g1.atoms, np.linspace(0.0, 1.0, 9), sup.point_ids)
        assert np.abs(kin - np.sqrt(hellinger_distance_sq(g0, g1))).max() <= 1e-12 * kin.max()

    def test_kinetic_speed_of_one_fiber_is_twice_its_bures_distance(self, rng, fiber_formulas):
        a0, a1 = random_psd(rng, 3), random_psd(rng, 3)
        kin = kinetic_speeds(fiber_formulas, a0, a1, np.linspace(0.0, 1.0, 9))
        assert kin.shape == (9,)
        assert np.abs(kin - 2.0 * np.sqrt(bures_distance_sq(a0, a1))).max() <= 1e-12 * kin.max()

    def test_heat_flow_initial_speed_is_gradient_norm(self, rng):
        # Gradient-flow property: the initial metric speed of the flow is
        # the gradient norm, i.e. the square root of the Fisher information.
        from frgeo.entropy_flow import fisher_information, heat_flow
        from frgeo.measures import uniform_reference

        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        g = random_probability_measure(rng, 2, 2, definite=True, support=sup)
        f = fisher_information(g, lam)
        dt = 1e-4
        times = np.array([0.0, dt, 2 * dt])
        path = MeasurePath(times, sup, np.stack([heat_flow(g, lam, float(t)).atoms for t in times]))
        speed0 = metric_speed(path, "fisher_rao")[0]
        assert np.isfinite(speed0)
        assert speed0 == pytest.approx(np.sqrt(f), rel=1e-3)


class TestGeodesicsMoveAtConstantSpeed:
    """A Hellinger or Fisher-Rao geodesic moves at its distance at every time,
    so sampled at any grid it is already its own constant-speed, minimal-energy
    parametrization."""

    GEODESICS = {"hellinger": hellinger_geodesic, "fisher_rao": fisher_rao_geodesic}

    @staticmethod
    def _distance(g0, g1, metric):
        if metric == "hellinger":
            return np.sqrt(hellinger_distance_sq(g0, g1))
        return fisher_rao_distance(g0, g1)

    def _pair(self, rng):
        sup = make_support(3)
        return tuple(random_probability_measure(rng, 3, 2, support=sup) for _ in range(2))

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_speed_on_an_uneven_grid_is_the_distance(self, rng, metric):
        g0, g1 = self._pair(rng)
        ts = np.sort(np.r_[0.0, rng.uniform(0.0, 1.0, 11), 1.0])
        path = self.GEODESICS[metric](g0, g1, ts)
        dist = self._distance(g0, g1, metric)
        assert np.abs(metric_speed(path, metric) - dist).max() <= 1e-9 * dist

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_quadratic_warp_reads_its_time_derivative(self, rng, metric):
        # The geodesic at s = t^2 on a uniform t grid: central differences of
        # t^2 are exact, so the speeds are 2 t D inside, h D and (2 - h) D at the ends.
        g0, g1 = self._pair(rng)
        ts = np.linspace(0.0, 1.0, 17)
        h = ts[1]
        inner = self.GEODESICS[metric](g0, g1, ts**2)
        path = MeasurePath(ts, inner.support, inner.atoms)
        dist = self._distance(g0, g1, metric)
        want = np.r_[h, 2.0 * ts[1:-1], 2.0 - h] * dist
        assert np.abs(metric_speed(path, metric) - want).max() <= 1e-9 * dist

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_two_slices_move_at_their_distance(self, rng, metric):
        g0, g1 = self._pair(rng)
        path = MeasurePath(np.array([0.0, 1.0]), g0.support, np.stack([g0.atoms, g1.atoms]))
        speeds = metric_speed(path, metric)
        assert speeds.shape == (2,) and speeds[0] == speeds[1]
        assert speeds[0] == pytest.approx(self._distance(g0, g1, metric), rel=1e-12)

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_segments_have_the_length_and_energy_of_the_distance(self, rng, metric):
        # Sum d_k = D (the geodesic is minimizing) and sum d_k^2 / dt_k = D^2
        # (Cauchy-Schwarz holds with equality only at constant speed).
        g0, g1 = self._pair(rng)
        ts = np.linspace(0.0, 1.0, 13) ** 3
        path = self.GEODESICS[metric](g0, g1, ts)
        lengths = np.array([self._distance(a, b, metric) for a, b in zip(path.slices, path.slices[1:])])
        dist = self._distance(g0, g1, metric)
        assert lengths.sum() == pytest.approx(dist, rel=1e-10)
        assert (lengths**2 / np.diff(ts)).sum() == pytest.approx(dist**2, rel=1e-9)


def _oracle_speeds(path, metric):
    """Finite-difference speeds of a path from ``bures_distance_sq`` on the
    start and end stacks of its slice pairs."""
    m = path.n_slices
    lo = np.r_[0, np.arange(m - 2), m - 2]
    hi = np.r_[1, np.arange(2, m), m - 1]
    dh_sq = 4.0 * bures_distance_sq(path.atoms[lo], path.atoms[hi], path.support.point_ids).sum(axis=-1)
    dist = np.sqrt(dh_sq) if metric == "hellinger" else fisher_rao_from_hellinger(dh_sq)
    return dist / (path.times[hi] - path.times[lo])


class TestOneDecompositionPerSlice:
    """Speeds decompose every slice once; they match the pairwise
    ``bures_distance_sq`` route on stacks bit for bit."""

    def _paths(self, rng):
        sup = make_support(4)
        g0 = random_probability_measure(rng, 4, 3, definite=True, support=sup)
        g1 = random_probability_measure(rng, 4, 3, definite=True, support=sup)
        deficient = [random_psd(rng, 3, rank=r) for r in (1, 2, 1, 2)]
        gs = MatrixMeasure(sup, np.stack(deficient) / sum(np.trace(a).real for a in deficient))
        definite = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 9))
        # Rank-deficient atoms in the first slice; and every other slice with
        # atoms whose null eigenvalues sit 1e-12 below zero, clamped (they
        # are above the -1e-10 floor) both where they start and end a pair.
        from_singular = fisher_rao_geodesic(gs, g1, np.linspace(0.0, 1.0, 7))
        dipped = gs.with_atoms(gs.atoms - 1e-12 * np.eye(3))
        assert np.linalg.eigvalsh(dipped.atoms)[:, 0].max() < -9e-13
        atoms = np.stack([dipped.atoms if k % 2 else a for k, a in enumerate(definite.atoms)])
        clamped = MeasurePath(definite.times, sup, atoms)
        return {"definite": definite, "from_singular": from_singular, "clamped": clamped}

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_speeds_match_pairwise_oracle(self, rng, metric):
        for name, path in self._paths(rng).items():
            assert np.array_equal(metric_speed(path, metric), _oracle_speeds(path, metric)), name

    def test_rank_deficient_end_slices_agree_to_roundoff(self, rng):
        sup = make_support(4)
        for _ in range(20):
            gs = MatrixMeasure(sup, np.stack([random_psd(rng, 3, rank=int(rng.integers(1, 3))) for _ in range(4)]))
            g1 = random_measure(rng, 4, 3, definite=True, support=sup)
            path = hellinger_geodesic(g1, gs, np.linspace(0.0, 1.0, 5))
            assert np.array_equal(metric_speed(path, "hellinger"), _oracle_speeds(path, "hellinger"))

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_slice_below_floor_names_its_point(self, rng, k):
        sup = make_support(3)
        g0 = random_measure(rng, 3, 2, definite=True, support=sup)
        g1 = random_measure(rng, 3, 2, definite=True, support=sup)
        path = hellinger_geodesic(g0, g1, np.linspace(0.0, 1.0, 5))
        atoms = path.atoms.copy()
        atoms[k, 1] -= (np.linalg.eigvalsh(atoms[k, 1])[0] + 1e-6) * np.eye(2)
        bad = MeasurePath(path.times, sup, atoms)
        with pytest.raises(NotPSDError, match="'p2'"):
            metric_speed(bad, "hellinger")

    @staticmethod
    def _count_decompositions(monkeypatch):
        """Record ``(name, shape)`` of every ``eigh``, ``eigvalsh`` and ``svd`` call from here on."""
        calls = []

        def counted(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapped

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        return calls

    def test_one_eigh_and_one_svd_per_speed(self, rng, monkeypatch):
        path = self._paths(rng)["definite"]
        calls = self._count_decompositions(monkeypatch)
        metric_speed(path, "fisher_rao")
        assert calls == [("eigh", (9, 4, 3, 3)), ("svd", (9, 4, 3, 3))]

    def test_unknown_metric_is_refused_before_any_decomposition(self, rng, monkeypatch):
        path = self._paths(rng)["definite"]
        calls = self._count_decompositions(monkeypatch)
        with pytest.raises(ValueError, match="unknown metric 'bures'"):
            metric_speed(path, "bures")
        assert calls == []


class TestTvComparison:
    def test_identical(self, rng):
        g = random_measure(rng, 2, 2)
        lower, mid, upper = tv_comparison_check(g, g)
        assert lower == pytest.approx(0.0, abs=1e-10)
        assert mid == 0.0
        assert upper == pytest.approx(0.0, abs=1e-10)

    def test_against_zero(self, rng):
        g = random_measure(rng, 3, 2)
        lower, mid, upper = tv_comparison_check(g, zero_like(g))
        m = mass(g)
        assert lower == pytest.approx(m / np.sqrt(2), rel=1e-9)
        assert mid == pytest.approx(np.linalg.norm(g.atoms, axis=(1, 2)).sum(), rel=1e-12)
        assert upper == pytest.approx(2.0 * m, rel=1e-9)
        assert lower <= mid <= upper

    def test_chain_on_random_pairs(self, rng):
        for _ in range(200):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            sup = make_support(n)
            g0 = random_measure(rng, n, d, support=sup)
            g1 = random_measure(rng, n, d, support=sup)
            lower, mid, upper = tv_comparison_check(g0, g1)
            assert lower <= mid + 1e-9
            assert mid <= upper + 1e-9


class TestMeasurePathValidation:
    def test_times_must_increase(self, rng):
        g = random_probability_measure(rng, 1, 2)
        with pytest.raises(FRGeoError):
            MeasurePath(np.array([0.0, 0.5, 0.5]), g.support, np.stack([g.atoms] * 3))

    def test_times_within_unit_interval(self, rng):
        g = random_probability_measure(rng, 1, 2)
        with pytest.raises(FRGeoError):
            MeasurePath(np.array([0.0, 1.5]), g.support, np.stack([g.atoms] * 2))

    def test_nan_time_rejected(self, rng):
        g = random_probability_measure(rng, 1, 2)
        with pytest.raises(FRGeoError, match=r"times must be strictly increasing, got \[0.0, nan, 1.0\]"):
            MeasurePath(np.array([0.0, np.nan, 1.0]), g.support, np.stack([g.atoms] * 3))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3), (1, 3, 2, 2, 2)])
    def test_atoms_must_be_one_stack_per_time(self, shape):
        with pytest.raises(FRGeoError, match=r"atoms must have shape \(3, 2, d, d\)"):
            MeasurePath(np.linspace(0.0, 1.0, 3), make_support(2), np.zeros(shape))

    def test_atom_count_must_match_the_support(self, rng):
        g = random_probability_measure(rng, 3, 2)
        with pytest.raises(FRGeoError, match=r"shape \(2, 4, d, d\), got \(2, 3, 2, 2\)"):
            MeasurePath(np.array([0.0, 1.0]), make_support(4), np.stack([g.atoms] * 2))

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    def test_non_hermitian_or_non_finite_atom_names_its_point(self, rng, bad):
        g = random_probability_measure(rng, 3, 2)
        atoms = np.stack([g.atoms] * 3)
        atoms[1, 2, 0, 1] += bad
        with pytest.raises(NotHermitianError, match="'p3'"):
            MeasurePath(np.linspace(0.0, 1.0, 3), g.support, atoms)

    def test_stack_is_hermitized_once_and_slices_view_it(self, rng):
        g0, g1 = (random_probability_measure(rng, 3, 2, support=make_support(3)) for _ in range(2))
        atoms = np.stack([g0.atoms, g1.atoms])
        atoms[:, :, 0, 1] += 1e-12j  # within the Hermitian tolerance
        path = MeasurePath(np.array([0.0, 1.0]), g0.support, atoms)
        assert np.array_equal(path.atoms, (atoms + np.conj(np.swapaxes(atoms, -1, -2))) / 2.0)
        assert path.dim == 2 and path.n_slices == 2
        assert all(s.support == g0.support for s in path.slices)
        for k, s in enumerate(path.slices):
            assert np.array_equal(s.atoms, path.atoms[k])

    @pytest.mark.parametrize("geodesic", [fisher_rao_geodesic, hellinger_geodesic])
    def test_slices_match_the_stack_bit_for_bit(self, rng, geodesic):
        sup = make_support(3)
        g0, g1 = (random_probability_measure(rng, 3, 2, support=sup) for _ in range(2))
        path = geodesic(g0, g1, np.linspace(0.0, 1.0, 6))
        for k, s in enumerate(path.slices):
            assert np.array_equal(s.atoms, path.atoms[k])

    @pytest.mark.parametrize("ts", [np.linspace(0.0, 1.0, 5), [0.0, 1.0], [0.5]])
    def test_zero_distance_geodesic_is_its_endpoint_exactly(self, rng, ts):
        g = random_probability_measure(rng, 3, 2)
        path = fisher_rao_geodesic(g, g.with_atoms(g.atoms.copy()), ts)
        assert path.meta["distance"] == 0.0
        for s in path.slices:
            assert np.array_equal(s.atoms, g.atoms)

    @pytest.mark.parametrize(
        "points",
        [
            lambda g0, g1, ts: fisher_rao_geodesic(g0, g1, ts).atoms,
            lambda g0, g1, ts: hellinger_geodesic(g0, g1, ts).atoms,
            lambda g0, g1, ts: bures_geodesic(g0.atoms, g1.atoms, ts).points,
        ],
        ids=["fisher_rao", "hellinger", "bures"],
    )
    def test_empty_times_give_empty_paths(self, rng, points):
        sup = make_support(3)
        g0, g1 = (random_probability_measure(rng, 3, 2, support=sup) for _ in range(2))
        assert points(g0, g1, []).shape == (0, 3, 2, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("geodesic", [fisher_rao_geodesic, hellinger_geodesic])
    @pytest.mark.parametrize("ts", [[0.0, np.nan, 1.0], [np.nan], [0.5, np.inf]])
    def test_geodesics_check_times_first(self, rng, geodesic, ts):
        # The time check runs before any arithmetic, so no warning precedes it.
        sup = make_support(2)
        g0, g1 = (random_probability_measure(rng, 2, 2, support=sup) for _ in range(2))
        with pytest.raises(FRGeoError, match="times must"):
            geodesic(g0, g1, ts)

    def test_metric_axioms(self, rng):
        # Symmetry / triangle / indiscernibility for both path metrics.
        for _ in range(50):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            g0 = random_probability_measure(rng, n, d, support=sup)
            g1 = random_probability_measure(rng, n, d, support=sup)
            g2 = random_probability_measure(rng, n, d, support=sup)
            dh = lambda a, b: np.sqrt(hellinger_distance_sq(a, b))
            assert dh(g0, g1) == pytest.approx(dh(g1, g0), abs=1e-12)
            assert fisher_rao_distance(g0, g1) == pytest.approx(fisher_rao_distance(g1, g0), abs=1e-12)
            assert dh(g0, g2) <= dh(g0, g1) + dh(g1, g2) + 1e-8
            d01 = fisher_rao_distance(g0, g1)
            assert fisher_rao_distance(g0, g2) <= d01 + fisher_rao_distance(g1, g2) + 1e-8
            # Lipschitz comparison of the two sphere metrics.
            assert dh(g0, g1) <= d01 + 1e-9
            assert d01 <= np.pi / 2 * dh(g0, g1) + 1e-9

    def test_identity_of_indiscernibles(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        assert fisher_rao_distance(g0, g0) == 0.0
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        if tv_distance(g0, g1) > 1e-6:
            assert fisher_rao_distance(g0, g1) > 0.0
