import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgeo import bures
from frgeo.bures import bures_distance_sq, bures_geodesic
from frgeo.exceptions import (
    AntipodalError,
    FRGeoError,
    NotProbabilityError,
    NotPSDError,
    SupportMismatchError,
    ZeroLengthError,
)
from frgeo.fisher_rao import (
    MeasurePath,
    _chord_parameter,
    cone_scaling_check,
    constant_speed_reparametrize,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
    hellinger_geodesic_points,
    mass_interpolation_values,
    metric_speed,
    path_masses,
    tv_comparison_check,
    velocity_speed,
)
from frgeo.measures import (
    MatrixMeasure,
    Support,
    make_support,
    mass,
    scale_measure,
    tv_distance,
    tv_norm,
)
from frgeo.testing import (
    random_density,
    random_measure,
    random_probability_measure,
    random_psd,
)


def zero_like(g):
    return g.with_atoms(np.zeros_like(g.atoms))


class TestHellingerDistance:
    def test_identical(self, rng):
        g = random_measure(rng, 3, 2)
        assert hellinger_distance_sq(g, g) == pytest.approx(0.0, abs=1e-10)

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
        assert fisher_rao_distance(g, g) == pytest.approx(0.0, abs=1e-7)

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
        for s in path.slices:
            assert tv_distance(s, g) <= 1e-9

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
            masses = path_masses(hellinger_geodesic(g0, g1, ts))
            assert np.all(masses >= 1.0 - 2.0 * ts * (1.0 - ts) - 1e-9)

    def test_mass_interpolation_exact(self, rng):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 3, support=sup)
        g1 = random_measure(rng, 2, 3, support=sup)
        ts = np.linspace(0.0, 1.0, 11)
        masses = path_masses(hellinger_geodesic(g0, g1, ts))
        expected = mass_interpolation_values(g0, g1, ts)
        assert np.max(np.abs(masses - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        d=st.integers(1, 4),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_rank_deficient_starts_exact_at_every_scale(self, seed, n, d, log_scale):
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
        masses = path_masses(path)
        expected = mass_interpolation_values(g0, g1, ts)
        assert np.abs(masses - expected).max() <= 2e-14 * (mass(g0) + mass(g1))

    def test_ode_residual_recorded_and_small(self, rng):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 2, definite=True, support=sup)
        g1 = random_measure(rng, 2, 2, definite=True, support=sup)
        path = hellinger_geodesic(g0, g1, np.linspace(0, 1, 65))
        assert path.velocities is not None
        assert "ode_residual" in path.meta
        # Left-endpoint forward differences of a smooth path: O(dt).
        assert path.meta["ode_residual"] <= 0.5 * np.sqrt(hellinger_distance_sq(g0, g1))


class TestStackedAgainstFibers:
    """The measure-level functions run one stack call over all atoms; these
    pin them to the per-fiber functions and to closed forms built from numpy
    primitives."""

    def test_mixed_mode_hellinger_geodesic(self, mixed_mode_pair, fiber_formulas):
        g0, g1 = mixed_mode_pair
        ts = np.linspace(0.0, 1.0, 6)
        path = hellinger_geodesic(g0, g1, ts)
        fiber_formulas.check_path(g0, g1, ts, [g.atoms for g in path.slices], path.velocities)
        fibers = [bures_geodesic(g0.atoms[i], g1.atoms[i], ts) for i in range(g0.n)]
        for k in range(len(ts)):
            points = np.stack([fp.points[k] for fp in fibers])
            assert np.abs(path.slices[k].atoms - points).max() <= 1e-12
        # The exact rank-1 -> rank-2 geodesic is singular at every t, so
        # neither that fiber nor any slice of the path has a velocity.
        assert all(u is None for u in fibers[1].velocities)
        assert all(u is None for u in path.velocities)
        # The zero start has none at t = 0 only; the definite pair has one everywhere.
        assert fibers[0].velocities[0] is None
        assert all(u is not None for fp in fibers[::2] for u in fp.velocities[1:])
        definite = MatrixMeasure(make_support(2), g0.atoms[::2]), MatrixMeasure(make_support(2), g1.atoms[::2])
        geo = bures.bures_geodesic_stack(definite[0].atoms, definite[1].atoms, ts)
        fiber_formulas.check_path(*definite, ts, geo.points, geo.velocities)
        for k in range(1, len(ts)):
            us = np.stack([fp.velocities[k] for fp in fibers[::2]])
            assert np.abs(geo.velocities[k] - us).max() <= 1e-12 * max(1.0, np.abs(us).max())

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
        for s in path.slices:
            assert tv_distance(s, g) <= 1e-12

    def test_antipodal_raises(self):
        sup = Support(("x",))
        g0 = MatrixMeasure(sup, np.diag([1.0, 0.0]).astype(complex)[None])
        g1 = MatrixMeasure(sup, np.diag([0.0, 1.0]).astype(complex)[None])
        assert fisher_rao_distance(g0, g1) == pytest.approx(np.pi)
        with pytest.raises(AntipodalError):
            fisher_rao_geodesic(g0, g1, [0.0, 0.5, 1.0])

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
        chord = hellinger_geodesic(g0, g1, [_chord_parameter(t, phi) for t in ts])
        assert path.velocities is None
        assert path.slices[0] is g0 and path.slices[-1] is g1
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


class TestConstantSpeedReparametrize:
    def _warped_geodesic(self, rng, metric):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, definite=True, support=sup)
        g1 = random_probability_measure(rng, 2, 2, definite=True, support=sup)
        warped = np.linspace(0.0, 1.0, 17) ** 2
        warped[0], warped[-1] = 0.0, 1.0
        if metric == "hellinger":
            inner = hellinger_geodesic(g0, g1, warped)
        else:
            inner = fisher_rao_geodesic(g0, g1, warped)
        return MeasurePath(np.linspace(0, 1, 17), inner.slices)

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_quadratic_warp_equalizes(self, rng, metric):
        path = self._warped_geodesic(rng, metric)
        out = constant_speed_reparametrize(path, metric)
        speeds = metric_speed(out, metric)

        def consecutive(p):
            if metric == "hellinger":
                return [
                    np.sqrt(hellinger_distance_sq(p.slices[k], p.slices[k + 1]))
                    for k in range(p.n_slices - 1)
                ]
            return [
                fisher_rao_distance(p.slices[k], p.slices[k + 1])
                for k in range(p.n_slices - 1)
            ]

        before = consecutive(path)
        after = consecutive(out)
        spread = (max(after) - min(after)) / max(np.mean(after), 1e-300)
        assert spread <= 0.01
        assert sum(after) == pytest.approx(sum(before), rel=1e-6)
        n = len(after)
        energy_before = sum(x * x for x in before) * n
        energy_after = sum(x * x for x in after) * n
        assert energy_after <= energy_before + 1e-12

    def test_already_constant_unchanged(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        out = constant_speed_reparametrize(path, "fisher_rao")
        worst = max(tv_distance(a, b) for a, b in zip(path.slices, out.slices))
        assert worst <= 1e-6

    def test_two_slice_unchanged(self, rng):
        sup = make_support(1)
        g0 = random_probability_measure(rng, 1, 2, support=sup)
        g1 = random_probability_measure(rng, 1, 2, support=sup)
        path = MeasurePath(np.array([0.0, 1.0]), (g0, g1))
        assert constant_speed_reparametrize(path, "hellinger") is path

    def test_zero_length(self, rng):
        g = random_probability_measure(rng, 2, 2)
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), (g, g, g))
        with pytest.raises(ZeroLengthError):
            constant_speed_reparametrize(path, "hellinger")

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_one_geodesic_per_segment_with_targets(self, rng, monkeypatch, metric):
        # The arc lengths take one eigh of all slices and one SVD of all
        # segments. Each segment holding arc-length targets then makes one
        # geodesic call for all of them: one eigh for the roots of its two
        # ends and one SVD, with no velocity step. The batch gives the slices of
        # single-target calls bit for bit.
        from frgeo import fisher_rao

        path = self._warped_geodesic(rng, metric)
        geodesic = hellinger_geodesic if metric == "hellinger" else fisher_rao_geodesic
        lengths = fisher_rao._index_distances(path.slices, np.arange(16), np.arange(1, 17), metric)
        cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
        targets = lengths.sum() * np.arange(1, 16) / 16
        segments = np.searchsorted(cumulative, targets, side="right") - 1
        thetas = (targets - cumulative[segments]) / lengths[segments]
        assert len(set(segments.tolist())) < len(targets)
        want = [geodesic(path.slices[j], path.slices[j + 1], [t]).slices[0] for j, t in zip(segments, thetas)]

        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        out = constant_speed_reparametrize(path, metric)
        per_segment = [("eigh", (2, 2, 2, 2)), ("svd", (2, 2, 2))]
        assert calls == [("eigh", (17, 2, 2, 2)), ("svd", (16, 2, 2, 2))] + per_segment * len(set(segments.tolist()))
        for a, b in zip(out.slices[1:-1], want):
            assert np.array_equal(a.atoms, b.atoms)


class TestMetricSpeed:
    def test_constant_path_zero(self, rng):
        g = random_probability_measure(rng, 2, 2)
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), (g, g, g))
        assert np.allclose(metric_speed(path, "fisher_rao"), 0.0, atol=1e-7)

    def test_geodesic_speed_constant(self, rng):
        sup = make_support(2)
        g0 = random_probability_measure(rng, 2, 2, support=sup)
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        dfr = fisher_rao_distance(g0, g1)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 17))
        speeds = metric_speed(path, "fisher_rao")
        assert np.max(np.abs(speeds - dfr)) <= 0.02 * dfr

    def test_velocity_speed_matches_fd(self, rng):
        sup = make_support(2)
        g0 = random_measure(rng, 2, 2, definite=True, support=sup)
        g1 = random_measure(rng, 2, 2, definite=True, support=sup)
        path = hellinger_geodesic(g0, g1, np.linspace(0, 1, 33))
        fd = metric_speed(path, "hellinger")
        kin = velocity_speed(path)
        assert kin is not None
        ok = ~np.isnan(kin)
        assert ok.all()
        assert np.max(np.abs(fd[ok] - kin[ok])) <= 0.05 * max(np.max(kin), 1e-12)

    def test_no_velocities_returns_none(self, rng):
        g = random_probability_measure(rng, 2, 2)
        path = MeasurePath(np.array([0.0, 1.0]), (g, g))
        assert velocity_speed(path) is None

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
        path = MeasurePath(times, tuple(heat_flow(g, lam, float(t)) for t in times))
        speed0 = metric_speed(path, "fisher_rao")[0]
        assert np.isfinite(speed0)
        assert speed0 == pytest.approx(np.sqrt(f), rel=1e-3)


def _oracle_distances(slices, lo, hi, metric):
    """Distances between the slice pairs ``(lo[k], hi[k])`` from
    ``bures_distance_sq_stack`` on the start and end stacks."""
    stack = np.stack([g.atoms for g in slices])
    dh_sq = 4.0 * bures.bures_distance_sq_stack(stack[lo], stack[hi], slices[0].support.point_ids).sum(axis=-1)
    return np.sqrt(dh_sq) if metric == "hellinger" else fisher_rao_from_hellinger(dh_sq)


def _oracle_speeds(path, metric):
    m = path.n_slices
    lo = np.r_[0, np.arange(m - 2), m - 2]
    hi = np.r_[1, np.arange(2, m), m - 1]
    return _oracle_distances(path.slices, lo, hi, metric) / (path.times[hi] - path.times[lo])


class TestOneDecompositionPerSlice:
    """Speeds and arc lengths decompose every slice once; they match the
    pairwise ``bures_distance_sq_stack`` route bit for bit."""

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
        slices = [dipped if k % 2 else g for k, g in enumerate(definite.slices)]
        clamped = MeasurePath(definite.times, slices)
        return {"definite": definite, "from_singular": from_singular, "clamped": clamped}

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_speeds_match_pairwise_oracle(self, rng, metric):
        for name, path in self._paths(rng).items():
            assert np.array_equal(metric_speed(path, metric), _oracle_speeds(path, metric)), name

    @pytest.mark.parametrize("metric", ["hellinger", "fisher_rao"])
    def test_reparametrized_paths_match_pairwise_oracle(self, rng, monkeypatch, metric):
        from frgeo import fisher_rao

        paths = self._paths(rng)
        got = {name: constant_speed_reparametrize(path, metric) for name, path in paths.items()}
        monkeypatch.setattr(fisher_rao, "_index_distances", _oracle_distances)
        for name, path in paths.items():
            want = constant_speed_reparametrize(path, metric)
            assert np.array_equal(got[name].times, want.times), name
            for a, b in zip(got[name].slices, want.slices):
                assert np.array_equal(a.atoms, b.atoms), name

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
        atoms = path.slices[k].atoms.copy()
        atoms[1] -= (np.linalg.eigvalsh(atoms[1])[0] + 1e-6) * np.eye(2)
        slices = list(path.slices)
        slices[k] = slices[k].with_atoms(atoms)
        bad = MeasurePath(path.times, slices)
        with pytest.raises(NotPSDError, match="'p2'"):
            metric_speed(bad, "hellinger")
        with pytest.raises(NotPSDError, match="'p2'"):
            constant_speed_reparametrize(bad, "hellinger")

    def test_one_eigh_and_one_svd_per_speed(self, rng, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapped

        path = self._paths(rng)["definite"]
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        metric_speed(path, "fisher_rao")
        assert calls == [("eigh", (9, 4, 3, 3)), ("svd", (9, 4, 3, 3))]
        calls.clear()
        constant_speed_reparametrize(path, "fisher_rao")
        assert calls[:2] == [("eigh", (9, 4, 3, 3)), ("svd", (8, 4, 3, 3))]


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
        assert mid == pytest.approx(tv_norm(g), rel=1e-12)
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
            MeasurePath(np.array([0.0, 0.5, 0.5]), (g, g, g))

    def test_times_within_unit_interval(self, rng):
        g = random_probability_measure(rng, 1, 2)
        with pytest.raises(FRGeoError):
            MeasurePath(np.array([0.0, 1.5]), (g, g))

    def test_nan_time_rejected(self, rng):
        g = random_probability_measure(rng, 1, 2)
        with pytest.raises(FRGeoError, match=r"times must be strictly increasing, got \[0.0, nan, 1.0\]"):
            MeasurePath(np.array([0.0, np.nan, 1.0]), (g, g, g))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("geodesic", [fisher_rao_geodesic, hellinger_geodesic, hellinger_geodesic_points])
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
        assert fisher_rao_distance(g0, g0) <= 1e-7
        g1 = random_probability_measure(rng, 2, 2, support=sup)
        if tv_distance(g0, g1) > 1e-6:
            assert fisher_rao_distance(g0, g1) > 0.0
