import math
import warnings

import numpy as np
import pytest

from frgeo.bures import bures_geodesic
from frgeo.entropy_flow import entropy, fisher_information, heat_flow
from frgeo.exceptions import (
    AntipodalError,
    FRGeoError,
    InfiniteEndpointEntropyError,
    NotProbabilityError,
    SingularMatrixError,
    SupportMismatchError,
)
from frgeo.fisher_rao import (
    MeasurePath,
    fisher_rao_distance,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
)
from frgeo.measures import (
    MatrixMeasure,
    ReferenceMeasure,
    Support,
    make_support,
    mass,
    reference_identity,
    tv_distance,
    uniform_reference,
)
from frgeo.schrodinger import (
    SchrodingerConfig,
    convexity_experiment,
    discrete_objective,
    gamma_sweep,
    gaussian_bridge_oracle,
    recovery_sequence,
    solve_bridge,
)
from frgeo.testing import (
    random_finite_entropy_measure,
    random_real_spd,
)


def finite_entropy_pair(rng, n=2, d=2, blend=0.5):
    sup = make_support(n)
    lam = uniform_reference(sup, d)
    g0 = random_finite_entropy_measure(rng, n, d, blend=blend, support=sup, lam=lam)
    g1 = random_finite_entropy_measure(rng, n, d, blend=blend, support=sup, lam=lam)
    return g0, g1, lam


def reachable_real_spd_pair(rng, d, epsilon, spread=0.7):
    """Real SPD pair inside the heat-flow reach 2*epsilon of each other,
    where both potentials of the forward/backward system are SPD and its
    plain alternating solve converges."""
    while True:
        a0 = random_real_spd(rng, d)
        s = rng.standard_normal((d, d))
        s = (s + s.T) / 2.0
        s /= max(float(np.abs(np.linalg.eigvalsh(s)).max()), 1e-12)
        a1 = a0 + spread * 2.0 * epsilon * s
        if float(np.linalg.eigvalsh(a1).min()) > 0.02:
            return a0, a1


def zero_weight_boundary_pair():
    """Endpoints on two points whose second atom has zero reference weight
    and a rank-deficient initial fiber (finite entropy, singular Bures edge)."""
    sup = make_support(2)
    lam = ReferenceMeasure(sup, 2, np.array([0.5, 0.0]))
    g0 = MatrixMeasure(sup, np.stack([np.diag([0.4, 0.3]), np.diag([0.3, 0.0])]).astype(complex))
    g1 = MatrixMeasure(
        sup, np.stack([np.array([[0.5, 0.1], [0.1, 0.3]]), np.diag([0.1, 0.1])]).astype(complex)
    )
    return g0, g1, lam


class TestConfig:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            SchrodingerConfig(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_epsilon_finite(self, epsilon):
        # NaN compares false with everything, so a plain `<= 0` test misses it.
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SchrodingerConfig(epsilon=epsilon)

    def test_min_steps(self):
        with pytest.raises(ValueError):
            SchrodingerConfig(epsilon=0.1, n_steps=4)

    @pytest.mark.parametrize("max_iters", [-5, 0])
    def test_max_iters_at_least_one(self, max_iters):
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            SchrodingerConfig(epsilon=0.1, max_iters=max_iters)


class TestDiscreteObjective:
    def test_constant_equilibrium_path(self):
        lam = uniform_reference(make_support(2), 2)
        eq = reference_identity(lam)
        times = np.linspace(0, 1, 9)
        path = MeasurePath(times, eq.support, np.stack([eq.atoms for _ in times]))
        kin, fis = discrete_objective(path, lam, 0.3)
        assert kin == pytest.approx(0.0, abs=1e-12)
        assert fis == pytest.approx(0.0, abs=1e-12)

    def test_geodesic_kinetic_energy(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        times = np.linspace(0, 1, 33)
        path = fisher_rao_geodesic(g0, g1, times)
        kin, _ = discrete_objective(path, lam, 0.1)
        # Constant-speed sampling makes the discrete energy exact up to 1%.
        assert kin == pytest.approx(dfr_sq / 2.0, rel=0.01)

    def test_kinetic_dominates_geodesic_energy(self, rng):
        # Discrete Cauchy-Schwarz: any sphere path on the grid carries at
        # least the geodesic kinetic energy.
        g0, g1, lam = finite_entropy_pair(rng)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        times = np.linspace(0, 1, 17)
        geo = fisher_rao_geodesic(g0, g1, times)
        bent = recovery_sequence(geo, lam, 0.4)
        kin, _ = discrete_objective(bent, lam, 0.4)
        assert kin >= dfr_sq / 2.0 - 1e-9

    def test_requires_uniform_grid(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, [0.0, 0.3, 1.0])
        with pytest.raises(FRGeoError):
            discrete_objective(path, lam, 0.1)

    def test_rejects_off_sphere_slice(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 9))
        atoms = path.atoms.copy()
        atoms[4] *= 1.01
        with pytest.raises(NotProbabilityError, match="slice 4"):
            discrete_objective(MeasurePath(path.times, path.support, atoms), lam, 0.1)

    def test_infinite_on_singular_interior(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        g = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        singular = MatrixMeasure(
            sup,
            np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex),
        )
        path = MeasurePath(np.linspace(0, 1, 9), sup, np.stack([g.atoms] * 4 + [singular.atoms] + [g.atoms] * 4))
        kin, fis = discrete_objective(path, lam, 0.2)
        assert math.isinf(fis)

    @staticmethod
    def path_through(rng, atom):
        """A nine-slice path on two points under the uniform reference whose
        middle slice holds ``atom`` beside a multiple of the identity."""
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        g = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam).atoms
        middle = np.stack([atom, 0.5 * (1.0 - np.trace(atom).real) * np.eye(2)]).astype(complex)
        return MeasurePath(np.linspace(0, 1, 9), sup, np.stack([g] * 4 + [middle] + [g] * 4)), lam

    @pytest.mark.parametrize("cond,singular", [(1e13, True), (1e11, False)])
    def test_singular_rule_on_a_rotated_interior_atom(self, rng, cond, singular):
        # tr G tr G^{-1} is about the condition number of a d = 2 density
        # with one small eigenvalue, so the rule's cut 1 / RANK_RTOL = 1e12
        # falls between these two.
        u = random_unitaries(rng, (), 2)
        atom = (u * (0.5 * np.array([1.0, 1.0 / cond]) / (1.0 + 1.0 / cond))) @ np.conj(u.T)
        path, lam = self.path_through(rng, atom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, fis = discrete_objective(path, lam, 0.2)
        assert math.isinf(fis) == singular

    def test_zero_atom_at_positive_weight_is_infinite_without_warning(self, rng):
        path, lam = self.path_through(rng, np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, fis = discrete_objective(path, lam, 0.2)
        assert math.isinf(fis)

    def test_one_slice_path_rejected(self, rng):
        g0, _, lam = finite_entropy_pair(rng)
        with pytest.raises(FRGeoError, match="needs at least two slices"):
            discrete_objective(MeasurePath(np.array([0.0]), g0.support, g0.atoms[None]), lam, 0.1)

    @pytest.mark.parametrize(
        "epsilon, message", [(-0.2, "nonnegative"), (math.nan, "nonnegative"), (math.inf, "finite")]
    )
    def test_invalid_temperature_rejected(self, rng, epsilon, message):
        # Unchecked, -0.2 would give the objective for +0.2 and NaN a NaN Fisher term.
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"epsilon must be {message}, got"):
                discrete_objective(path, lam, epsilon)

    def test_zero_temperature_is_the_kinetic_term_alone(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = recovery_sequence(fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9)), lam, 0.2)
        kin, fis = discrete_objective(path, lam, 0.0)
        assert fis == 0.0
        assert kin == discrete_objective(path, lam, 0.2)[0] > 0.0


class TestRecoverySequence:
    def test_zero_temperature_unchanged(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        assert recovery_sequence(path, lam, 0.0) is path

    def test_nan_temperature_rejected(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="epsilon must be nonnegative, got nan"):
            recovery_sequence(path, lam, math.nan)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_temperature_rejected(self, rng, epsilon):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="epsilon must be"):
                recovery_sequence(path, lam, epsilon)

    def test_equilibrium_fixed(self):
        lam = uniform_reference(make_support(2), 2)
        eq = reference_identity(lam)
        times = np.linspace(0, 1, 9)
        path = MeasurePath(times, eq.support, np.stack([eq.atoms for _ in times]))
        out = recovery_sequence(path, lam, 0.3)
        for s in out.slices:
            assert tv_distance(s, eq) <= 1e-14

    @pytest.mark.parametrize("eps", [0.05, 0.3, 2.0])
    def test_one_broadcast_is_the_per_slice_heat_flow(self, rng, eps):
        from frgeo.entropy_flow import heat_flow

        g0, g1, lam = finite_entropy_pair(rng, n=3, d=2)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 13))
        out = recovery_sequence(path, lam, eps)
        assert out.meta["recovery_epsilon"] == eps
        for t, g, s in zip(path.times, path.slices, out.slices):
            h = eps * min(float(t), 1.0 - float(t))
            want = heat_flow(g, lam, h) if h > 0.0 else g
            assert np.array_equal(s.atoms, want.atoms)

    def test_endpoints_untouched(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        path = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 17))
        out = recovery_sequence(path, lam, 0.25)
        assert tv_distance(out.slices[0], g0) == 0.0
        assert tv_distance(out.slices[-1], g1) == 0.0

    def test_upper_bound_on_random_geodesics(self, rng):
        for _ in range(10):
            g0, g1, lam = finite_entropy_pair(rng, n=2, d=2, blend=0.5)
            e0, e1 = entropy(g0, lam), entropy(g1, lam)
            dfr_sq = fisher_rao_distance(g0, g1) ** 2
            times = np.linspace(0, 1, 33)
            geo = fisher_rao_geodesic(g0, g1, times)
            for eps in (0.05, 0.1, 0.2):
                out = recovery_sequence(geo, lam, eps)
                kin, fis = discrete_objective(out, lam, eps)
                bound = dfr_sq / 2.0 + eps * (e0 + e1)
                assert kin + fis <= bound * 1.02

    def test_entropies_are_the_slice_entropies(self, rng):
        g0, g1, lam = finite_entropy_pair(rng, n=3, d=2)
        thetas = [0.9, 0.1, 0.5, 0.0, 1.0]
        rows = convexity_experiment(g0, g1, lam, thetas)
        path = fisher_rao_geodesic(g0, g1, sorted(thetas))
        assert [r[0] for r in rows] == sorted(thetas)
        assert [r[1] for r in rows] == [entropy(g, lam) for g in path.slices]

    def test_infinite_endpoint_rejected(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        g1 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), sup, np.stack([singular.atoms, g1.atoms, g1.atoms]))
        with pytest.raises(InfiniteEndpointEntropyError):
            recovery_sequence(path, lam, 0.1)

    def test_endpoint_checks_name_the_end_and_the_reference(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        g0 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), sup, np.stack([g0.atoms, g0.atoms, singular]))
        with pytest.raises(InfiniteEndpointEntropyError, match="final endpoint"):
            recovery_sequence(path, lam, 0.1)
        with pytest.raises(InfiniteEndpointEntropyError, match="final endpoint"):
            convexity_experiment(g0, MatrixMeasure(sup, singular), lam, [0.5])
        for other in (uniform_reference(make_support(3), 2), uniform_reference(sup, 1)):
            with pytest.raises(SupportMismatchError):
                recovery_sequence(path, other, 0.1)


def random_unitaries(rng, shape, d):
    q, r = np.linalg.qr(rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d)))
    return q * (np.diagonal(r, axis1=-2, axis2=-1) / np.abs(np.diagonal(r, axis1=-2, axis2=-1)))[..., None, :]


class TestSolveBridge:
    @staticmethod
    def check_gradient_against_fd(rng, g0, g1, lam):
        # The closed-form gradient against brute-force central differences of
        # the full objective, at random free interior factors (not roots, and
        # not of unit norm).
        from frgeo.hpsd import psd_sqrt
        from frgeo.schrodinger import _bridge_gradient, _bridge_objective

        n, d, n_steps = g0.n, g0.atoms.shape[-1], 8
        eps = 0.3
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))
        shape = (n_steps - 1, n, d, d)
        factors = 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        def full_obj(fac):
            return _bridge_objective(fac, ends, lam.weights, eps)[0]

        grad = _bridge_gradient(factors, _bridge_objective(factors, ends, lam.weights, eps)[1], lam.weights, eps)
        assert np.all(np.isfinite(grad))
        h = 1e-7
        for _ in range(20):
            k = int(rng.integers(0, n_steps - 1))
            i, r, c = (int(rng.integers(0, m)) for m in (n, d, d))
            part = int(rng.integers(0, 2))
            delta = h if part == 0 else 1j * h
            fp = factors.copy()
            fp[k, i, r, c] += delta
            fm = factors.copy()
            fm[k, i, r, c] -= delta
            num = (full_obj(fp) - full_obj(fm)) / (2 * h)
            ana = grad[k, i, r, c].real if part == 0 else grad[k, i, r, c].imag
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-8)

    def test_analytic_gradient_matches_full_objective_fd(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        self.check_gradient_against_fd(rng, g0, g1, lam)

    def test_analytic_gradient_finite_at_zero_weight_atom(self, rng):
        # A zero-weight atom with a rank-deficient initial fiber: the first
        # Bures edge is singular, so its polar factor is not unique.
        g0, g1, lam = zero_weight_boundary_pair()
        self.check_gradient_against_fd(rng, g0, g1, lam)

    def test_zero_weight_rank_deficient_endpoint_converges(self):
        g0, g1, lam = zero_weight_boundary_pair()
        res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.2, n_steps=12))
        assert res.converged
        assert res.objective == pytest.approx(0.3555451069311062, rel=1e-8)

    def test_gradient_reuses_the_objective_decompositions(self, monkeypatch):
        from frgeo.hpsd import psd_sqrt
        from frgeo.schrodinger import _bridge_gradient, _bridge_objective

        g0, g1, lam = zero_weight_boundary_pair()
        n_steps = 12
        path = recovery_sequence(fisher_rao_geodesic(g0, g1, np.linspace(0, 1, n_steps + 1)), lam, 0.2)
        factors = psd_sqrt(np.stack([g.atoms for g in path.slices[1:-1]]))
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))

        calls = []
        for name in ("eigh", "eigvalsh", "svd", "inv"):
            def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        fwd = _bridge_objective(factors, ends, lam.weights, 0.2)[1]
        # The edges' SVD, and the inverses of the one positive-weight atom's
        # interior factors.
        assert calls == [("svd", (n_steps, 2, 2, 2)), ("inv", (n_steps - 1, 1, 2, 2))]
        calls.clear()
        grad = _bridge_gradient(factors, fwd, lam.weights, 0.2)
        assert calls == []
        assert np.all(np.isfinite(grad))

        # The boundary solve stays clear of numpy's invalid-value and
        # division warnings (the Fisher term inverts positive-weight atoms only).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.2, n_steps=n_steps))
        assert res.converged

    @pytest.mark.parametrize("lam_min", [1e-10, 1e-11])
    def test_interior_fisher_term_from_factor_inverses(self, rng, lam_min):
        # Interior factors U diag(s) V* whose slices G = Y Y* have smallest
        # eigenvalue lam_min: the Fisher term against its closed form
        # (eps^2 / 2N) sum_k sum_i w_i (w_i sum_j 1/s_j^2 - d) in the
        # singular values of the unit-norm slices.
        from frgeo.hpsd import psd_sqrt
        from frgeo.schrodinger import _bridge_objective

        n, d, n_steps, eps = 2, 3, 8, 0.3
        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))
        s = rng.uniform(0.3, 1.0, (n_steps - 1, n, d))
        s /= np.sqrt((s**2).sum(axis=(1, 2)))[:, None, None]
        s[..., 0] = np.sqrt(lam_min)
        u, v = (random_unitaries(rng, (n_steps - 1, n), d) for _ in range(2))
        fac = (u * s[..., None, :]) @ v
        s /= np.sqrt((s**2).sum(axis=(1, 2)))[:, None, None]
        w = lam.weights
        exact = 0.5 * eps**2 / n_steps * (w * (w * (1.0 / s**2).sum(axis=-1) - d)).sum()
        assert _bridge_objective(fac, ends, w, eps)[1].fisher_term == pytest.approx(exact, rel=1e-9)

    def test_identical_equilibrium_endpoints(self):
        lam = uniform_reference(make_support(2), 2)
        eq = reference_identity(lam)
        cfg = SchrodingerConfig(epsilon=0.2, n_steps=8, max_iters=50)
        res = solve_bridge(eq, eq, lam, cfg)
        assert res.objective == pytest.approx(0.0, abs=1e-10)
        for s in res.path.slices:
            assert tv_distance(s, eq) <= 1e-9

    def test_objective_decomposition_and_endpoints(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8, max_iters=150)
        res = solve_bridge(g0, g1, lam, cfg)
        assert res.objective == pytest.approx(res.kinetic + res.fisher_term, abs=1e-12)
        assert sum(discrete_objective(res.path, lam, cfg.epsilon)) == pytest.approx(res.objective, rel=1e-12)
        assert tv_distance(res.path.slices[0], g0) <= 1e-10
        assert tv_distance(res.path.slices[-1], g1) <= 1e-10

    def test_slices_on_sphere_and_psd(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.2, n_steps=8, max_iters=150)
        res = solve_bridge(g0, g1, lam, cfg)
        for s in res.path.slices:
            assert abs(mass(s) - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(s.atoms).min() >= -1e-10

    def test_never_above_initialization(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        eps = 0.25
        cfg = SchrodingerConfig(epsilon=eps, n_steps=12)
        res = solve_bridge(g0, g1, lam, cfg)
        geo = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 13))
        init = recovery_sequence(geo, lam, eps)
        kin0, fis0 = discrete_objective(init, lam, eps)
        assert res.objective <= kin0 + fis0 + 1e-12

    def test_objective_monotone_in_epsilon(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        objs = []
        for eps in (0.4, 0.2, 0.1):
            cfg = SchrodingerConfig(epsilon=eps, n_steps=8)
            objs.append(solve_bridge(g0, g1, lam, cfg).objective)
        assert objs[0] >= objs[1] * (1 - 0.01)
        assert objs[1] >= objs[2] * (1 - 0.01)

    def test_small_epsilon_approaches_geodesic_energy(self, rng):
        g0, g1, lam = finite_entropy_pair(rng, blend=0.4)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        cfg = SchrodingerConfig(epsilon=1e-3, n_steps=16)
        res = solve_bridge(g0, g1, lam, cfg)
        assert 2.0 * res.objective == pytest.approx(dfr_sq, rel=0.01)

    def test_warm_start_path_used(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8)
        first = solve_bridge(g0, g1, lam, cfg)
        warm = solve_bridge(g0, g1, lam, cfg, init_path=first.path)
        assert warm.iterations <= first.iterations
        assert warm.objective <= first.objective + 1e-10

    def test_wrong_grid_init_rejected(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8)
        bad = fisher_rao_geodesic(g0, g1, np.linspace(0, 1, 5))
        with pytest.raises(FRGeoError):
            solve_bridge(g0, g1, lam, cfg, init_path=bad)

    def test_init_path_times_are_not_read(self, rng):
        # Only the slice count and the support of an init path are checked:
        # the same atoms at cubic-warped times start the same descent.
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8)
        uniform = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 9))
        warped = MeasurePath(np.linspace(0.0, 1.0, 9) ** 3, uniform.support, uniform.atoms)
        a = solve_bridge(g0, g1, lam, cfg, init_path=uniform)
        b = solve_bridge(g0, g1, lam, cfg, init_path=warped)
        assert b.stop_reason == "gradient_tol"
        assert np.array_equal(b.path.times, np.linspace(0.0, 1.0, 9))
        assert (b.objective, b.iterations) == (a.objective, a.iterations)
        assert np.array_equal(b.path.atoms, a.path.atoms)

    @pytest.mark.parametrize("labels", [tuple(f"q{i}" for i in range(8)), ("p2", "p1", *(f"p{i}" for i in range(3, 9)))])
    def test_init_path_on_another_support_rejected(self, rng, labels):
        # Same shape and grid, other (or reordered) point labels than the endpoints' p1..p8.
        g0, g1, lam = finite_entropy_pair(rng, n=8)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8)
        geo = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 9))
        bad = MeasurePath(geo.times, Support(labels), geo.atoms)
        with pytest.raises(SupportMismatchError, match="different supports"):
            solve_bridge(g0, g1, lam, cfg, init_path=bad)

    def test_infinite_endpoint_entropy_rejected(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        g1 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        with pytest.raises(InfiniteEndpointEntropyError):
            solve_bridge(singular, g1, lam, SchrodingerConfig(epsilon=0.1, n_steps=8))

    def test_antipodal_rejected(self):
        sup = Support(("x",))
        lam = uniform_reference(sup, 2)
        g0 = MatrixMeasure(sup, np.diag([1.0, 0.0]).astype(complex)[None])
        g1 = MatrixMeasure(sup, np.diag([0.0, 1.0]).astype(complex)[None])
        with pytest.raises((AntipodalError, InfiniteEndpointEntropyError)):
            solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.1, n_steps=8))

    def test_antipodal_finite_entropy_rejected_cold_and_warm(self):
        # Finite-entropy endpoints within 1e-6 of the diameter pi.
        sup = make_support(2)
        lam = uniform_reference(sup, 1)
        a = 2e-14
        g0 = MatrixMeasure(sup, np.array([[[1.0 - a]], [[a]]], dtype=complex))
        g1 = MatrixMeasure(sup, np.array([[[a]], [[1.0 - a]]], dtype=complex))
        assert np.isfinite(entropy(g0, lam)) and np.pi - fisher_rao_distance(g0, g1) < 1e-6
        cfg = SchrodingerConfig(epsilon=0.1, n_steps=8)
        with pytest.raises(AntipodalError) as cold:
            solve_bridge(g0, g1, lam, cfg)
        init = MeasurePath(np.linspace(0.0, 1.0, 9), sup, np.stack([g0.atoms] * 8 + [g1.atoms]), {})
        with pytest.raises(AntipodalError) as warm:
            solve_bridge(g0, g1, lam, cfg, init_path=init)
        # One rule: both starts report the same distance in the same words.
        assert str(warm.value) == str(cold.value)
        assert str(cold.value).endswith(">= pi - 1e-6: sphere projection undefined")

    @pytest.mark.parametrize("warm", [False, True])
    def test_endpoint_checks_run_once(self, rng, monkeypatch, warm):
        from frgeo import fisher_rao, schrodinger
        from frgeo.optim import LbfgsResult

        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8, max_iters=5)
        init = solve_bridge(g0, g1, lam, cfg).path if warm else None
        calls = []
        # The set-up before the descent, which returns at once here. One
        # spectrum of the stacked ends gives their entropies and Fisher
        # informations. The cold path checks the endpoints' mass inside the
        # geodesic, the warm path inside fisher_rao_distance: one sphere
        # check per endpoint. Either makes one eigh and one SVD for the
        # endpoints' polar step, one eigh roots the ends and the start's
        # interior together, and the first objective makes one SVD and one inv.
        monkeypatch.setattr(
            schrodinger, "lbfgs", lambda fun, grad, x, f, aux, **_: LbfgsResult(x, f, aux, np.zeros_like(x), 0, "budget")
        )
        counted_names = [(schrodinger, "slice_entropies"), (fisher_rao, "check_probability")]
        for module, name in counted_names + [(np.linalg, name) for name in ("eigvalsh", "eigh", "svd", "inv")]:
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        solve_bridge(g0, g1, lam, cfg, init_path=init)
        assert sorted(calls) == [
            "check_probability", "check_probability", "eigh", "eigh", "eigvalsh", "inv", "slice_entropies", "svd", "svd"
        ]

    def test_non_convergence_flagged(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8, max_iters=2)
        res = solve_bridge(g0, g1, lam, cfg)
        assert not res.converged
        assert res.stop_reason == "budget"
        assert res.iterations <= 2

    def test_iterations_flat_in_grid_size(self, rng):
        # Preconditioned in time, a solve takes a handful of iterations at
        # any N; plain L-BFGS needed about 2 N. Counts turn on the last bits
        # of the gradient, so only a fixed bound is checked.
        g0, g1, lam = finite_entropy_pair(rng)
        for n_steps in (12, 96):
            res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.2, n_steps=n_steps))
            assert res.converged
            assert res.iterations <= 25, n_steps

    def test_roundoff_floor_stop_counts_as_stall(self):
        # The CLI fixture's construction at seed 4, whose solve ends near the
        # objective's round-off floor: it may stop on either convergent
        # reason, and the reported objective is still that of its path.
        # `stall` itself is covered in test_optim.
        rng = np.random.default_rng(4)
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        g0 = random_finite_entropy_measure(rng, 2, 2, blend=0.5, support=sup, lam=lam)
        g1 = random_finite_entropy_measure(rng, 2, 2, blend=0.5, support=sup, lam=lam)
        res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.5, n_steps=8))
        assert res.converged
        assert sum(discrete_objective(res.path, lam, 0.5)) == pytest.approx(res.objective, rel=1e-13)
        # Plain backtracking gradient descent stopped here (its stall window).
        assert res.objective <= 0.2789371908210176

    @pytest.mark.parametrize("n,d,n_steps", [(2, 2, 64), (3, 2, 96)])
    def test_objective_invariant_under_refactorization(self, rng, n, d, n_steps):
        # The slices G_k = Y_k Y_k* do not change under F_k -> alpha_k F_k Q_k
        # with unitary Q_k per atom, so neither may the objective. The trace
        # formula for d_B^2 cancels at these small steps and spreads about
        # 1e-11 relative here; the polar residual does not.
        from frgeo.hpsd import psd_sqrt
        from frgeo.schrodinger import _bridge_objective

        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        path = recovery_sequence(fisher_rao_geodesic(g0, g1, np.linspace(0, 1, n_steps + 1)), lam, 0.2)
        factors = psd_sqrt(np.stack([g.atoms for g in path.slices[1:-1]]))
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))
        values = []
        for _ in range(100):
            alpha = np.exp(rng.uniform(-2.0, 2.0, n_steps - 1))[:, None, None, None]
            fac = alpha * factors @ random_unitaries(rng, (n_steps - 1, n), d)
            values.append(_bridge_objective(fac, ends, lam.weights, 0.2)[0])
        assert (max(values) - min(values)) / np.mean(values) <= 1e-13

    @pytest.mark.parametrize("n,d,n_steps", [(2, 2, 12), (2, 2, 64), (3, 2, 96)])
    def test_reported_objective_is_the_objective_of_its_path(self, rng, n, d, n_steps):
        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        for eps in (0.2, 0.05):
            res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=eps, n_steps=n_steps))
            assert res.converged
            assert sum(discrete_objective(res.path, lam, eps)) == pytest.approx(res.objective, rel=1e-13)


def two_point_optimum(psi0, psi1, weights, n_steps, epsilon):
    """The exact minimizer of the discrete bridge on the two-point classical
    space (n = 2, d = 1), as the angles ``psi_0 .. psi_N``. A measure there is
    ``(cos^2(psi/2), sin^2(psi/2))``, ``d_FR`` is the angle difference and the
    Fisher information is ``I(psi) = w1^2 / cos^2(psi/2) + w2^2 / sin^2(psi/2) - 1``,
    so the objective ``(N/2) sum (psi_{k+1} - psi_k)^2 + (eps^2/2) sum tau_k I(psi_k)``
    is strictly convex in the interior angles, with a tridiagonal Hessian.
    Newton's method with backtracking from the chord runs until no step
    decreases it."""
    a, b = np.asarray(weights, dtype=float) ** 2
    c = 0.5 * epsilon**2 / n_steps  # the interior trapezoid weight is 1/N

    def full(inner):
        return np.concatenate([[psi0], inner, [psi1]])

    def value(inner):
        if not np.all((inner > 0.0) & (inner < np.pi)):
            return math.inf
        fisher = a / np.cos(inner / 2.0) ** 2 + b / np.sin(inner / 2.0) ** 2 - 1.0
        return 0.5 * n_steps * float((np.diff(full(inner)) ** 2).sum()) + c * float(fisher.sum())

    laplacian = n_steps * (2.0 * np.eye(n_steps - 1) - np.eye(n_steps - 1, k=1) - np.eye(n_steps - 1, k=-1))
    psi = np.linspace(psi0, psi1, n_steps + 1)[1:-1]
    f = value(psi)
    for _ in range(100):
        sec2, csc2 = 1.0 / np.cos(psi / 2.0) ** 2, 1.0 / np.sin(psi / 2.0) ** 2
        tan, cot = np.tan(psi / 2.0), 1.0 / np.tan(psi / 2.0)
        grad = n_steps * (2.0 * psi - full(psi)[:-2] - full(psi)[2:]) + c * (a * sec2 * tan - b * csc2 * cot)
        curv = a * sec2 * (tan**2 + 0.5 * sec2) + b * csc2 * (cot**2 + 0.5 * csc2)
        step = np.linalg.solve(laplacian + np.diag(c * curv), grad)
        t = 1.0
        while not value(psi - t * step) < f:
            t *= 0.5
            if t < 1e-12:
                return full(psi)
        psi = psi - t * step
        f = value(psi)
    raise AssertionError("Newton did not reach the round-off floor in 100 steps")


def two_point_angles(atoms):
    """The angles ``psi`` of the slices of a path, from the two diagonal
    entries of each slice: the two atoms of a d = 1 path, or the one atom of
    a diagonal qubit path."""
    if atoms.shape[-1] == 1:
        diag = np.real(atoms[:, :, 0, 0])
    else:
        diag = np.real(np.diagonal(atoms[:, 0], axis1=-2, axis2=-1))
    return 2.0 * np.arctan2(np.sqrt(diag[:, 1]), np.sqrt(diag[:, 0]))


class TestTwoPointModel:
    # The bridge against the exact discrete optimum, at N = 32 and eps = 0.5.
    # Near a boundary of the angle, an end's Fisher information is a large
    # constant that no step moves; a descent whose objective included it
    # would let it swamp the stop tests, and stop at its first iterations
    # with path errors of 1e-2 in psi.

    @staticmethod
    def angle_measure(sup, psi):
        return MatrixMeasure(sup, np.array([[[np.cos(psi / 2.0) ** 2]], [[np.sin(psi / 2.0) ** 2]]], dtype=complex))

    @pytest.mark.parametrize(
        "psi0,psi1,weights,tol",
        [
            (1e-6, 2.0, (0.5, 0.5), 1e-6),
            (1e-6, 2.0, (0.9, 0.1), 1e-6),
            (1.0, np.pi - 1e-5, (0.9, 0.1), 1e-6),
            (0.7, 2.3, (0.5, 0.5), 1e-8),
        ],
    )
    def test_path_is_the_exact_discrete_optimum(self, psi0, psi1, weights, tol):
        sup = make_support(2)
        lam = ReferenceMeasure(sup, 1, np.array(weights))
        g0, g1 = self.angle_measure(sup, psi0), self.angle_measure(sup, psi1)
        res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.5, n_steps=32))
        assert res.converged
        exact = two_point_optimum(psi0, psi1, weights, 32, 0.5)
        assert np.abs(two_point_angles(res.path.atoms) - exact).max() <= tol

    @pytest.mark.parametrize("rho", [1e-8, 1e-10])
    def test_diagonal_qubit_is_the_two_point_model(self, rho):
        # A qubit under the uniform reference (w = 1/2) with diagonal ends is
        # the two-point model with weights (1/2, 1/2), and its path stays
        # exactly diagonal.
        sup = make_support(1)
        lam = uniform_reference(sup, 2)
        g0 = MatrixMeasure(sup, np.diag([1.0 - rho, rho])[None].astype(complex))
        g1 = MatrixMeasure(sup, np.diag([0.35, 0.65])[None].astype(complex))
        res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.5, n_steps=32))
        assert res.converged
        assert np.all(res.path.atoms[..., [0, 1], [1, 0]] == 0.0)
        psi = two_point_angles(res.path.atoms)
        exact = two_point_optimum(psi[0], psi[-1], (0.5, 0.5), 32, 0.5)
        assert np.abs(psi - exact).max() <= 1e-6


def plain_potential_points(a0, a1, eps, ts):
    """Bridge covariances from the forward/backward potential system
    ``a0^-1 = B0^-1 + (C1 + 2 eps I)^-1``, ``a1^-1 = (B0 + 2 eps I)^-1 + C1^-1``,
    solved by plain alternating updates (no extrapolation), through
    ``A_t = ((B0 + 2 eps t I)^-1 + (C1 + 2 eps (1-t) I)^-1)^-1``."""
    inv, eye = np.linalg.inv, np.eye(len(a0))
    b0, c1 = a0, a1
    for _ in range(2000):
        b0_next = inv(inv(a0) - inv(c1 + 2.0 * eps * eye))
        c1_next = inv(inv(a1) - inv(b0_next + 2.0 * eps * eye))
        change = max(np.abs(b0_next - b0).max(), np.abs(c1_next - c1).max())
        b0, c1 = b0_next, c1_next
        if change <= 1e-15 * np.abs(b0).max():
            fwd = [inv(b0 + 2.0 * eps * t * eye) for t in ts]
            bwd = [inv(c1 + 2.0 * eps * (1.0 - t) * eye) for t in ts]
            return inv(np.add(fwd, bwd))
    raise AssertionError("plain alternating solve did not converge")


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestGaussianOracle:
    def test_scalar_closed_form(self):
        one = np.array([[1.0]])
        for eps in (0.5, 0.1, 0.01):
            res = gaussian_bridge_oracle(one, one, eps, [0.0, 0.5, 1.0])
            mid_expected = (1.0 + math.sqrt(1.0 + eps * eps)) / 2.0
            assert res.points[1][0, 0] == pytest.approx(mid_expected, abs=1e-12)

    def test_scalar_potential_interpolant(self):
        # Equal unit marginals: both potentials are b = 1 - eps + sqrt(1 + eps^2).
        one = np.array([[1.0]])
        ts = np.linspace(0.0, 1.0, 9)
        for eps in (0.5, 0.1, 0.01):
            b = 1.0 - eps + math.sqrt(1.0 + eps * eps)
            expected = 1.0 / (1.0 / (b + 2.0 * eps * ts) + 1.0 / (b + 2.0 * eps * (1.0 - ts)))
            res = gaussian_bridge_oracle(one, one, eps, ts)
            np.testing.assert_allclose(res.points[:, 0, 0], expected, rtol=0.0, atol=1e-12)

    def test_solves_potential_system(self, rng):
        ts = np.linspace(0.0, 1.0, 9)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            a0, a1 = reachable_real_spd_pair(rng, d, 0.2)
            res = gaussian_bridge_oracle(a0, a1, 0.2, ts)
            assert rel_err(res.points, plain_potential_points(a0, a1, 0.2, ts)) <= 1e-12

    def test_marginals_reproduced(self):
        # Generic SPD pairs, most outside the heat-flow reach, where the
        # potentials are not SPD: an alternating potential iteration started
        # at the marginals fails on 41 of these 60, the closed form on none.
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 9)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            a0 = random_real_spd(rng, d, jitter=10.0 ** rng.uniform(-4.0, 0.0))
            a1 = random_real_spd(rng, d)
            eps = 10.0 ** rng.uniform(-1.5, 0.5)
            res = gaussian_bridge_oracle(a0, a1, eps, ts)
            assert rel_err(res.points[0], a0) <= 1e-12
            assert rel_err(res.points[-1], a1) <= 1e-12
            assert float(np.linalg.eigvalsh(res.points).min()) >= 0.0

    def test_small_epsilon_approaches_fiber_geodesic(self, rng):
        a0, a1 = reachable_real_spd_pair(rng, 2, 0.01, spread=0.6)
        ts = np.linspace(0, 1, 5)
        geo = bures_geodesic(a0.astype(complex), a1.astype(complex), ts)
        errs = {}
        for eps in (0.1, 0.01):
            res = gaussian_bridge_oracle(a0, a1, eps, ts)
            errs[eps] = max(np.linalg.norm(res.points[k] - geo.points[k]) for k in range(len(ts)))
        # The bridge leaves the geodesic at O(eps^2): the ratio is about 0.01.
        assert errs[0.01] <= 0.02 * errs[0.1]

    def test_equal_marginal_midpoint_inflates(self, rng):
        a = random_real_spd(rng, 3)
        res = gaussian_bridge_oracle(a, a, 0.3, [0.5])
        assert float(np.linalg.eigvalsh(res.points[0] - a).min()) >= -1e-10

    def test_far_marginals_at_small_temperature(self):
        # I -> 4I at eps = 0.01 lies far outside the heat-flow reach 2 eps;
        # the midpoint is the scalar (a0 + a1 + sqrt(4 a0 a1 + 4 eps^2)) / 4.
        res = gaussian_bridge_oracle(np.eye(2), 4.0 * np.eye(2), 0.01, [0.5])
        expected = (1.0 + 4.0 + math.sqrt(4.0 * 4.0 + 4.0 * 0.01**2)) / 4.0
        assert expected == pytest.approx(2.2500125, abs=1e-7)
        np.testing.assert_allclose(res.points[0], expected * np.eye(2), rtol=0.0, atol=1e-12)

    def test_rejects_singular_marginal(self):
        with pytest.raises(SingularMatrixError):
            gaussian_bridge_oracle(np.eye(2), np.diag([1.0, 0.0]), 0.1, [0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf])
    def test_rejects_bad_temperature(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            gaussian_bridge_oracle(np.eye(2), np.eye(2), epsilon, [0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ts", [[np.nan, 2.0], [0.5, 0.2], [-0.5, 0.5]])
    def test_rejects_times_before_any_arithmetic(self, ts):
        with pytest.raises(FRGeoError, match="times must"):
            gaussian_bridge_oracle(np.eye(2), np.eye(2), 0.2, ts)

    def test_rejects_complex_input(self, rng):
        a = np.eye(2) + 1j * np.array([[0.0, 0.5], [-0.5, 0.0]])
        with pytest.raises(FRGeoError):
            gaussian_bridge_oracle(a, np.eye(2), 0.1, [0.5])


class TestGammaSweep:
    def test_objective_and_gap_decrease(self, rng):
        g0, g1, lam = finite_entropy_pair(rng, blend=0.45)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=12)
        rows = gamma_sweep(g0, g1, lam, [0.5, 0.2, 0.1], cfg)
        assert [r.epsilon for r in rows] == [0.5, 0.2, 0.1]
        assert all(r.converged for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.objective <= a.objective * 1.01
            assert b.tv_gap <= a.tv_gap * 1.05 + 1e-9

    def test_gap_is_the_largest_slice_tv_distance(self, rng):
        from frgeo.schrodinger import _sweep_row

        g0, g1, lam = finite_entropy_pair(rng, n=3, d=2)
        cfg = SchrodingerConfig(epsilon=0.2, n_steps=8)
        geodesic = fisher_rao_geodesic(g0, g1, np.linspace(0.0, 1.0, 9))
        row = _sweep_row(g0, g1, lam, geodesic, cfg)
        path = solve_bridge(g0, g1, lam, cfg).path
        assert row.tv_gap > 0.0
        assert row.tv_gap == max(tv_distance(a, b) for a, b in zip(path.slices, geodesic.slices))

    def test_identical_endpoints_all_zero_gap(self):
        lam = uniform_reference(make_support(2), 2)
        eq = reference_identity(lam)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=8, max_iters=30)
        rows = gamma_sweep(eq, eq, lam, [0.5, 0.1], cfg)
        for r in rows:
            assert r.objective == pytest.approx(r.fisher_term, abs=1e-12)
            assert r.tv_gap <= 1e-9

    def test_requires_descending_epsilons(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        with pytest.raises(ValueError):
            gamma_sweep(g0, g1, lam, [0.1, 0.5], SchrodingerConfig(epsilon=0.1, n_steps=8))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_endpoint_error_propagates(self, rng, jobs):
        # Infinite-entropy endpoints make every bridge solve fail the same
        # way, whatever the temperature; the sweep raises that error, also
        # out of a worker pool.
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        g1 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=8)
        with pytest.raises(InfiniteEndpointEntropyError):
            gamma_sweep(singular, g1, lam, [0.5, 0.2], cfg, jobs=jobs)

    def test_parallel_rows_match_cold_runs(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=8, max_iters=150)
        rows = gamma_sweep(g0, g1, lam, [0.5, 0.2], cfg, jobs=2)
        assert [r.epsilon for r in rows] == [0.5, 0.2]
        for row in rows:
            cold = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=row.epsilon, n_steps=8, max_iters=150))
            assert row.objective == cold.objective
        # Every row is a cold solve, so the pool changes where rows run, not what they are.
        assert gamma_sweep(g0, g1, lam, [0.5, 0.2], cfg, jobs=1) == rows

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, rng, jobs):
        g0, g1, lam = finite_entropy_pair(rng)
        with pytest.raises(ValueError, match="jobs"):
            gamma_sweep(g0, g1, lam, [0.5, 0.2], SchrodingerConfig(epsilon=0.5, n_steps=8), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 0])
    def test_rejects_empty_epsilons_first(self, rng, monkeypatch, jobs):
        # Before the jobs check and before any geodesic or solve.
        from frgeo import schrodinger

        def no_work(*args, **kwargs):
            raise AssertionError("work started on an empty sweep")

        monkeypatch.setattr(schrodinger, "fisher_rao_geodesic", no_work)
        monkeypatch.setattr(schrodinger, "solve_bridge", no_work)
        g0, g1, lam = finite_entropy_pair(rng)
        with pytest.raises(ValueError, match="^epsilons must not be empty$"):
            gamma_sweep(g0, g1, lam, [], SchrodingerConfig(epsilon=0.5, n_steps=8), jobs=jobs)

    @pytest.mark.parametrize("jobs, epsilons, pools", [(5000, [0.5, 0.2, 0.1], [3]), (2, [0.5], [])])
    def test_pool_has_at_most_one_worker_per_row(self, rng, monkeypatch, jobs, epsilons, pools):
        # A stand-in pool that records its size and runs rows in this process,
        # so no worker process is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=8, max_iters=150)
        rows = gamma_sweep(g0, g1, lam, epsilons, cfg, jobs=jobs)
        assert [r.epsilon for r in rows] == epsilons
        assert sizes == pools


class TestConvexityExperiment:
    def test_identical_endpoints(self, rng):
        g, _, lam = finite_entropy_pair(rng)
        rows = convexity_experiment(g, g, lam, [0.25, 0.5, 0.75])
        e = entropy(g, lam)
        for _, lhs, rhs in rows:
            assert lhs == pytest.approx(e, rel=1e-9)
            assert rhs == pytest.approx(e, rel=1e-9)

    def test_boundary_thetas_exact(self, rng):
        g0, g1, lam = finite_entropy_pair(rng)
        rows = convexity_experiment(g0, g1, lam, [0.0, 1.0])
        assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-10)
        assert rows[1][1] == pytest.approx(rows[1][2], abs=1e-10)

    def test_strengthened_chord_bound_holds(self, rng):
        thetas = [0.1 * k for k in range(1, 10)]
        for _ in range(25):
            g0, g1, lam = finite_entropy_pair(
                rng, n=int(rng.integers(1, 4)), d=int(rng.integers(1, 4))
            )
            rows = convexity_experiment(g0, g1, lam, thetas)
            for theta, lhs, rhs in rows:
                assert lhs <= rhs + 1e-6

    def test_infinite_endpoint_rejected(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        g1 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        with pytest.raises(InfiniteEndpointEntropyError):
            convexity_experiment(singular, g1, lam, [0.5])


class TestCommutativeReduction:
    # A matrix measure whose atoms U_x diag(p_x) U_x* keep one eigenbasis U_x
    # per point is the classical measure p on the n·d points (x, j): under
    # the uniform references, the distances, geodesics, heat flow, entropy,
    # Fisher information and bridge must agree with those of its classical
    # twin. And conjugating every fiber of both ends by its own unitary must
    # conjugate the bridge and the geodesic.
    CASES = [(1, 2, 0.5), (2, 2, 0.2), (3, 2, 0.05), (1, 3, 0.2), (2, 3, 0.5), (3, 3, 0.05)]
    N_STEPS = 16

    @staticmethod
    def lift(u, p):
        """The atoms ``U_x diag(p_x) U_x*`` of classical weights ``p`` on n·d points (leading axes kept)."""
        p = np.real(p).reshape(p.shape[:-3] + (u.shape[0], u.shape[-1]))
        return (u * p[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))

    def twins(self, n, d):
        """Commuting ends on n points with their classical twins, the shared bases and both references."""
        rng = np.random.default_rng(3 + 10 * n + d)
        u = random_unitaries(rng, (n,), d)
        probs = [rng.uniform(0.2, 1.0, (n * d, 1, 1)) for _ in range(2)]
        classical = [MatrixMeasure(make_support(n * d), (p / p.sum()).astype(complex)) for p in probs]
        matrix = [MatrixMeasure(make_support(n), self.lift(u, c.atoms)) for c in classical]
        return matrix, classical, u, uniform_reference(make_support(n), d), uniform_reference(make_support(n * d), 1)

    @pytest.mark.parametrize("n,d,eps", CASES)
    def test_closed_forms_match_the_classical_twin(self, n, d, eps):
        (g0, g1), (c0, c1), u, lam, lam_c = self.twins(n, d)
        ts = np.linspace(0.0, 1.0, self.N_STEPS + 1)
        assert fisher_rao_distance(g0, g1) == pytest.approx(fisher_rao_distance(c0, c1), abs=1e-13)
        assert hellinger_distance_sq(g0, g1) == pytest.approx(hellinger_distance_sq(c0, c1), abs=1e-13)
        for geodesic in (fisher_rao_geodesic, hellinger_geodesic):
            assert np.abs(geodesic(g0, g1, ts).atoms - self.lift(u, geodesic(c0, c1, ts).atoms)).max() <= 1e-13
        assert np.abs(heat_flow(g0, lam, eps).atoms - self.lift(u, heat_flow(c0, lam_c, eps).atoms)).max() <= 1e-13
        for g, c in ((g0, c0), (g1, c1)):
            assert entropy(g, lam) == pytest.approx(entropy(c, lam_c), abs=1e-13)
            assert fisher_information(g, lam) == pytest.approx(fisher_information(c, lam_c), abs=1e-13)
        thetas = np.linspace(0.1, 0.9, 5)
        rows, rows_c = convexity_experiment(g0, g1, lam, thetas), convexity_experiment(c0, c1, lam_c, thetas)
        assert np.abs(np.array(rows) - np.array(rows_c)).max() <= 1e-13

    @pytest.mark.parametrize("n,d,eps", CASES)
    def test_bridge_matches_the_classical_twin(self, n, d, eps):
        (g0, g1), (c0, c1), u, lam, lam_c = self.twins(n, d)
        cfg = SchrodingerConfig(epsilon=eps, n_steps=self.N_STEPS)
        res, twin = solve_bridge(g0, g1, lam, cfg), solve_bridge(c0, c1, lam_c, cfg)
        assert res.converged and twin.converged
        assert res.objective == pytest.approx(twin.objective, rel=1e-12)
        assert np.abs(res.path.atoms - self.lift(u, twin.path.atoms)).max() <= 1e-7
        if n * d == 2:
            # The twin is the two-point model, whose discrete optimum is exact.
            psi = two_point_angles(np.stack([c0.atoms, c1.atoms]))
            exact = two_point_optimum(psi[0], psi[1], lam_c.weights, self.N_STEPS, eps)
            assert np.abs(two_point_angles(twin.path.atoms) - exact).max() <= 1e-7

    @pytest.mark.parametrize("n,d,eps", CASES[::2])
    def test_fiberwise_unitaries_conjugate_the_bridge(self, n, d, eps):
        rng = np.random.default_rng(3 + 10 * n + d)
        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        v = random_unitaries(rng, (n,), d)
        vh = np.conj(np.swapaxes(v, -1, -2))
        h0, h1 = (g.with_atoms(v @ g.atoms @ vh) for g in (g0, g1))
        ts = np.linspace(0.0, 1.0, self.N_STEPS + 1)
        assert np.abs(fisher_rao_geodesic(h0, h1, ts).atoms - v @ fisher_rao_geodesic(g0, g1, ts).atoms @ vh).max() <= 1e-13
        cfg = SchrodingerConfig(epsilon=eps, n_steps=self.N_STEPS)
        res, turned = solve_bridge(g0, g1, lam, cfg), solve_bridge(h0, h1, lam, cfg)
        assert res.converged and turned.converged
        assert turned.objective == pytest.approx(res.objective, rel=1e-12)
        assert np.abs(turned.path.atoms - v @ res.path.atoms @ vh).max() <= 1e-7


class TestBridgeVsOracleTrends:
    def test_single_point_midpoint_gap_shrinks_with_epsilon(self, rng):
        # One support point, real SPD unit-trace endpoints: the bridge
        # midpoint approaches the geodesic midpoint as the temperature
        # drops, the same trend the Gaussian oracle shows for the trace.
        sup = Support(("x",))
        d = 2
        lam = uniform_reference(sup, d)
        base = random_real_spd(rng, d)
        base = base / np.trace(base)
        bump = np.diag([0.06, -0.06])
        g0 = MatrixMeasure(sup, (base + bump).astype(complex)[None])
        g1 = MatrixMeasure(sup, (base - bump).astype(complex)[None])
        geo_mid = fisher_rao_geodesic(g0, g1, [0.0, 0.5, 1.0]).slices[1]
        gaps = []
        inflations = []
        for eps in (0.5, 0.2, 0.1):
            cfg = SchrodingerConfig(epsilon=eps, n_steps=8)
            res = solve_bridge(g0, g1, lam, cfg)
            mid = res.path.slices[res.path.n_slices // 2]
            gaps.append(tv_distance(mid, geo_mid))
            a0 = np.real(g0.atoms[0])
            a1 = np.real(g1.atoms[0])
            oracle = gaussian_bridge_oracle(a0, a1, eps, [0.5])
            geo_fiber = bures_geodesic(g0.atoms[0], g1.atoms[0], [0.5]).points[0]
            inflations.append(float(np.real(np.trace(oracle.points[0] - geo_fiber))))
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12
        assert inflations[0] >= inflations[1] >= inflations[2] - 1e-12
