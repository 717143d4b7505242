import math
import warnings

import numpy as np
import pytest

from frgeo.bures import bures_geodesic
from frgeo.entropy_flow import entropy
from frgeo.exceptions import (
    AntipodalError,
    FRGeoError,
    InfiniteEndpointEntropyError,
    NotProbabilityError,
    SingularMatrixError,
)
from frgeo.fisher_rao import (
    MeasurePath,
    fisher_rao_distance,
    fisher_rao_geodesic,
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
        path = MeasurePath(times, tuple(eq for _ in times))
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
        slices = list(path.slices)
        slices[4] = slices[4].with_atoms(1.01 * slices[4].atoms)
        with pytest.raises(NotProbabilityError, match="slice 4"):
            discrete_objective(MeasurePath(path.times, slices), lam, 0.1)

    def test_infinite_on_singular_interior(self, rng):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        g = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        singular = MatrixMeasure(
            sup,
            np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex),
        )
        path = MeasurePath(np.linspace(0, 1, 9), tuple([g] * 4 + [singular] + [g] * 4))
        kin, fis = discrete_objective(path, lam, 0.2)
        assert math.isinf(fis)


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

    def test_equilibrium_fixed(self):
        lam = uniform_reference(make_support(2), 2)
        eq = reference_identity(lam)
        times = np.linspace(0, 1, 9)
        path = MeasurePath(times, tuple(eq for _ in times))
        out = recovery_sequence(path, lam, 0.3)
        for s in out.slices:
            assert tv_distance(s, eq) <= 1e-14

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
        path = MeasurePath(np.array([0.0, 0.5, 1.0]), (singular, g1, g1))
        with pytest.raises(InfiniteEndpointEntropyError):
            recovery_sequence(path, lam, 0.1)


def bridge_forward(ends, fac, weights, epsilon):
    """The objective evaluation of ``solve_bridge`` at free interior factors
    ``fac``: slices ``Y_k = F_k / |F_k|`` between the pinned end roots ``ends``."""
    from frgeo.schrodinger import _stack_objective

    norms = np.sqrt((np.abs(fac) ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    return _stack_objective(np.concatenate([ends[:1], fac / norms, ends[1:]]), weights, epsilon)


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
        from frgeo.schrodinger import _bridge_gradient

        n, d, n_steps = g0.n, g0.atoms.shape[-1], 8
        eps = 0.3
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))
        shape = (n_steps - 1, n, d, d)
        factors = 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        def full_obj(fac):
            fwd = bridge_forward(ends, fac, lam.weights, eps)
            return fwd.kinetic + fwd.fisher_term

        grad = _bridge_gradient(factors, bridge_forward(ends, factors, lam.weights, eps), lam.weights, eps)
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
        from frgeo.schrodinger import _bridge_gradient

        g0, g1, lam = zero_weight_boundary_pair()
        n_steps = 12
        path = recovery_sequence(fisher_rao_geodesic(g0, g1, np.linspace(0, 1, n_steps + 1)), lam, 0.2)
        factors = psd_sqrt(np.stack([g.atoms for g in path.slices[1:-1]]))
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))

        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        fwd = bridge_forward(ends, factors, lam.weights, 0.2)
        assert calls == [("svd", (n_steps, 2, 2, 2)), ("eigh", (n_steps + 1, 2, 2, 2))]
        calls.clear()
        grad = _bridge_gradient(factors, fwd, lam.weights, 0.2)
        assert calls == []
        assert np.all(np.isfinite(grad))

        # The boundary solve stays clear of numpy's invalid-value and
        # division warnings (the Fisher term inverts on the range only).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=0.2, n_steps=n_steps))
        assert res.converged

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
        with pytest.raises(AntipodalError):
            solve_bridge(g0, g1, lam, cfg)
        init = MeasurePath(np.linspace(0.0, 1.0, 9), tuple([g0] * 8 + [g1]), None, {})
        with pytest.raises(AntipodalError):
            solve_bridge(g0, g1, lam, cfg, init_path=init)

    @pytest.mark.parametrize("warm", [False, True])
    def test_endpoint_checks_run_once(self, rng, monkeypatch, warm):
        from frgeo import fisher_rao, schrodinger

        g0, g1, lam = finite_entropy_pair(rng)
        cfg = SchrodingerConfig(epsilon=0.3, n_steps=8, max_iters=5)
        init = solve_bridge(g0, g1, lam, cfg).path if warm else None
        calls = []
        # The cold path checks the endpoints inside the geodesic, the warm
        # path inside fisher_rao_distance: one sphere check per endpoint.
        for module, name in ((schrodinger, "entropy"), (fisher_rao, "check_probability")):
            def counted(*args, _original=getattr(module, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        solve_bridge(g0, g1, lam, cfg, init_path=init)
        assert sorted(calls) == ["check_probability", "check_probability", "entropy", "entropy"]

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

        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        path = recovery_sequence(fisher_rao_geodesic(g0, g1, np.linspace(0, 1, n_steps + 1)), lam, 0.2)
        factors = psd_sqrt(np.stack([g.atoms for g in path.slices[1:-1]]))
        ends = psd_sqrt(np.stack([g0.atoms, g1.atoms]))
        values = []
        for _ in range(100):
            alpha = np.exp(rng.uniform(-2.0, 2.0, n_steps - 1))[:, None, None, None]
            fac = alpha * factors @ random_unitaries(rng, (n_steps - 1, n), d)
            fwd = bridge_forward(ends, fac, lam.weights, 0.2)
            values.append(fwd.kinetic + fwd.fisher_term)
        assert (max(values) - min(values)) / np.mean(values) <= 1e-13

    @pytest.mark.parametrize("n,d,n_steps", [(2, 2, 12), (2, 2, 64), (3, 2, 96)])
    def test_reported_objective_is_the_objective_of_its_path(self, rng, n, d, n_steps):
        g0, g1, lam = finite_entropy_pair(rng, n=n, d=d)
        for eps in (0.2, 0.05):
            res = solve_bridge(g0, g1, lam, SchrodingerConfig(epsilon=eps, n_steps=n_steps))
            assert res.converged
            assert sum(discrete_objective(res.path, lam, eps)) == pytest.approx(res.objective, rel=1e-13)


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
        assert all(r.error is None and r.converged for r in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.objective <= a.objective * 1.01
            assert b.tv_gap <= a.tv_gap * 1.05 + 1e-9

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

    def test_failing_rows_flagged_and_sweep_continues(self, rng):
        # Infinite-entropy endpoints make every bridge solve fail; the sweep
        # must flag each row and still return the full table.
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        g1 = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
        cfg = SchrodingerConfig(epsilon=0.5, n_steps=8)
        rows = gamma_sweep(singular, g1, lam, [0.5, 0.2], cfg)
        assert len(rows) == 2
        assert all(r.error is not None and not r.converged for r in rows)
        assert all(math.isnan(r.objective) for r in rows)

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
