import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgeo.entropy_flow import (
    TangentVector,
    entropy,
    entropy_decay_check,
    entropy_gradient_potential,
    fiber_entropies,
    fisher_information,
    flow_table,
    fr_gradient_entropy,
    heat_flow,
    slice_entropies,
    tangent_norm_sq,
    tangent_realization,
    von_neumann_entropy,
)
from frgeo.exceptions import NotProbabilityError, SingularMatrixError
from frgeo.hpsd import logdet, spd_inverse
from frgeo.measures import (
    MatrixMeasure,
    ReferenceMeasure,
    Support,
    make_support,
    mass,
    reference_identity,
    scale_measure,
    tv_distance,
    uniform_reference,
)
from frgeo.testing import random_finite_entropy_measure, random_probability_measure, random_psd, random_spd


def scalar_setup(value):
    sup = Support(("x",))
    lam = ReferenceMeasure(sup, 1, np.array([1.0]))
    g = MatrixMeasure(sup, np.array([[[value]]], dtype=complex))
    return g, lam


class TestEntropy:
    def test_minimum_at_weighted_identity(self):
        lam = uniform_reference(make_support(3), 2)
        assert entropy(reference_identity(lam), lam) == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_density_infinite(self):
        sup = make_support(2)
        lam = uniform_reference(sup, 2)
        atoms = np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        g = MatrixMeasure(sup, atoms)
        assert entropy(g, lam) == math.inf

    def test_scalar_half_mass(self):
        g, lam = scalar_setup(0.5)
        assert entropy(g, lam) == pytest.approx(math.log(2.0))

    def test_nonnegative_with_zero_only_at_equilibrium(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            g = random_finite_entropy_measure(rng, n, d, support=sup, lam=lam)
            e = entropy(g, lam)
            assert e >= -1e-12
            if e <= 1e-8:
                assert tv_distance(g, reference_identity(lam)) <= 1e-3

    def test_ignores_weightless_atoms(self, rng):
        sup = make_support(2)
        lam = ReferenceMeasure(sup, 2, np.array([0.5, 0.0]))
        atoms = np.stack([0.5 * np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
        g = MatrixMeasure(sup, atoms)
        # The second atom is singular but carries no reference weight.
        assert math.isfinite(entropy(g, lam))
        fibers = fiber_entropies(g, lam)
        assert fibers[1] == 0.0


class TestFisherInformation:
    def test_zero_at_equilibrium(self):
        lam = uniform_reference(make_support(2), 3)
        assert fisher_information(reference_identity(lam), lam) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_half_mass(self):
        g, lam = scalar_setup(0.5)
        assert fisher_information(g, lam) == pytest.approx(1.0)

    def test_single_fiber_reduction(self, rng):
        # One atom with weight w: F = w^2 tr(G^{-1}) - d * w restated through
        # the density, computed here directly from eigenvalues as the oracle.
        sup = Support(("x",))
        d = 3
        lam = ReferenceMeasure(sup, d, np.array([1.0 / d]))
        a = random_probability_measure(rng, 1, d, definite=True, support=sup)
        w = 1.0 / d
        oracle = w * (w * np.sum(1.0 / np.linalg.eigvalsh(a.atoms[0])) - d)
        assert fisher_information(a, lam) == pytest.approx(float(np.real(oracle)), rel=1e-10)

    def test_singular_infinite(self):
        sup = Support(("x",))
        lam = ReferenceMeasure(sup, 2, np.array([0.5]))
        g = MatrixMeasure(sup, np.diag([1.0, 0.0]).astype(complex)[None])
        assert fisher_information(g, lam) == math.inf


class TestHeatFlow:
    @pytest.mark.parametrize("t", [-0.5, math.nan])
    def test_negative_or_nan_time_rejected(self, rng, t):
        # NaN compares false with everything, so a plain `< 0` test misses it.
        g = random_probability_measure(rng, 2, 2)
        with pytest.raises(ValueError, match="flow time must be nonnegative"):
            heat_flow(g, uniform_reference(g.support, 2), t)

    def test_fixed_point(self):
        lam = uniform_reference(make_support(3), 2)
        eq = reference_identity(lam)
        for t in [0.0, 0.5, 3.0]:
            assert tv_distance(heat_flow(eq, lam, t), eq) <= 1e-14

    def test_time_zero_identity(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        assert tv_distance(heat_flow(g, lam, 0.0), g) == 0.0

    def test_infinite_time_reaches_equilibrium_exactly(self, rng):
        # e^{-inf} = 0, so S_inf(G) = L, weightless atoms decayed to zero.
        sup = make_support(3)
        lam = ReferenceMeasure(sup, 2, np.array([0.25, 0.0, 0.25]))
        g = random_probability_measure(rng, 3, 2, support=sup)
        assert np.array_equal(heat_flow(g, lam, math.inf).atoms, reference_identity(lam).atoms)

    def test_exponential_tv_decay(self, rng):
        g = random_probability_measure(rng, 3, 2)
        lam = uniform_reference(g.support, 2)
        eq = reference_identity(lam)
        d0 = tv_distance(g, eq)
        for t in [0.1, 1.0, 5.0]:
            assert tv_distance(heat_flow(g, lam, t), eq) == pytest.approx(math.exp(-t) * d0, rel=1e-12)

    def test_semigroup_law(self, rng):
        for _ in range(30):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            g = random_probability_measure(rng, n, d, support=sup)
            s, t = rng.uniform(0, 2, 2)
            a = heat_flow(heat_flow(g, lam, s), lam, t)
            b = heat_flow(g, lam, s + t)
            assert tv_distance(a, b) <= 1e-12

    def test_mass_conserved_on_sphere(self, rng):
        g = random_probability_measure(rng, 2, 3)
        lam = uniform_reference(g.support, 3)
        assert mass(heat_flow(g, lam, 0.7)) == pytest.approx(mass(g), abs=1e-12)

    def test_preserves_psd(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        st = heat_flow(g, lam, 0.5)
        assert np.linalg.eigvalsh(st.atoms).min() >= -1e-12

    def test_weightless_atoms_decay_exponentially(self, rng):
        sup = make_support(2)
        lam = ReferenceMeasure(sup, 2, np.array([0.5, 0.0]))
        atoms = np.stack([0.25 * np.eye(2), 0.25 * np.eye(2)]).astype(complex)
        g = MatrixMeasure(sup, atoms)
        st = heat_flow(g, lam, 0.9)
        assert np.allclose(st.atoms[1], math.exp(-0.9) * atoms[1])


def heat_flow_residual(g, lam, t, dt):
    """TV norm of the heat flow's forward-difference defect
    ``(S_{t+dt}G - S_tG)/dt - (L - S_tG)``, first order in ``dt``."""
    a, b = heat_flow(g, lam, t).atoms, heat_flow(g, lam, t + dt).atoms
    return float(np.linalg.norm((b - a) / dt - (reference_identity(lam).atoms - a), axis=(1, 2)).sum())


class TestHeatFlowResidual:
    def test_zero_at_equilibrium(self):
        lam = uniform_reference(make_support(2), 2)
        assert heat_flow_residual(reference_identity(lam), lam, 0.3, 1e-4) <= 1e-14

    def test_first_order_bound(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        dist = tv_distance(g, reference_identity(lam))
        assert heat_flow_residual(g, lam, 0.0, 1e-4) <= 1e-3 * dist

    def test_halves_with_dt(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        r1 = heat_flow_residual(g, lam, 0.2, 1e-3)
        r2 = heat_flow_residual(g, lam, 0.2, 5e-4)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-2)


class TestEntropyDecay:
    def test_equilibrium(self):
        lam = uniform_reference(make_support(2), 2)
        lhs, rhs = entropy_decay_check(reference_identity(lam), lam, 0.1, 0.5)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_equal_times(self, rng):
        g = random_finite_entropy_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        lhs, rhs = entropy_decay_check(g, lam, 0.4, 0.4)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_random_instances(self, rng):
        for _ in range(100):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            g = random_probability_measure(rng, n, d, support=sup)
            s, t = sorted(rng.uniform(0.0, 1.5, 2))
            lhs, rhs = entropy_decay_check(g, lam, float(s), float(t))
            assert lhs <= rhs + 1e-10

    def test_fiberwise_decay(self, rng):
        g = random_finite_entropy_measure(rng, 3, 2)
        lam = uniform_reference(g.support, 2)
        s, t = 0.1, 0.7
        fib_s = fiber_entropies(heat_flow(g, lam, s), lam)
        fib_t = fiber_entropies(heat_flow(g, lam, t), lam)
        assert np.all(fib_t <= math.exp(-(t - s)) * fib_s + 1e-10)


class TestGradient:
    def test_zero_at_equilibrium(self):
        lam = uniform_reference(make_support(2), 2)
        grad = fr_gradient_entropy(reference_identity(lam), lam)
        assert np.abs(grad.atoms).max() <= 1e-14

    def test_total_trace_zero(self, rng):
        g = random_probability_measure(rng, 3, 2)
        lam = uniform_reference(g.support, 2)
        grad = fr_gradient_entropy(g, lam)
        assert np.real(np.trace(grad.atoms, axis1=1, axis2=2)).sum() == pytest.approx(0.0, abs=1e-12)

    def test_heat_flow_is_negative_gradient_flow(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        grad = fr_gradient_entropy(g, lam)
        dt = 1e-5
        fd = (heat_flow(g, lam, dt).atoms - g.atoms) / dt
        err = float(np.linalg.norm(fd + grad.atoms, axis=(1, 2)).sum())
        assert err <= 1.0 * dt * max(1.0, tv_distance(g, reference_identity(lam)))

    def test_requires_probability(self, rng):
        g = random_probability_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        with pytest.raises(NotProbabilityError):
            fr_gradient_entropy(scale_measure(g, 2.0), lam)


class TestTangentNormSq:
    def test_mass_direction_modded_out(self, rng):
        g = random_probability_measure(rng, 2, 2)
        eye = np.broadcast_to(np.eye(2, dtype=complex), g.atoms.shape)
        v = TangentVector(g, 3.7 * eye)
        assert tangent_norm_sq(v) == pytest.approx(0.0, abs=1e-10)

    def test_mean_zero_potential_gives_plain_energy(self, rng):
        g = random_probability_measure(rng, 2, 2)
        u = np.stack([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])]).astype(complex)
        mean = float(np.real(np.vdot(g.atoms, u)))
        u = u - mean * np.broadcast_to(np.eye(2, dtype=complex), u.shape)
        v = TangentVector(g, u)
        energy = float(np.real(np.vdot(u, g.atoms @ u)))
        mean2 = float(np.real(np.vdot(g.atoms, u)))
        assert tangent_norm_sq(v) == pytest.approx(energy - mean2**2, rel=1e-12)

    def test_entropy_gradient_norm_is_fisher_information(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            g = random_finite_entropy_measure(rng, n, d, support=sup, lam=lam)
            v = entropy_gradient_potential(g, lam)
            f = fisher_information(g, lam)
            assert tangent_norm_sq(v) == pytest.approx(f, rel=1e-9, abs=1e-9)

    def test_gradient_potential_is_exactly_hermitian(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            u = entropy_gradient_potential(random_finite_entropy_measure(rng, n, d, support=sup, lam=lam), lam).potential
            assert np.array_equal(u, np.conj(np.swapaxes(u, -1, -2)))

    def test_realized_vector_traceless(self, rng):
        g = random_probability_measure(rng, 3, 2)
        lam = uniform_reference(g.support, 2)
        gdef = random_finite_entropy_measure(rng, 3, 2, support=g.support, lam=lam)
        xi = tangent_realization(entropy_gradient_potential(gdef, lam))
        assert np.real(np.trace(xi, axis1=1, axis2=2)).sum() == pytest.approx(0.0, abs=1e-10)


class TestEntropyProduction:
    def test_production_matches_fisher(self, rng):
        dt = 1e-5
        for _ in range(20):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sup = make_support(n)
            lam = uniform_reference(sup, d)
            g = random_finite_entropy_measure(rng, n, d, support=sup, lam=lam)
            f = fisher_information(g, lam)
            if f <= 1e-8:
                continue
            e0 = entropy(g, lam)
            e1 = entropy(heat_flow(g, lam, dt), lam)
            assert (e0 - e1) / dt == pytest.approx(f, rel=1e-3)


class TestVonNeumannDiagnostic:
    def test_scalar_equilibrium(self):
        g, lam = scalar_setup(1.0)
        assert von_neumann_entropy(g, lam) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_fiber(self):
        sup = Support(("x",))
        lam = ReferenceMeasure(sup, 2, np.array([0.5]))
        g = MatrixMeasure(sup, np.diag([0.5, 0.0]).astype(complex)[None])
        # Density diag(1, 0): von Neumann value 0 under the 0 log 0 = 0 rule.
        assert von_neumann_entropy(g, lam) == pytest.approx(0.0, abs=1e-12)


class TestFlowTable:
    def test_no_times_no_rows(self, rng):
        g = random_finite_entropy_measure(rng, 2, 2)
        assert flow_table(g, uniform_reference(g.support, 2), np.linspace(0.0, 1.0, 0)) == []

    def test_columns_and_monotonicity(self, rng):
        g = random_finite_entropy_measure(rng, 2, 2)
        lam = uniform_reference(g.support, 2)
        rows = flow_table(g, lam, np.linspace(0.0, 2.0, 9))
        assert len(rows) == 9
        ent = [r[1] for r in rows]
        tv = [r[4] for r in rows]
        assert all(ent[i + 1] <= ent[i] + 1e-12 for i in range(8))
        assert all(tv[i + 1] <= tv[i] + 1e-12 for i in range(8))
        assert all(r[3] == pytest.approx(1.0, abs=1e-9) for r in rows)


class TestFlowTableClosedForm:
    """The table's closed form against its per-slice definition on
    ``heat_flow(g, lam, t)``."""

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d=st.integers(1, 3))
    def test_matches_per_slice_definition(self, seed, n, d):
        gen = np.random.default_rng(seed)
        sup = make_support(n)
        # Zero, rank-deficient and definite atoms at scales 1e-3..1e3; some
        # of them weightless.
        atoms = np.zeros((n, d, d), dtype=complex)
        for i, k in enumerate(gen.integers(0, 3, n)):
            scale = 10.0 ** gen.uniform(-3.0, 3.0)
            if k == 2:
                atoms[i] = random_spd(gen, d, scale=scale)
            elif k == 1 and d > 1:
                atoms[i] = random_psd(gen, d, rank=int(gen.integers(1, d)), scale=scale)
        w = gen.uniform(0.1, 1.0, n) * (gen.random(n) < 0.7)
        w[int(gen.integers(0, n))] = 1.0
        lam = ReferenceMeasure(sup, d, w / (d * w.sum()))
        g = MatrixMeasure(sup, atoms)
        ts = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 4.0, 5))])

        target = reference_identity(lam)
        want, slack = [], []
        for t in ts:
            st_g = heat_flow(g, lam, float(t))
            want.append((t, entropy(st_g, lam), fisher_information(st_g, lam), mass(st_g), tv_distance(st_g, target)))
            # Either route puts an error of about eps * lambda_max of its atom
            # on each eigenvalue; on an ill-conditioned density (a flowed
            # rank-deficient atom) that moves -log(lambda / w) by about
            # eps * lambda_max / lambda and w / lambda by w times that over
            # lambda. The tolerance allows that much on top of 1e-12 relative.
            pos = lam.weights > 0.0
            eigs, w = np.linalg.eigvalsh(st_g.atoms[pos]), lam.weights[pos][:, None]
            rel = np.where(eigs > 0.0, 1e-15 * eigs[:, -1:] / np.where(eigs > 0.0, eigs, 1.0), 0.0)
            slack.append((0.0, np.sum(w * rel), np.sum(w * w * rel / np.where(eigs > 0.0, eigs, 1.0)), 0.0, 0.0))
        got, want = np.array(flow_table(g, lam, ts)), np.array(want)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        tol = 1e-12 * np.abs(want) + np.array(slack)
        assert np.all(np.abs(got[finite] - want[finite]) <= tol[finite])

    def test_negative_time_rejected(self, rng):
        g = random_finite_entropy_measure(rng, 2, 2)
        with pytest.raises(ValueError, match="flow time must be nonnegative, got -0.5"):
            flow_table(g, uniform_reference(g.support, 2), [0.0, 1.0, -0.5, -1.0])
        with pytest.raises(ValueError, match="flow time must be nonnegative, got nan"):
            flow_table(g, uniform_reference(g.support, 2), [0.0, math.nan, 1.0])

    def test_slice_entropies_match_per_slice_calls(self, rng):
        sup = make_support(3)
        lam = uniform_reference(sup, 2)
        slices = [random_finite_entropy_measure(rng, 3, 2, support=sup) for _ in range(4)]
        slices.append(MatrixMeasure(sup, np.stack([np.diag([0.5, 0.0]), np.eye(2) / 6, np.eye(2) / 6]).astype(complex)))
        entropies, fishers = slice_entropies(np.stack([g.atoms for g in slices]), lam)
        assert entropies.tolist() == [entropy(g, lam) for g in slices]
        assert fishers.tolist() == [fisher_information(g, lam) for g in slices]
        assert entropies[-1] == fishers[-1] == math.inf


class TestStackedAgainstAtoms:
    """Entropy, Fisher information and the gradient potential run one stack
    call over all atoms; here they meet their per-atom definitions."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d=st.integers(1, 3))
    def test_match_per_atom_definitions(self, seed, n, d):
        gen = np.random.default_rng(seed)
        sup = make_support(n)
        # Zero, rank-deficient and definite atoms at scales 1e-3..1e3; some
        # of them weightless.
        atoms = np.zeros((n, d, d), dtype=complex)
        for i, k in enumerate(gen.integers(0, 3, n)):
            scale = 10.0 ** gen.uniform(-3.0, 3.0)
            if k == 2:
                atoms[i] = random_spd(gen, d, scale=scale)
            elif k == 1 and d > 1:
                atoms[i] = random_psd(gen, d, rank=int(gen.integers(1, d)), scale=scale)
        w = gen.uniform(0.1, 1.0, n) * (gen.random(n) < 0.7)
        w[int(gen.integers(0, n))] = 1.0
        lam = ReferenceMeasure(sup, d, w / (d * w.sum()))
        g = MatrixMeasure(sup, atoms)

        fibers, fisher, potential, singular = np.zeros(n), 0.0, np.zeros_like(g.atoms), []
        for i, wi in enumerate(lam.weights):
            if wi == 0.0:
                continue
            dens = g.atoms[i] / wi
            try:
                fibers[i] = -logdet(dens)
            except SingularMatrixError:
                fibers[i] = math.inf
                singular.append(sup.point_ids[i])
                continue
            potential[i] = spd_inverse(dens)
            fisher += wi * (np.real(np.trace(potential[i])) - d)

        assert fiber_entropies(g, lam) == pytest.approx(fibers, rel=1e-12, abs=1e-12)
        if singular:
            assert entropy(g, lam) == math.inf
            assert fisher_information(g, lam) == math.inf
            with pytest.raises(SingularMatrixError, match=f"'{singular[0]}'"):
                entropy_gradient_potential(g, lam)
        else:
            assert entropy(g, lam) == pytest.approx(float(np.dot(lam.weights, fibers)), rel=1e-12, abs=1e-12)
            assert fisher_information(g, lam) == pytest.approx(fisher, rel=1e-12, abs=1e-12)
            got = entropy_gradient_potential(g, lam).potential
            assert np.abs(got - potential).max() <= 1e-12 * max(1.0, np.abs(potential).max())


class TestSingularAtEveryScale:
    """A rank-deficient density has infinite entropy and Fisher information
    whatever its scale and reference weight; a well-conditioned definite one
    stays finite."""

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        log_scale=st.floats(-3.0, 3.0),
        share=st.floats(0.01, 1.0),
    )
    def test_rank_deficient_infinite_definite_finite(self, seed, d, log_scale, share):
        gen = np.random.default_rng(seed)
        s = 10.0**log_scale
        sup = make_support(2)
        # The first atom's reference weight is share / d.
        lam = ReferenceMeasure(sup, d, np.array([share, 1.0 - share]) / d)
        other = random_spd(gen, d)
        deficient = random_psd(gen, d, rank=int(gen.integers(0, d)), scale=s)
        g = MatrixMeasure(sup, np.stack([deficient, other]))
        assert fiber_entropies(g, lam)[0] == math.inf
        assert entropy(g, lam) == math.inf
        assert fisher_information(g, lam) == math.inf
        with pytest.raises(SingularMatrixError, match=f"'{sup.point_ids[0]}'"):
            entropy_gradient_potential(g, lam)

        definite = g.with_atoms(np.stack([random_spd(gen, d, jitter=1.0, scale=s), other]))
        assert math.isfinite(entropy(definite, lam))
        assert math.isfinite(fisher_information(definite, lam))
        assert np.isfinite(entropy_gradient_potential(definite, lam).potential).all()
