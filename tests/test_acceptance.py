"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``PASS criterion-N`` line on success; a failing
criterion is reported through the usual pytest failure for that test.
Desk scale throughout: d in 1..4, small supports, N <= 64 time steps.
"""

import functools
import math

import numpy as np
import pytest

from frgeo import io as fio
from frgeo import selftest
from frgeo.bures import (
    bures_distance_sq,
    bures_geodesic,
    bures_real_embedding_check,
    dynamical_bures_solver,
)
from frgeo.cli import main
from frgeo.entropy_flow import (
    entropy,
    entropy_decay_check,
    entropy_gradient_potential,
    fisher_information,
    heat_flow,
    tangent_norm_sq,
)
from frgeo.fisher_rao import (
    fisher_rao_distance,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
    tv_comparison_check,
)
from frgeo.hpsd import hermitian_part, psd_sqrt
from frgeo.measures import (
    ReferenceMeasure,
    make_support,
    mass,
    reference_identity,
    tv_distance,
    uniform_reference,
)
from frgeo.schrodinger import (
    SchrodingerConfig,
    discrete_objective,
    gamma_sweep,
    gaussian_bridge_oracle,
    recovery_sequence,
)
from frgeo.testing import (
    random_finite_entropy_measure,
    random_hermitian,
    random_measure,
    random_probability_measure,
    random_psd,
    random_real_spd,
    random_spd,
)


def _report(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def _commuting_psd_pair(rng, d):
    q = np.linalg.eigh(random_hermitian(rng, d)).eigenvectors
    p0 = rng.uniform(0.0, 3.0, d)
    p1 = rng.uniform(0.0, 3.0, d)
    a0 = hermitian_part((q * p0) @ np.conj(q.T))
    a1 = hermitian_part((q * p1) @ np.conj(q.T))
    return a0, a1


def test_criterion_01_closed_form_consistency():
    rng = np.random.default_rng(101)
    worst_sym = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 5))
        # Mix in rank-deficient matrices: the identity must hold on the
        # whole PSD cone, not just its interior.
        rank0 = None if rng.random() < 0.7 else int(rng.integers(1, d + 1))
        rank1 = None if rng.random() < 0.7 else int(rng.integers(1, d + 1))
        a0, a1 = random_psd(rng, d, rank=rank0), random_psd(rng, d, rank=rank1)
        worst_sym = max(worst_sym, abs(bures_distance_sq(a0, a1) - bures_distance_sq(a1, a0)))
    assert worst_sym <= 1e-9
    worst_comm = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a0, a1 = _commuting_psd_pair(rng, d)
        explicit = np.linalg.norm(psd_sqrt(a1) - psd_sqrt(a0)) ** 2
        worst_comm = max(worst_comm, abs(bures_distance_sq(a0, a1) - explicit))
    assert worst_comm <= 1e-9
    _report("criterion-01 closed-form consistency", f"sym {worst_sym:.1e}, commuting {worst_comm:.1e}")


def test_criterion_02_real_embedding_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a0, a1 = random_psd(rng, d), random_psd(rng, d)
        lhs, rhs = bures_real_embedding_check(a0, a1)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9
    _report("criterion-02 real-embedding identity", f"worst {worst:.1e}")


def test_criterion_03_dynamical_equals_static():
    rng = np.random.default_rng(103)
    dims = [1] * 14 + [2] * 5 + [3]
    worst_rel = 0.0
    iterations = 0
    for d in dims:
        a0, a1 = random_spd(rng, d), random_spd(rng, d)
        closed = bures_distance_sq(a0, a1)
        res = dynamical_bures_solver(a0, a1, 64)
        assert res.converged
        rel = abs(res.value - closed) / closed
        worst_rel = max(worst_rel, rel)
        iterations += res.iterations
    assert worst_rel <= 1e-3
    # The time preconditioner keeps the solves short: plain L-BFGS took 2507.
    assert iterations < 251
    # Error shrinks as the grid doubles (one representative pair).
    a0, a1 = random_spd(rng, 2), random_spd(rng, 2)
    closed = bures_distance_sq(a0, a1)
    errs = [abs(dynamical_bures_solver(a0, a1, n).value - closed) for n in (8, 16, 32)]
    assert errs[1] <= 0.3 * errs[0]
    assert errs[2] <= 0.3 * errs[1]
    _report(
        "criterion-03 dynamical = static fiber distance",
        f"worst rel {worst_rel:.2%} in {iterations} iterations, grid errors {errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}",
    )


def test_criterion_04_hellinger_mass_identities():
    rng = np.random.default_rng(104)
    for _ in range(200):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sup = make_support(n)
        g0 = random_measure(rng, n, d, support=sup)
        g1 = random_measure(rng, n, d, support=sup)
        zero = g0.with_atoms(np.zeros_like(g0.atoms))
        assert hellinger_distance_sq(g0, zero) == pytest.approx(4.0 * mass(g0), rel=1e-14)
        slack = 4.0 * (mass(g0) + mass(g1)) - hellinger_distance_sq(g0, g1)
        assert slack >= -1e-9
    _report("criterion-04 mass identities", "d_H^2(G,0) = 4m and the 4(m0+m1) bound")


def test_criterion_05_cone_scaling():
    rng = np.random.default_rng(105)
    from frgeo.fisher_rao import cone_scaling_check

    worst = 0.0
    for _ in range(200):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sup = make_support(n)
        g0 = random_probability_measure(rng, n, d, support=sup)
        g1 = random_probability_measure(rng, n, d, support=sup)
        r0, r1 = rng.uniform(0.0, 2.5, 2)
        lhs, rhs = cone_scaling_check(g0, g1, float(r0), float(r1))
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    assert worst <= 1e-8
    _report("criterion-05 cone scaling", f"worst rel {worst:.1e}")


def test_criterion_06_metric_axioms():
    rng = np.random.default_rng(106)
    worst_h = worst_fr = -np.inf
    for _ in range(200):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sup = make_support(n)
        g0 = random_probability_measure(rng, n, d, support=sup)
        g1 = random_probability_measure(rng, n, d, support=sup)
        g2 = random_probability_measure(rng, n, d, support=sup)
        dh = lambda a, b: math.sqrt(hellinger_distance_sq(a, b))
        worst_h = max(worst_h, dh(g0, g2) - dh(g0, g1) - dh(g1, g2))
        dfr01 = fisher_rao_distance(g0, g1)
        worst_fr = max(worst_fr, fisher_rao_distance(g0, g2) - dfr01 - fisher_rao_distance(g1, g2))
        assert dfr01 <= np.pi + 1e-9
    assert worst_h <= 1e-8
    assert worst_fr <= 1e-8
    _report("criterion-06 metric axioms", f"triangle slacks {worst_h:.1e}, {worst_fr:.1e}")


def test_criterion_07_tv_sandwich():
    rng = np.random.default_rng(107)
    for _ in range(500):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sup = make_support(n)
        g0 = random_measure(rng, n, d, support=sup)
        g1 = random_measure(rng, n, d, support=sup)
        lower, mid, upper = tv_comparison_check(g0, g1)
        assert mid - lower >= -1e-9
        assert upper - mid >= -1e-9
    _report("criterion-07 TV sandwich", "500 pairs")


def test_criterion_08_geodesic_structure(fiber_formulas):
    rng = np.random.default_rng(108)
    for _ in range(50):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sup = make_support(n)
        g0 = random_probability_measure(rng, n, d, definite=True, support=sup)
        g1 = random_probability_measure(rng, n, d, definite=True, support=sup)
        dfr = fisher_rao_distance(g0, g1)
        if dfr >= np.pi - 1e-3:
            continue
        mid = fisher_rao_geodesic(g0, g1, [0.0, 0.5, 1.0]).slices[1]
        assert fisher_rao_distance(g0, mid) == pytest.approx(dfr / 2.0, rel=1e-13, abs=1e-15)
        assert fisher_rao_distance(mid, g1) == pytest.approx(dfr / 2.0, rel=1e-13, abs=1e-15)

        ts = np.linspace(0.0, 1.0, 9)
        hgeo = hellinger_geodesic(g0, g1, ts)
        masses = mass(hgeo)
        assert np.all(masses >= 1.0 - 2.0 * ts * (1.0 - ts) - 1e-9)
        exact = fiber_formulas.masses(g0, g1, ts)
        assert np.max(np.abs(masses - exact)) <= 1e-14 * max(1.0, float(np.max(np.abs(exact))))
        # The same exact interpolation from a rank-deficient start: g0 with
        # each atom's smallest eigenvalue set to zero.
        w, v = np.linalg.eigh(g0.atoms)
        w[:, 0] = 0.0
        gs = g0.with_atoms(hermitian_part((v * w[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))))
        masses = mass(hellinger_geodesic(gs, g1, ts))
        exact = fiber_formulas.masses(gs, g1, ts)
        assert np.max(np.abs(masses - exact)) <= 1e-14 * max(1.0, float(np.max(np.abs(exact))))
    _report("criterion-08 geodesic structure", "midpoints, mass bound, exact interpolation to 1e-14 from definite and rank-deficient starts")


def test_criterion_09_heat_flow_and_entropy():
    rng = np.random.default_rng(109)
    for _ in range(100):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sup = make_support(n)
        lam = uniform_reference(sup, d)
        g = random_probability_measure(rng, n, d, support=sup)
        s, t = sorted(rng.uniform(0.0, 1.5, 2))
        a = heat_flow(heat_flow(g, lam, float(s)), lam, float(t))
        b = heat_flow(g, lam, float(s + t))
        assert tv_distance(a, b) <= 1e-12
        lhs, rhs = entropy_decay_check(g, lam, float(s), float(t))
        assert lhs <= rhs + 1e-10

    dt = 1e-5
    for _ in range(50):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sup = make_support(n)
        lam = uniform_reference(sup, d)
        g = random_finite_entropy_measure(rng, n, d, support=sup, lam=lam)
        f = fisher_information(g, lam)
        if f > 1e-8:
            production = (entropy(g, lam) - entropy(heat_flow(g, lam, dt), lam)) / dt
            assert production == pytest.approx(f, rel=1e-3)
        v = entropy_gradient_potential(g, lam)
        assert tangent_norm_sq(v) == pytest.approx(f, rel=1e-9, abs=1e-9)

    # The flow is the entropy's gradient flow for d_FR, and the entropy is
    # (1/2)-convex along its geodesics (criterion 12): together they give the
    # evolution variational inequality at K = 1/2 (Daneri & Savare 2008).
    margins = [_evi_margin(g, h, lam, lambda m, t: heat_flow(m, lam, t)) for g, h, lam, _ in _evi_draws()]
    assert min(margins) >= -EVI_SLACK
    _report(
        "criterion-09 heat flow and entropy",
        f"semigroup, decay, production, gradient norm; EVI(1/2) worst margin {min(margins):.1e}",
    )


EVI_STEP = 1e-5  # flow time step of the one-sided difference
EVI_SLACK = 1e-8  # its round-off and O(h^2) truncation


@functools.lru_cache(maxsize=1)
def _evi_draws():
    """300 seeded finite-entropy pairs ``(G, H, lam, other)`` on one support with
    ``1e-4 <= d_FR^2 <= (pi - 0.3)^2``; ``other`` is a non-uniform reference."""
    rng = np.random.default_rng(9)
    draws = []
    while len(draws) < 300:
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sup = make_support(n)
        lam = uniform_reference(sup, d)
        g, h = (
            random_finite_entropy_measure(rng, n, d, blend=float(rng.uniform(0.05, 0.95)), support=sup, lam=lam)
            for _ in range(2)
        )
        w = rng.uniform(0.2, 1.0, n)
        if 1e-4 <= fisher_rao_distance(g, h) ** 2 <= (np.pi - 0.3) ** 2:
            draws.append((g, h, lam, ReferenceMeasure(sup, d, w / (d * w.sum()))))
    return draws


def _evi_margin(g, h, lam, flow):
    """``E(H) - E(G) - [(1/2) d/dt d_FR^2(S_t G, H)|_0 + (1/4) d_FR^2(G, H)]``
    for the flow ``S_t = flow(., t)``, with the derivative from the one-sided
    second-order difference ``(-3 f(0) + 4 f(s) - f(2s)) / (2s)``."""
    f0, f1, f2 = (fisher_rao_distance(flow(g, t), h) ** 2 for t in (0.0, EVI_STEP, 2.0 * EVI_STEP))
    slope = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * EVI_STEP)
    return entropy(h, lam) - entropy(g, lam) - (0.5 * slope + 0.25 * f0)


def test_criterion_09_evi_detects_a_wrong_flow():
    """The EVI check has power: a flow at the wrong rate, or toward the
    wrong equilibrium, breaks it on some of the first 100 draws."""

    def failures(rate, toward_other):
        count = 0
        for g, h, lam, other in _evi_draws()[:100]:
            eq = reference_identity(other if toward_other else lam).atoms
            flow = lambda m, t: m.with_atoms(eq + math.exp(-rate * t) * (m.atoms - eq))
            count += _evi_margin(g, h, lam, flow) < -EVI_SLACK
        return count

    half, double, off_target = failures(0.5, False), failures(2.0, False), failures(1.0, True)
    # They fail on 45, 7 and 14 of these draws.
    assert half >= 30 and double >= 3 and off_target >= 7
    _report("criterion-09 EVI power", f"wrong flows fail on {half}, {double} and {off_target} of 100 draws")


def test_criterion_10_recovery_upper_bound():
    rng = np.random.default_rng(110)
    for _ in range(50):
        n, d = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        sup = make_support(n)
        lam = uniform_reference(sup, d)
        g0 = random_finite_entropy_measure(rng, n, d, blend=float(rng.uniform(0.3, 0.7)), support=sup, lam=lam)
        g1 = random_finite_entropy_measure(rng, n, d, blend=float(rng.uniform(0.3, 0.7)), support=sup, lam=lam)
        e0, e1 = entropy(g0, lam), entropy(g1, lam)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        times = np.linspace(0.0, 1.0, 33)
        geo = fisher_rao_geodesic(g0, g1, times)
        for eps in (0.05, 0.1, 0.2):
            out = recovery_sequence(geo, lam, eps)
            kin, fis = discrete_objective(out, lam, eps)
            bound = dfr_sq / 2.0 + eps * (e0 + e1)
            assert kin + fis <= bound * 1.02
    _report("criterion-10 recovery upper bound", "50 geodesics x 3 temperatures at N = 32")


def _gamma_pair(rng, eps_min):
    """Finite-entropy pair whose entropy-to-energy ratio leaves room for the
    5% target at the final temperature (the vanishing-temperature bound is
    2 * eps * (E0 + E1), which must stay below ~3.5% of d_FR^2)."""
    sup = make_support(2)
    lam = uniform_reference(sup, 2)
    while True:
        g0 = random_finite_entropy_measure(rng, 2, 2, blend=0.55, support=sup, lam=lam)
        g1 = random_finite_entropy_measure(rng, 2, 2, blend=0.55, support=sup, lam=lam)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        e_total = entropy(g0, lam) + entropy(g1, lam)
        if dfr_sq > 0.05 and 2.0 * eps_min * e_total <= 0.035 * dfr_sq:
            return g0, g1, lam


def test_criterion_11_gamma_convergence():
    rng = np.random.default_rng(111)
    epsilons = [0.5, 0.2, 0.1, 0.05]
    for _ in range(10):
        g0, g1, lam = _gamma_pair(rng, epsilons[-1])
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        cfg = SchrodingerConfig(epsilon=epsilons[0], n_steps=12)
        rows = gamma_sweep(g0, g1, lam, epsilons, cfg)
        final = rows[-1]
        assert abs(2.0 * final.objective - dfr_sq) <= 0.05 * dfr_sq
        for a, b in zip(rows, rows[1:]):
            assert b.objective <= a.objective * 1.05 + 1e-12
            assert b.tv_gap <= a.tv_gap * 1.05 + 1e-12
    _report("criterion-11 vanishing-temperature limit", "10 sweeps, final gap <= 5%")


def test_criterion_12_half_geodesic_convexity():
    rng = np.random.default_rng(112)
    thetas = [0.1 * k for k in range(1, 10)]
    for _ in range(100):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sup = make_support(n)
        lam = uniform_reference(sup, d)
        g0 = random_finite_entropy_measure(rng, n, d, blend=float(rng.uniform(0.3, 0.8)), support=sup, lam=lam)
        g1 = random_finite_entropy_measure(rng, n, d, blend=float(rng.uniform(0.3, 0.8)), support=sup, lam=lam)
        e0, e1 = entropy(g0, lam), entropy(g1, lam)
        dfr_sq = fisher_rao_distance(g0, g1) ** 2
        path = fisher_rao_geodesic(g0, g1, thetas)
        for theta, g in zip(thetas, path.slices):
            lhs = entropy(g, lam)
            rhs = (1 - theta) * e0 + theta * e1 - 0.25 * theta * (1 - theta) * dfr_sq
            assert lhs <= rhs + 1e-6
    _report("criterion-12 half-geodesic convexity", "100 pairs x 9 interpolation points")


def test_criterion_13_gaussian_oracle():
    rng = np.random.default_rng(113)
    # Scalar closed form.
    one = np.array([[1.0]])
    for eps in (0.5, 0.1, 0.01):
        res = gaussian_bridge_oracle(one, one, eps, [0.5])
        expected = (1.0 + math.sqrt(1.0 + eps * eps)) / 2.0
        assert res.points[0][0, 0] == pytest.approx(expected, abs=1e-12)

    # 50 random real SPD pairs within the heat-flow reach of each other:
    # exact marginals.
    eps = 0.15
    count = 0
    while count < 50:
        d = int(rng.integers(1, 4))
        a0 = random_real_spd(rng, d)
        s = rng.standard_normal((d, d))
        s = (s + s.T) / 2.0
        s /= max(float(np.abs(np.linalg.eigvalsh(s)).max()), 1e-12)
        a1 = a0 + 0.7 * 2.0 * eps * s
        if float(np.linalg.eigvalsh(a1).min()) <= 0.02:
            continue
        count += 1
        res = gaussian_bridge_oracle(a0, a1, eps, [0.0, 1.0])
        assert np.linalg.norm(res.points[0] - a0) <= 1e-12 * np.linalg.norm(a0)
        assert np.linalg.norm(res.points[-1] - a1) <= 1e-12 * np.linalg.norm(a1)

    # The vanishing-temperature limit approaches the fiber geodesic.
    a0 = random_real_spd(rng, 2)
    s = rng.standard_normal((2, 2))
    s = (s + s.T) / 2.0
    s /= float(np.abs(np.linalg.eigvalsh(s)).max())
    a1 = a0 + 0.012 * s
    ts = np.linspace(0.0, 1.0, 5)
    geo = bures_geodesic(a0.astype(complex), a1.astype(complex), ts)
    errs = {}
    for eps in (0.1, 0.01):
        res = gaussian_bridge_oracle(a0, a1, eps, ts)
        errs[eps] = max(np.linalg.norm(res.points[k] - geo.points[k]) for k in range(len(ts)))
    # The bridge leaves the geodesic at O(eps^2): the ratio is about 0.01.
    assert errs[0.01] <= 0.02 * errs[0.1]
    _report(
        "criterion-13 Gaussian oracle",
        f"closed form 1e-12, marginals 1e-12 relative, limit errors {errs[0.1]:.1e} -> {errs[0.01]:.1e}",
    )


def test_criterion_14_cli_contract(rng, tmp_path, capsys):
    import os

    sup = make_support(2)
    lam = uniform_reference(sup, 2)
    g = random_finite_entropy_measure(rng, 2, 2, support=sup, lam=lam)
    gp = str(tmp_path / "g.json")
    fio.save_measure(gp, g)

    # Bit-identical file round-trip.
    g2 = fio.load_measure(gp)
    gp2 = str(tmp_path / "g2.json")
    fio.save_measure(gp2, g2)
    with open(gp) as f1, open(gp2) as f2:
        assert f1.read() == f2.read()

    # Exit-code contract.
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as f:
        f.write("{")
    assert main(["distance", bad, bad]) == 2
    heavy = g.with_atoms(g.atoms * 3.0)
    hp = str(tmp_path / "heavy.json")
    fio.save_measure(hp, heavy)
    assert main(["distance", hp, hp, "--metric", "fisher-rao"]) == 3
    failing = [*selftest._GROUPS, ("forced-failure", lambda rng: ["failure injected by the test"])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selftest, "_GROUPS", failing)
        assert main(["selftest", "--seed", "5"]) == 1
    assert "FAIL forced-failure: failure injected by the test" in capsys.readouterr().out

    # Seed determinism of the selftest report.
    assert main(["selftest", "--seed", "11"]) == 0
    out1 = capsys.readouterr().out
    assert main(["selftest", "--seed", "11"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    _report("criterion-14 CLI contract", "round-trip, exit codes, determinism")
