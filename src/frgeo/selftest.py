"""Seeded invariant suite behind ``frgeo selftest``.

Each group re-checks one module's documented invariants on freshly drawn
random instances. Counts are kept moderate so the whole run stays well under
a minute; the pytest acceptance suite runs the full-size versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import (
    bures,
    entropy_flow,
    fisher_rao,
    hpsd,
    measures,
    schrodinger,
)
from .testing import (
    random_finite_entropy_measure,
    random_hermitian,
    random_measure,
    random_probability_measure,
    random_psd,
    random_real_spd,
    random_spd,
)


@dataclass(frozen=True)
class InvariantResult:
    group: str
    passed: bool
    detail: str = ""


class _Failures(list):
    def expect(self, cond: bool, detail: str) -> None:
        if not cond:
            self.append(detail)


def _group_hpsd(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = random_psd(rng, d)
        s = hpsd.psd_sqrt(a)
        err = np.linalg.norm(s @ s - a) / max(np.linalg.norm(a), 1e-30)
        bad.expect(err <= 1e-9, f"sqrt round-trip error {err:.2e}")

        h = random_hermitian(rng, d)
        emb = hpsd.real_embedding(h)
        sign_in = float(np.linalg.eigvalsh(h).min())
        sign_out = float(np.linalg.eigvalsh(emb).min())
        bad.expect(sign_in * sign_out >= -1e-10, "embedding changed min-eigenvalue sign")
        bad.expect(
            abs(np.trace(emb) - 2 * np.real(np.trace(h))) <= 1e-10, "embedding trace mismatch"
        )

        g = random_spd(rng, d)
        u = random_hermitian(rng, d)
        xi = hpsd.sym_product(g, u)
        u_back = hpsd.solve_sylvester_velocity(g, xi)
        bad.expect(
            np.linalg.norm(u_back - u) <= 1e-8 * max(1.0, np.linalg.norm(u)),
            "velocity round-trip failed",
        )

        q = np.linalg.eigh(random_hermitian(rng, d)).eigenvectors
        p1, p2 = rng.uniform(0.2, 2.0, d), rng.uniform(0.2, 2.0, d)
        m1 = hpsd.hermitian_part((q * p1) @ np.conj(q.T))
        m2 = hpsd.hermitian_part((q * p2) @ np.conj(q.T))
        lhs = hpsd.logdet(hpsd.hermitian_part(m1 @ m2))
        bad.expect(abs(lhs - hpsd.logdet(m1) - hpsd.logdet(m2)) <= 1e-9, "logdet not additive")
    return bad


def _group_measures(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    for _ in range(30):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        sup = measures.make_support(n)
        a = random_measure(rng, n, d, support=sup)
        b = random_measure(rng, n, d, support=sup)
        c = random_measure(rng, n, d, support=sup)
        ab = measures.tv_distance(a, b)
        bc = measures.tv_distance(b, c)
        ac = measures.tv_distance(a, c)
        bad.expect(ac <= ab + bc + 1e-10, "TV triangle inequality")

        lam_w = rng.uniform(0.1, 1.0, n)
        if n > 1:
            lam_w[int(rng.integers(0, n))] = 0.0
        lam = measures.ReferenceMeasure(sup, d, lam_w / (d * lam_w.sum()))
        ac_part, sing = measures.lebesgue_split(a, lam)
        bad.expect(
            np.array_equal(ac_part.atoms + sing.atoms, a.atoms), "split does not sum back"
        )
        bad.expect(
            np.all(sing.atoms[lam.weights > 0] == 0), "singular part leaks onto weighted points"
        )
        bad.expect(
            np.all(ac_part.atoms[lam.weights == 0] == 0), "carried part leaks onto weightless points"
        )

        sphere, r = measures.normalize_to_sphere(a)
        bad.expect(
            measures.tv_distance(measures.scale_measure(sphere, r * r), a) <= 1e-12 * max(1.0, measures.mass(a)),
            "sphere normalization round-trip",
        )
    return bad


def _group_bures(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    for _ in range(60):
        d = int(rng.integers(1, 5))
        a0, a1 = random_psd(rng, d), random_psd(rng, d)
        s01 = bures.bures_distance_sq(a0, a1)
        s10 = bures.bures_distance_sq(a1, a0)
        bad.expect(abs(s01 - s10) <= 1e-9, f"ordering asymmetry {abs(s01 - s10):.2e}")

        a2 = random_psd(rng, d)
        d01, d12, d02 = np.sqrt(s01), np.sqrt(bures.bures_distance_sq(a1, a2)), np.sqrt(
            bures.bures_distance_sq(a0, a2)
        )
        bad.expect(d02 <= d01 + d12 + 1e-9, "Bures triangle inequality")

        sq_diff = np.linalg.norm(hpsd.psd_sqrt(a1) - hpsd.psd_sqrt(a0)) ** 2
        schatten1 = float(np.sum(np.abs(np.linalg.eigvalsh(a1 - a0))))
        bad.expect(s01 <= sq_diff + 1e-9 and sq_diff <= schatten1 + 1e-9, "root/trace-norm chain")

        # Exact trace interpolation from a0 and from a0 with its smallest
        # eigenvalue set to zero (a start on the cone boundary).
        ts = np.linspace(0.0, 1.0, 5)
        w, v = np.linalg.eigh(a0)
        w[0] = 0.0
        for start in (a0, hpsd.hermitian_part((v * w) @ np.conj(v.T))):
            geo = bures.bures_geodesic(start, a1, ts)
            s_sq = bures.bures_distance_sq(start, a1)
            expected = ts * np.real(np.trace(a1)) + (1 - ts) * np.real(np.trace(start)) - ts * (1 - ts) * s_sq
            traces = np.real(np.trace(geo.points, axis1=1, axis2=2))
            bad.expect(
                np.max(np.abs(traces - expected)) <= 1e-14 * max(1.0, float(np.max(np.abs(expected)))),
                "geodesic trace interpolation",
            )

        lhs, rhs = bures.bures_real_embedding_check(a0, a1)
        bad.expect(abs(lhs - rhs) <= 1e-9 * max(1.0, rhs), "real-embedding identity")
    # One dynamical cross-check at reduced size.
    a0, a1 = random_spd(rng, 2), random_spd(rng, 2)
    res = bures.dynamical_bures_solver(a0, a1, 32)
    closed = bures.bures_distance_sq(a0, a1)
    bad.expect(
        res.converged and abs(res.value - closed) <= 2e-3 * closed,
        f"dynamical value {res.value:.6f} vs closed form {closed:.6f}",
    )
    return bad


def _group_fisher_rao(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    for _ in range(40):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sup = measures.make_support(n)
        g0 = random_probability_measure(rng, n, d, support=sup)
        g1 = random_probability_measure(rng, n, d, support=sup)
        g2 = random_probability_measure(rng, n, d, support=sup)
        dh01 = np.sqrt(fisher_rao.hellinger_distance_sq(g0, g1))
        dh12 = np.sqrt(fisher_rao.hellinger_distance_sq(g1, g2))
        dh02 = np.sqrt(fisher_rao.hellinger_distance_sq(g0, g2))
        bad.expect(dh02 <= dh01 + dh12 + 1e-8, "Hellinger triangle")
        dfr01 = fisher_rao.fisher_rao_distance(g0, g1)
        dfr12 = fisher_rao.fisher_rao_distance(g1, g2)
        dfr02 = fisher_rao.fisher_rao_distance(g0, g2)
        bad.expect(dfr02 <= dfr01 + dfr12 + 1e-8, "sphere triangle")
        bad.expect(dfr01 <= np.pi + 1e-9, "diameter exceeded")
        bad.expect(
            dh01 <= dfr01 + 1e-9 and dfr01 <= np.pi / 2 * dh01 + 1e-9,
            "sphere/cone Lipschitz comparison",
        )

        r0, r1 = rng.uniform(0.0, 2.0, 2)
        lhs, rhs = fisher_rao.cone_scaling_check(g0, g1, float(r0), float(r1))
        bad.expect(abs(lhs - rhs) <= 1e-8 * max(1.0, rhs), "cone scaling")

        cone_sq = 4.0 * (r0**2 + r1**2 - 2 * r0 * r1 * np.cos(dfr01 / 2.0))
        bad.expect(abs(lhs - cone_sq) <= 1e-8 * max(1.0, cone_sq), "cone law")

        lower, mid, upper = fisher_rao.tv_comparison_check(g0, g1)
        bad.expect(lower <= mid + 1e-9 and mid <= upper + 1e-9, "TV sandwich")

        ts = np.linspace(0.0, 1.0, 7)
        hgeo = fisher_rao.hellinger_geodesic(g0, g1, ts)
        masses = measures.mass(hgeo)
        bad.expect(
            np.all(masses >= 1.0 - 2.0 * ts * (1.0 - ts) - 1e-9), "geodesic mass lower bound"
        )
        if dfr01 < np.pi - 1e-3:
            fgeo = fisher_rao.fisher_rao_geodesic(g0, g1, [0.0, 0.5, 1.0])
            mid_pt = fgeo.slices[1]
            bad.expect(
                abs(fisher_rao.fisher_rao_distance(g0, mid_pt) - dfr01 / 2) <= 1e-12 * dfr01 + 1e-15,
                "geodesic midpoint bisection",
            )
            bad.expect(abs(measures.mass(mid_pt) - 1.0) <= 1e-8, "geodesic slice off sphere")
    return bad


def _group_entropy_flow(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    for _ in range(40):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sup = measures.make_support(n)
        lam = measures.uniform_reference(sup, d)
        g = random_finite_entropy_measure(rng, n, d, support=sup, lam=lam)
        s, t = sorted(rng.uniform(0.0, 1.5, 2))
        a = entropy_flow.heat_flow(entropy_flow.heat_flow(g, lam, s), lam, t)
        b = entropy_flow.heat_flow(g, lam, s + t)
        bad.expect(measures.tv_distance(a, b) <= 1e-12, "semigroup law")
        bad.expect(
            abs(measures.mass(entropy_flow.heat_flow(g, lam, t)) - measures.mass(g)) <= 1e-12,
            "mass conservation",
        )
        e = entropy_flow.entropy(g, lam)
        bad.expect(e >= -1e-12, "entropy negative")
        lhs, rhs = entropy_flow.entropy_decay_check(g, lam, s, t)
        bad.expect(lhs <= rhs + 1e-10, "entropy decay")

        f = entropy_flow.fisher_information(g, lam)
        dt = 1e-5
        e2 = entropy_flow.entropy(entropy_flow.heat_flow(g, lam, dt), lam)
        if f > 1e-6:
            bad.expect(abs((e - e2) / dt - f) <= 1e-3 * f, "entropy production mismatch")
        tv = entropy_flow.entropy_gradient_potential(g, lam)
        bad.expect(
            abs(entropy_flow.tangent_norm_sq(tv) - f) <= 1e-9 * max(1.0, f),
            "gradient norm vs Fisher information",
        )
        xi = entropy_flow.tangent_realization(tv)
        bad.expect(abs(float(np.real(np.trace(xi, axis1=1, axis2=2)).sum())) <= 1e-10, "tangent not traceless")
    return bad


def _group_schrodinger(rng: np.random.Generator) -> list[str]:
    bad = _Failures()
    n, d = 2, 2
    sup = measures.make_support(n)
    lam = measures.uniform_reference(sup, d)
    g0 = random_finite_entropy_measure(rng, n, d, blend=0.5, support=sup, lam=lam)
    g1 = random_finite_entropy_measure(rng, n, d, blend=0.5, support=sup, lam=lam)
    eps = 0.2
    cfg = schrodinger.SchrodingerConfig(epsilon=eps, n_steps=12)
    res = schrodinger.solve_bridge(g0, g1, lam, cfg)
    bad.expect(res.converged, "bridge did not converge")
    bad.expect(
        abs(res.objective - res.kinetic - res.fisher_term) <= 1e-12 * max(1.0, res.objective),
        "objective decomposition",
    )
    for k, m in enumerate(measures.mass(res.path)):
        bad.expect(abs(m - 1.0) <= 1e-8, f"slice {k} off sphere")
    bad.expect(np.array_equal(res.path.atoms[[0, -1]], [g0.atoms, g1.atoms]), "bridge endpoints moved")
    times = np.linspace(0.0, 1.0, cfg.n_steps + 1)
    geo = fisher_rao.fisher_rao_geodesic(g0, g1, times)
    rec = schrodinger.recovery_sequence(geo, lam, eps)
    kin_r, fis_r = schrodinger.discrete_objective(rec, lam, eps)
    bad.expect(res.objective <= kin_r + fis_r + 1e-10, "bridge above its initialization")
    e0, e1 = entropy_flow.entropy(g0, lam), entropy_flow.entropy(g1, lam)
    dfr_sq = fisher_rao.fisher_rao_distance(g0, g1) ** 2
    bound = dfr_sq / 2.0 + eps * (e0 + e1)
    bad.expect(kin_r + fis_r <= bound * 1.02, "recovery upper bound")

    for _ in range(5):
        dd = int(rng.integers(1, 4))
        a0, a1 = random_real_spd(rng, dd), random_real_spd(rng, dd)
        oracle = schrodinger.gaussian_bridge_oracle(a0, a1, 0.2, [0.0, 1.0])
        bad.expect(
            float(np.linalg.norm(oracle.points[0] - a0)) <= 1e-12 * float(np.linalg.norm(a0))
            and float(np.linalg.norm(oracle.points[-1] - a1)) <= 1e-12 * float(np.linalg.norm(a1)),
            "oracle marginals",
        )
    a = random_real_spd(rng, 2)
    mid = schrodinger.gaussian_bridge_oracle(a, a, 0.3, [0.5]).points[0]
    bad.expect(float(np.linalg.eigvalsh(mid - a).min()) >= -1e-10, "entropic midpoint not inflated")

    rows = schrodinger.convexity_experiment(g0, g1, lam, [0.25, 0.5, 0.75])
    for theta, lhs, rhs in rows:
        bad.expect(lhs <= rhs + 1e-6, f"half-convexity violated at theta={theta}")
    return bad


def _group_io(rng: np.random.Generator) -> list[str]:
    import os
    import tempfile

    from . import io as fio

    bad = _Failures()
    g = random_measure(rng, 3, 2)
    lam = measures.uniform_reference(g.support, g.dim)
    with tempfile.TemporaryDirectory() as tmp:
        mp = os.path.join(tmp, "m.json")
        fio.save_measure(mp, g)
        g2 = fio.load_measure(mp)
        bad.expect(np.array_equal(g.atoms, g2.atoms), "measure round-trip not bit-identical")
        fio.save_measure(mp, g2)
        g3 = fio.load_measure(mp)
        bad.expect(np.array_equal(g2.atoms, g3.atoms), "second round-trip drifted")
        rp = os.path.join(tmp, "lam.json")
        fio.save_reference(rp, lam)
        lam2 = fio.load_reference(rp)
        bad.expect(np.array_equal(lam.weights, lam2.weights), "reference round-trip")
    return bad


_GROUPS: list[tuple[str, Callable[[np.random.Generator], list[str]]]] = [
    ("hermitian-core", _group_hpsd),
    ("matrix-measures", _group_measures),
    ("fiber-bures", _group_bures),
    ("hellinger-fisher-rao", _group_fisher_rao),
    ("entropy-heat-flow", _group_entropy_flow),
    ("schrodinger-bridge", _group_schrodinger),
    ("measure-files", _group_io),
]


def run_selftest(seed: int = 0) -> list[InvariantResult]:
    """Run every invariant group on instances drawn from ``seed``."""
    results = []
    for idx, (name, fn) in enumerate(_GROUPS):
        rng = np.random.default_rng([seed, idx])
        try:
            failures = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            failures = [f"raised {type(exc).__name__}: {exc}"]
        detail = "; ".join(failures[:3])
        results.append(InvariantResult(name, not failures, detail))
    return results
