"""Command-line interface.

Exit codes: 0 success, 1 a failed check (a selftest failure, or a violated
bound in ``convexity``), 2 file/argument error (an input that cannot be read
or parsed, an output that cannot be written),
3 precondition violation (named in the message), 4 solver non-convergence.

Subcommands::

    distance     closed-form distances between two measure files
    geodesic     sampled geodesic path, JSON + CSV summary
    heatflow     entropy/Fisher/mass table along the heat flow
    bridge       Schrödinger bridge between two measures
    gamma-sweep  bridge objective across a descending temperature list
    convexity    entropy along the geodesic vs. the chord bound
    selftest     seeded invariant suite over all modules
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import io as fio
from .entropy_flow import flow_table, slice_entropies
from .exceptions import FRGeoError, MeasureFormatError, NoConvergenceError
from .fisher_rao import (
    MeasurePath,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
    metric_speed,
)
from .measures import (
    MatrixMeasure,
    ReferenceMeasure,
    check_probability,
    check_reference_support,
    check_same_support,
    mass,
    tv_distance,
    uniform_reference,
)
from .schrodinger import SchrodingerConfig, convexity_experiment, gamma_sweep, solve_bridge
from .selftest import run_selftest

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4


def _load_measure(path: str) -> MatrixMeasure:
    try:
        return fio.load_measure(path)
    except (OSError, MeasureFormatError) as exc:
        raise _ParseFailure(f"cannot load measure '{path}': {exc}") from exc


def _load_reference(path: str | None, like: MatrixMeasure) -> ReferenceMeasure:
    """The reference in ``path`` (uniform when None), on the support and ``dim`` of ``like``."""
    if path is None:
        return uniform_reference(like.support, like.dim)
    try:
        lam = fio.load_reference(path)
    except (OSError, MeasureFormatError) as exc:
        raise _ParseFailure(f"cannot load reference '{path}': {exc}") from exc
    check_reference_support(like, lam)
    return lam


def _load_pair(args) -> tuple[MatrixMeasure, MatrixMeasure, ReferenceMeasure]:
    """The measures ``g0`` and ``g1`` and the reference of a pair command, on one support and ``dim``."""
    g0, g1 = _load_measure(args.g0), _load_measure(args.g1)
    lam = _load_reference(args.reference, g0)
    check_same_support(g0, g1)
    return g0, g1, lam


class _ParseFailure(Exception):
    pass


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _ParseFailure(f"cannot parse {what} '{text}': {exc}") from exc
    if not values:
        raise _ParseFailure(f"empty {what} '{text}'")
    return values


def _path_columns(path: MeasurePath, lam: ReferenceMeasure, speeds: np.ndarray) -> list[list[float]]:
    """The columns t, mass, entropy, fisher and speed of a path, one entry per slice."""
    entropies, fishers = slice_entropies(np.linalg.eigvalsh(path.atoms), lam)
    return [c.tolist() for c in (path.times, mass(path), entropies, fishers, speeds)]


def _write_path_dir(out: str, path: MeasurePath, csv_name: str, header: list[str], columns) -> None:
    """The directory ``out`` holding ``path.json`` and the table ``csv_name`` of ``columns``."""
    os.makedirs(out, exist_ok=True)
    fio.save_measure_path(os.path.join(out, "path.json"), path.times, path.slices)
    fio.write_csv(os.path.join(out, csv_name), header, zip(*columns))


def _cmd_distance(args) -> int:
    g0 = _load_measure(args.g0)
    g1 = _load_measure(args.g1)
    metric = args.metric
    if metric == "tv":
        print(f"tv_distance = {tv_distance(g0, g1)!r}")
        return EXIT_OK
    dh_sq = hellinger_distance_sq(g0, g1)
    if metric == "bures":
        # Fiberwise aggregate: the square root of the summed squared fiber
        # distances (one fiber when the support is a single point).
        print(f"bures_fiberwise = {math.sqrt(dh_sq / 4.0)!r}")
        return EXIT_OK
    if metric == "hellinger":
        print(f"hellinger = {math.sqrt(dh_sq)!r}")
        print(f"hellinger_sq = {dh_sq!r}")
        return EXIT_OK
    check_probability(g0, "first measure")
    check_probability(g1, "second measure")
    dfr = float(fisher_rao_from_hellinger(dh_sq))
    print(f"fisher_rao = {dfr!r}")
    print(f"hellinger = {math.sqrt(dh_sq)!r}")
    print(f"cone_inversion_argument = {1.0 - dh_sq / 8.0!r}")
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    if args.steps < 1:
        raise ValueError(f"steps must be at least 1, got {args.steps}")
    g0, g1, lam = _load_pair(args)
    ts = np.linspace(0.0, 1.0, args.steps + 1)
    geodesic = fisher_rao_geodesic if args.metric == "fisher-rao" else hellinger_geodesic
    path = geodesic(g0, g1, ts)
    # Constant speed, d(G_s, G_t) = |s - t| d(G_0, G_1): every slice moves at the distance.
    speeds = np.full(path.n_slices, path.meta["distance"])
    t, m, e, _, v = _path_columns(path, lam, speeds)
    _write_path_dir(args.out, path, "path.csv", ["time", "mass", "entropy", "speed"], [t, m, e, v])
    print(f"wrote {args.out}/path.json and {args.out}/path.csv ({path.n_slices} slices)")
    return EXIT_OK


def _cmd_heatflow(args) -> int:
    g = _load_measure(args.g)
    lam = _load_reference(args.reference, g)
    if not math.isfinite(args.t):
        raise ValueError(f"final flow time must be finite, got {args.t}")
    if args.steps < 1:
        raise ValueError(f"steps must be at least 1, got {args.steps}")
    ts = np.linspace(0.0, args.t, args.steps + 1)
    rows = flow_table(g, lam, ts)
    fio.write_csv(args.out, ["t", "entropy", "fisher", "mass", "tv_to_equilibrium"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_bridge(args) -> int:
    g0, g1, lam = _load_pair(args)
    cfg = SchrodingerConfig(epsilon=args.epsilon, n_steps=args.steps, max_iters=args.max_iters)
    result = solve_bridge(g0, g1, lam, cfg)
    # A bridge is not a geodesic: its speeds are finite differences.
    columns = _path_columns(result.path, lam, metric_speed(result.path, "fisher_rao"))
    _write_path_dir(args.out, result.path, "slices.csv", ["t", "mass", "entropy", "fisher", "speed"], columns)
    print(f"objective = {result.objective!r}")
    print(f"kinetic = {result.kinetic!r}")
    print(f"fisher_term = {result.fisher_term!r}")
    print(f"converged = {result.converged} after {result.iterations} iterations")
    print(f"stop_reason = {result.stop_reason}")
    if not result.converged:
        raise NoConvergenceError(f"bridge did not converge in {result.iterations} iterations ({result.stop_reason})")
    return EXIT_OK


def _cmd_gamma_sweep(args) -> int:
    g0, g1, lam = _load_pair(args)
    epsilons = _parse_floats(args.epsilons, "epsilon list")
    cfg = SchrodingerConfig(epsilon=epsilons[0], n_steps=args.steps)
    rows = gamma_sweep(g0, g1, lam, epsilons, cfg, jobs=args.jobs)
    dfr_sq = fisher_rao_distance(g0, g1) ** 2
    table = [(r.epsilon, 2.0 * r.objective, dfr_sq, r.tv_gap) for r in rows]
    fio.write_csv(args.out, ["epsilon", "objective_x2", "dfr_sq", "tv_gap"], table)
    for r in rows:
        status = "converged" if r.converged else "not converged"
        print(f"epsilon={r.epsilon}: objective_x2={2.0 * r.objective!r} tv_gap={r.tv_gap!r} ({status})")
    print(f"wrote {args.out}")
    if any(not r.converged for r in rows):
        raise NoConvergenceError("at least one sweep row did not converge")
    return EXIT_OK


def _cmd_convexity(args) -> int:
    g0, g1, lam = _load_pair(args)
    thetas = _parse_floats(args.theta_grid, "theta grid")
    rows = convexity_experiment(g0, g1, lam, thetas)
    table = [(theta, lhs, rhs, rhs - lhs) for theta, lhs, rhs in rows]
    fio.write_csv(args.out, ["theta", "entropy_lhs", "bound_rhs", "slack"], table)
    worst = min(rhs - lhs for _, lhs, rhs in rows)
    print(f"wrote {args.out}; worst slack = {worst!r}")
    if worst < -1e-6:
        print("half-convexity bound violated", file=sys.stderr)
        return EXIT_SELFTEST_FAIL
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed)
    failed = 0
    for r in results:
        if r.passed:
            print(f"PASS {r.group}")
        else:
            failed += 1
            print(f"FAIL {r.group}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} invariant groups passed (seed {args.seed})")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="frgeo",
        description="Distances, geodesics, heat flow and Schrödinger bridges "
        "for Hermitian-PSD-matrix-valued measures on finite supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("g0")
    pair.add_argument("g1")
    pair.add_argument("--reference", default=None, help="reference measure file (default: uniform)")

    p = sub.add_parser("distance", help="distance between two measure files")
    p.add_argument("g0")
    p.add_argument("g1")
    p.add_argument("--metric", choices=["bures", "hellinger", "fisher-rao", "tv"], default="fisher-rao")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("geodesic", parents=[pair], help="sampled geodesic path (JSON + CSV: time, mass, entropy, speed)")
    p.add_argument("--metric", choices=["hellinger", "fisher-rao"], default="fisher-rao")
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("heatflow", help="CSV table (t, entropy, fisher, mass, tv_to_equilibrium)")
    p.add_argument("g")
    p.add_argument("--reference", default=None)
    p.add_argument("--t", type=float, default=1.0, help="final flow time")
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(fn=_cmd_heatflow)

    p = sub.add_parser(
        "bridge",
        parents=[pair],
        help="Schrödinger bridge between two sphere measures "
        "(writes path.json and slices.csv: t, mass, entropy, fisher, speed)",
    )
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, default=SchrodingerConfig.n_steps)
    p.add_argument("--max-iters", type=int, default=SchrodingerConfig.max_iters)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser(
        "gamma-sweep", parents=[pair], help="CSV (epsilon, objective_x2, dfr_sq, tv_gap) over a descending epsilon list"
    )
    p.add_argument("--epsilons", default="0.5,0.2,0.1,0.05", help="comma-separated, descending")
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1); the rows do not depend on it")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(fn=_cmd_gamma_sweep)

    p = sub.add_parser("convexity", parents=[pair], help="CSV (theta, entropy_lhs, bound_rhs, slack) along the geodesic")
    p.add_argument("--theta-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(fn=_cmd_convexity)

    p = sub.add_parser("selftest", help="run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the parse-error code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (_ParseFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (FRGeoError, ValueError) as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
