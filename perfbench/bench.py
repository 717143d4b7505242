"""Run loops and metrics of the benchmark (imported by ``run.py`` once the
thread caps are set and frgeo is importable)."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MAX_ERRORS_KEPT = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# op_p90_ms is a real tail only with ten samples beyond it, which today only
# measure-cli has (about 140 ops per run); it goes into the report, with the
# sample count, and not into the end-to-end metrics of every workload.

# Per-call timings (p50 over every call of the function in the run). The io
# ones count only time spent in io itself: ``write_csv`` consumes a row
# generator that computes speeds and entropies in other layers.
CALL_MS = {
    "schrodinger.discrete_objective_ms": "schrodinger.discrete_objective",
    "schrodinger.recovery_sequence_ms": "schrodinger.recovery_sequence",
    "schrodinger.convexity_experiment_ms": "schrodinger.convexity_experiment",
    "fisher_rao.hellinger_distance_sq_ms": "fisher_rao.hellinger_distance_sq",
    "fisher_rao.fisher_rao_distance_ms": "fisher_rao.fisher_rao_distance",
    "fisher_rao.fisher_rao_geodesic_ms": "fisher_rao.fisher_rao_geodesic",
    "fisher_rao.metric_speed_ms": "fisher_rao.metric_speed",
    "entropy_flow.flow_table_ms": "entropy_flow.flow_table",
    "io.load_measure_ms": "io.load_measure",
    "io.save_measure_path_ms": "io.save_measure_path",
    "io.write_csv_ms": "io.write_csv",
}
# Calls per op (mean over the run's ops).
CALLS_PER_OP = {
    "bures.bures_distance_sq_calls": ("bures.bures_distance_sq",),
    "bures.bures_geodesic_calls": ("bures.bures_geodesic",),
    "entropy_flow.entropy_calls": ("entropy_flow.entropy",),
    "linalg.eig_calls": ("linalg.eigh", "linalg.eigvalsh"),
}
SELF_LAYERS = (tracing.BENCH, tracing.KERNEL) + tracing.LAYERS
CLI_COMMANDS = ("distance", "geodesic", "heatflow", "convexity")

PER_LAYER_UNITS = {
    "linalg.eig_calls": "count",
    "linalg.eig_matrices": "count",
    "linalg.eig_ms": "ms",
    "linalg.eig_share": "ratio",
    "schrodinger.solve_bridge_ms.cold": "ms",
    "schrodinger.solve_bridge_ms.warm": "ms",
    "schrodinger.iterations.cold": "count",
    "schrodinger.iterations.warm": "count",
    "schrodinger.ms_per_iter": "ms",
    "bures.bures_distance_sq_us": "us",
    "bures.bures_distance_sq_calls": "count",
    "bures.bures_geodesic_calls": "count",
    "entropy_flow.entropy_calls": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    **{name: "ms" for name in CALL_MS},
    **{f"cli.{cmd}_ms": "ms" for cmd in CLI_COMMANDS},
    **{f"{layer}.self_ms": "ms" for layer in SELF_LAYERS},
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead": "ratio",
    "trace.spans_per_op": "count",
    "rel_err_max": "ratio",
    "fail_ratio": "ratio",
}


class OpRecord:
    __slots__ = ("kind", "seconds", "traced_seconds", "ok", "rel_err", "iterations", "error")

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = 0.0
        self.traced_seconds = 0.0
        self.ok = False
        self.rel_err = None
        self.iterations = 0
        self.error = None


def run(args, import_times: list[float], deadline: float):
    """Set up as many times as frgeo was imported, measure for about
    ``args.seconds`` and return (result, report)."""
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}")
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = []
    for _ in import_times:
        t0 = time.perf_counter()
        workload = workload_cls(short=args.short)
        hashes = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    records = run_loop(workload, args.seconds, deadline, tracer)

    failed = sum(not r.ok for r in records)
    rel_errs = [r.rel_err for r in records if r.rel_err is not None]
    quality = {
        "fail_ratio": failed / len(records),
        "rel_err_max": max(rel_errs) if rel_errs else 0.0,
    }
    if tracer is None:
        metrics = end_to_end(records, setup_s)
        units = END_TO_END_UNITS
    else:
        table = tracing.SpanTable(tracer)
        metrics = {**per_layer(table, records), **quality}
        units = PER_LAYER_UNITS
        tracer.save(os.path.join(OUT_DIR, f"{args.workload}-spans.npz"))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "environment": environment(),
        "input_sha256": hashes,
        "import_s_samples": import_times,
        "setup_s_samples": setup_times,
        "samples": len(records),
        "op_p90_ms": 1e3 * p90([r.seconds for r in records]),
        "samples_by_kind": _count_kinds(records),
        "op_ms": [round(1e3 * r.seconds, 3) for r in records],
        "op_iterations": [r.iterations for r in records],
        "op_ms_p50_by_kind": {
            kind: 1e3 * statistics.median([r.seconds for r in records if r.kind == kind])
            for kind in _count_kinds(records)
        },
        **quality,
        "errors": [f"{r.kind}: {r.error}" for r in records if r.error][:MAX_ERRORS_KEPT],
    }
    return result, report


def run_loop(workload, seconds: float, deadline: float, tracer) -> list[OpRecord]:
    """Closed loop, one client: whole cycles for about ``seconds``.

    Untraced, each op is timed once. Traced, each op runs untraced and then
    traced inside a ``bench.op`` root span, and its check runs inside a
    ``bench.check`` root span.
    """
    records: list[OpRecord] = []
    t_run = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for op in workload.ops():
            if time.perf_counter() > deadline:
                return records
            rec = OpRecord(op.kind)
            records.append(rec)
            try:
                attempt(op, rec, len(records) - 1, tracer)
                rec.ok = True
            except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
                rec.error = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        # Stop at the cycle boundary nearest to ``seconds``, so the run
        # length stays close to it even when one cycle takes many seconds.
        if now - t_run + (now - t_cycle) / 2.0 >= seconds:
            return records


def attempt(op, rec: OpRecord, op_id: int, tracer) -> None:
    """Run, time and check one op; raises when the op raises or its output
    is wrong. A failed op keeps the time it took to fail."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    finally:
        rec.seconds = time.perf_counter() - t0
    if tracer is None:
        rec.rel_err = op.check(out)
    else:
        tracer.install([workloads])
        try:
            with tracer.root(op_id, "op"):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                finally:
                    rec.traced_seconds = time.perf_counter() - t0
            with tracer.root(op_id, "check"):
                rec.rel_err = op.check(out)
        finally:
            tracer.uninstall()
    rec.iterations = op.iterations(out)


def _count_kinds(records) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in records:
        counts[r.kind] = counts.get(r.kind, 0) + 1
    return counts


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(records: list[OpRecord], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(table: tracing.SpanTable, records: list[OpRecord]) -> dict[str, float]:
    n_ops = len(records)
    in_ops = table.in_ops()
    ms = 1e-6
    op_wall_ms = np.array([1e3 * r.traced_seconds for r in records])
    out: dict[str, float] = {}

    def fn_mask(*names):
        mask = np.zeros(len(table.name_id), dtype=bool)
        for name in names:
            mask |= table.mask(name)
        return mask

    eig = fn_mask("linalg.eigh", "linalg.eigvalsh")
    eig_ms = table.per_op(table.dur_ns * ms, eig & in_ops, n_ops)
    out["linalg.eig_matrices"] = mean_or_zero(table.per_op(table.amount, eig & in_ops, n_ops))
    out["linalg.eig_ms"] = median_or_zero(eig_ms)
    out["linalg.eig_share"] = float(eig_ms.sum() / op_wall_ms.sum())
    for metric, names in CALLS_PER_OP.items():
        out[metric] = mean_or_zero(table.per_op(np.ones_like(table.dur_ns), fn_mask(*names) & in_ops, n_ops))
    own_ns = table.own_layer_ns("io")
    for metric, name in CALL_MS.items():
        durations = own_ns if name.startswith("io.") else table.dur_ns
        out[metric] = median_or_zero(durations[table.mask(name)] * ms)
    out["bures.bures_distance_sq_us"] = median_or_zero(table.dur_ns[table.mask("bures.bures_distance_sq")] * 1e-3)
    for metric, names in (("io.bytes_read", tracing.IO_READS), ("io.bytes_written", tracing.IO_WRITES)):
        out[metric] = mean_or_zero(table.per_op(table.amount, fn_mask(*names) & in_ops, n_ops))

    # Bridge solves: one per op, split into cold and warm starts.
    solve = table.per_op(table.dur_ns * ms, table.mask("schrodinger.solve_bridge") & in_ops, n_ops)
    solve_self = table.per_op(table.self_ns * ms, table.mask("schrodinger.solve_bridge") & in_ops, n_ops)
    bridge_ops = [k for k, r in enumerate(records) if r.kind in ("cold", "warm") and r.ok]
    for kind in ("cold", "warm"):
        ks = [k for k in bridge_ops if records[k].kind == kind]
        out[f"schrodinger.solve_bridge_ms.{kind}"] = median_or_zero(solve[k] for k in ks)
        out[f"schrodinger.iterations.{kind}"] = mean_or_zero(records[k].iterations for k in ks)
    out["schrodinger.ms_per_iter"] = median_or_zero(solve_self[k] / records[k].iterations for k in bridge_ops)

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_ms"] = median_or_zero(1e3 * r.seconds for r in records if r.kind == cmd)
    for layer in SELF_LAYERS:
        mask = in_ops & (table.layer_id == _layer_index(table, layer))
        out[f"{layer}.self_ms"] = float(table.per_op(table.self_ns * ms, mask, n_ops).sum() / n_ops)

    untraced_ms = np.array([1e3 * r.seconds for r in records])
    out["trace.op_ms"] = float(op_wall_ms.mean())
    out["trace.untraced_op_ms"] = float(untraced_ms.mean())
    out["trace.overhead"] = float(op_wall_ms.sum() / untraced_ms.sum() - 1.0)
    out["trace.spans_per_op"] = float(in_ops.sum() / n_ops)
    return out


def _layer_index(table: tracing.SpanTable, layer: str) -> int:
    return table.layers.index(layer) if layer in table.layers else -1


def environment() -> dict:
    import frgeo

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_caps": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(os.path.dirname(frgeo.__file__)),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(directory: str) -> str:
    """sha256 over the program's source files, which identifies the code
    measured when there is no git commit."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]
