#!/usr/bin/env python3
"""Self-check of the benchmark, in short mode (about a minute).

    python3 perfbench/selfcheck.py

1. Runs every workload with ``--short`` in both trace modes through
   ``run.py`` and checks that the last line is the result object, that the
   ops passed, and that exactly the metrics named in ``BENCHMARK.json`` are
   printed, each with its unit.
2. Runs each workload's ops (all six of measure-cli, one sweep of
   bridge-sweep), checks each output, then damages it with the op's
   ``corrupt`` and requires the check to reject it.
3. Runs the measuring loop on ops whose outputs are all damaged and requires
   every op to be counted as failed.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def metric_units(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_command(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: ops failed: {proc.stdout.strip().splitlines()[-2][:500]}")
    want = metric_units(spec, "per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def check_corruption() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bench
    import workloads

    problems = []
    for cls in workloads.WORKLOADS.values():
        # measure-cli runs its full op list, so that every one of its checks
        # has to reject a damaged output; bridge-sweep's ops share one check.
        short = cls is workloads.BridgeSweep
        w = cls(short=short)
        w.setup(5, os.path.join(bench.OUT_DIR, f"selfcheck-{w.name}"))
        for k, op in enumerate(w.ops()):
            out = op.run()
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                problems.append(f"{w.name} op {k} ({op.kind}): correct output rejected: {exc}")
                continue
            try:
                op.check(op.corrupt(out))
            except workloads.CheckFailed:
                continue
            problems.append(f"{w.name} op {k} ({op.kind}): damaged output accepted")

        damaged = DamagedOps(cls(short=short))
        damaged.inner.setup(5, os.path.join(bench.OUT_DIR, f"selfcheck-{w.name}"))
        records = bench.run_loop(damaged, 0.0, float("inf"), None)
        failed = sum(not r.ok for r in records)
        if not records or failed != len(records):
            problems.append(f"{w.name}: {failed} of {len(records)} damaged ops counted as failed")
    return problems


class DamagedOps:
    """A workload whose every op returns a damaged output."""

    def __init__(self, inner):
        self.inner = inner

    def ops(self):
        import dataclasses

        return [
            dataclasses.replace(op, run=lambda op=op: op.corrupt(op.run()))
            for op in self.inner.ops()
        ]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += check_command(spec, workload, trace)
    problems += check_corruption()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck passed" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
