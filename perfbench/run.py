#!/usr/bin/env python3
"""Run one frgeo benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bridge-sweep --seed 1 --seconds 35 --trace 0

Workloads: ``bridge-sweep`` and ``measure-cli`` (see ``workloads.py``). The program is imported from ``src/`` of the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every op twice, untraced and then traced, and reports the
per-layer metrics from the traced spans; the untraced twin gives the tracing
overhead. Either way every op's output is checked, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is a JSON report with the
environment, input hashes, set-up samples, every op time, the sample count,
``op_p90_ms``, ``fail_ratio`` and ``rel_err_max``. Both are also written to
``.perfbench_out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# No new op starts after this many seconds of the process, so that a run
# ends well within three minutes whatever --seconds says.
HARD_STOP_S = 140.0
# Set-up (frgeo import; inputs, files and warm-up) runs this many times, and
# setup_s adds the medians of the two parts.
SETUP_REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= cap):
            os.environ[var] = str(cap)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["bridge-sweep", "measure-cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--short", action="store_true", help="one small cycle per run (self-check)")
    return p.parse_args(argv)


def import_program(repeats: int) -> list[float]:
    """Import frgeo from the checkout's src/, never from an installed copy.

    numpy is imported first and not timed. frgeo is imported ``repeats``
    times, dropping it from ``sys.modules`` in between, and the import times
    are returned; the last import is the one the benchmark uses.
    """
    if not os.path.isfile(os.path.join(SRC, "frgeo", "__init__.py")):
        raise SystemExit(f"error: no frgeo sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401

    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "frgeo" or m.startswith("frgeo.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        frgeo = importlib.import_module("frgeo")
        times.append(time.perf_counter() - t0)
    if os.path.dirname(os.path.dirname(os.path.abspath(frgeo.__file__))) != SRC:
        raise SystemExit(f"error: frgeo imported from {frgeo.__file__}, not from {SRC}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_times = import_program(SETUP_REPEATS)
    import bench  # needs numpy and frgeo, so only after the thread caps

    result, report = bench.run(args, import_times, T_START + HARD_STOP_S)
    stem = os.path.join(bench.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"result": result, "report": report}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
