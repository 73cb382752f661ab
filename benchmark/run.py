#!/usr/bin/env python3
"""selfverify benchmark: four workloads, checked outputs, end-to-end metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --self-check

The first form runs one workload in this process: set-up (repeated and
timed), then timed passes for about S seconds, each checked. It prints every
metric by name with its unit, and last a JSON line with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end set, measured with tracing off; timings of set-up and of the
CPU-bound workloads are scaled to a reference host speed (gauge.py), and
printed unscaled as well. With --trace 1 the first half of
the time runs untraced, the second half traced, and the metrics are the
per-layer set. The second form runs every workload, each in its own process.
The third checks the benchmark's own checks. The exit code is non-zero when
an output check fails. Run from the root of a selfverify checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 25
WORKLOAD_NAMES = ("offline_ablation", "live_chain", "long_notes", "record_replay")
# Importing these loads every selfverify module the workloads use.
MODULES = ("selfverify.cli", "selfverify.synthetic")
IMPORT_REPEATS = 5


# Times the selfverify import with the host-speed gauge running around it
# and prints the time scaled to the gauge's reference speed, then raw.
IMPORT_CODE = f"""
import sys, time
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from gauge import Gauge
gauge = Gauge()
with gauge.running():
    start = time.perf_counter()
    import {', '.join(MODULES)}
    end = time.perf_counter()
print(gauge.scaled(start, end), end - start)
"""


def import_seconds(fresh: bool) -> tuple[float, float]:
    """Scaled and raw time of the selfverify import, here or in a fresh interpreter."""
    if fresh:
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                             capture_output=True, text=True, check=True)
    else:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(IMPORT_CODE, {})
    scaled, raw = map(float, (out.stdout if fresh else out.getvalue()).split())
    return scaled, raw


def run_all(args) -> int:
    """Every workload, each in a fresh process so memory and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOAD_NAMES])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that the output checks catch wrong answers")
    args = parser.parse_args(argv)
    if not (SRC / "selfverify" / "__init__.py").is_file():
        print(f"error: no selfverify sources under {SRC}; run from a selfverify checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        sys.path.insert(0, str(SRC))
        from selfcheck import self_check

        return self_check(ROOT, HERE / "_work" / f"self-check-{os.getpid()}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    imports = [import_seconds(fresh=i > 0) for i in range(IMPORT_REPEATS)]

    from gauge import Gauge
    from measure import run_workload

    return run_workload(args, Gauge(), imports)


if __name__ == "__main__":
    raise SystemExit(main())
