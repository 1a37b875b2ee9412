"""poolgame benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-faw --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). With ``--trace 0`` the last line of stdout
is the end-to-end result, with ``--trace 1`` the per-layer result of a
separate traced pass. The line before it records the seed, every sample,
the versions and the thread settings. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep-faw", "audit-ipbwh", "npool-mc")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_PROBES = 3
# every child must be done by then, so the run ends within its 180 s limit
DEADLINE_S = 170.0
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_ok": "share",
}
LAYER_UNITS = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
LAYER_UNITS["trace_overhead"] = "ratio"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_SETTINGS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def child(args, env, deadline) -> str:
    """Run a child to completion (killed at the deadline) and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "poolgame" / "cli.py").is_file():
        print(f"error: no poolgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        probes = [] if args.trace else [
            float(child(["setup"], env, deadline)) for _ in range(SETUP_PROBES)
        ]
        out = child(["run", args.workload, str(args.seed), str(args.seconds),
                     str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(out.splitlines()[-1])
    report["setup_probes_s"] = probes
    print(json.dumps(report))

    correct = report["ok_samples"] == report["checked_samples"]
    if args.trace:
        correct = correct and report["counts_repeat"] and report["alias_check"]
        values = dict(report["layers"], trace_overhead=report["trace_overhead"])
        units = LAYER_UNITS
    else:
        values = {
            "wall_s": report["wall_s"],
            "throughput": report["throughput"],
            "setup_s": statistics.median(probes),
            "peak_rss_mb": report["peak_rss_mb"],
            "output_ok": report["ok_samples"] / report["checked_samples"],
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
