"""Benchmark child process: runs one workload's samples in a closed loop.

    python3 perfbench/worker.py setup
        Time a fresh interpreter's ``import poolgame.cli`` plus
        ``build_parser()`` and print the seconds.

    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
        Warm up, then run samples one at a time for SECONDS, check each
        sample's output and print one JSON object with the measurements.

``perfbench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread counts pinned; it is not meant to be started by hand.
"""

from __future__ import annotations

import sys
import time


def setup() -> None:
    start = time.perf_counter()
    import poolgame.cli

    poolgame.cli.build_parser()
    print(repr(time.perf_counter() - start))


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> None:
    import contextlib
    import io
    import json
    import resource
    import statistics
    from pathlib import Path

    import poolgame
    from poolgame import cli

    import tracer
    from workloads import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(poolgame.__file__).resolve().parent.parent != src:
        raise SystemExit(f"poolgame imported from {poolgame.__file__}, not from {src}")

    workload = workloads()[name]
    commands = workload.commands(seed)

    def run_command(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def sample():
        start = time.perf_counter()
        results = [run_command(argv) for argv in commands]
        return time.perf_counter() - start, results

    workload.prepare(run_command, seed)

    walls, traced_walls, layers = [], [], []
    ok = attempted = failed = 0
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        wall, results = sample()
        if peak_rss_mb is None:
            # a fresh process that has run one sample (plus a tiny warm-up)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append((wall, workload.work(results)))
        outcomes = [results]
        if trace:
            with tracer.Tracer(poolgame) as tr:
                wall, results = sample()
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(tracer.summarize(tr.spans)))
            outcomes.append(results)
        for results in outcomes:
            try:
                ok += workload.check(results, seed)
            except (ValueError, IndexError, KeyError):
                pass
            a, f = workload.operations(results)
            attempted += a
            failed += f
        if time.perf_counter() - started >= seconds and (not trace or len(walls) >= 2):
            break

    samples = len(walls) + len(traced_walls)
    report = {
        "workload": name,
        "seed": seed,
        "samples": len(walls),
        "sample_wall_s": [w for w, _ in walls],
        "sample_work": [n for _, n in walls],
        "ok_samples": ok,
        "checked_samples": samples,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "wall_s": statistics.median(w for w, _ in walls),
        "throughput": statistics.median(n / w for w, n in walls),
        "environment": environment(),
    }
    if trace:
        counts = [{k: v for k, v in s.items() if tracer.is_count(k)} for s in layers]
        report["traced_wall_s"] = traced_walls
        report["layers"] = tracer.combine(layers)
        report["trace_overhead"] = statistics.median(traced_walls) / report["wall_s"]
        report["counts_repeat"] = all(c == counts[0] for c in counts)
        report["alias_check"] = name != "sweep-faw" or (
            report["layers"]["payoff.payoff_pair_raw.scalar_calls"]
            == report["layers"]["payoff.payoff_pair.calls"]
        )
    print(json.dumps(report))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 6:
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1")
    else:
        raise SystemExit(__doc__)
