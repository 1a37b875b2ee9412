import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from poolgame import cli

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _change_one_digit(text):
    """Replace the last digit of the output with another digit."""
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _shift_total(text, kind, by):
    lines = text.splitlines()
    for n, line in enumerate(lines):
        cols = line.split(",")
        if cols[0] == kind:
            cols[6] = f"{float(cols[6]) + by:.4f}"
            lines[n] = ",".join(cols)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def table3():
    code, text = _run(["reproduce-table", "3", "--seed", str(SEED)])
    assert code == 0
    return text


def test_exact_output_with_one_changed_digit_is_rejected(table3):
    digest = workloads.DIGESTS["table3-exact"]
    assert workloads.digest_ok(table3, SEED, "reproduce-table", digest)
    assert not workloads.digest_ok(_change_one_digit(table3), SEED, "reproduce-table", digest)
    assert not workloads.digest_ok(table3, SEED + 1, "reproduce-table", digest)


def test_monte_carlo_total_beyond_its_bound_is_rejected(table3):
    se = {"faw": 0.1, "bwh": 0.1}  # percent; bound is Z * 0.1 plus rounding
    inside = _shift_total(table3, "faw", 0.9 * workloads.Z * 0.1)
    outside = _shift_total(table3, "faw", 1.1 * workloads.Z * 0.1)
    assert workloads.table3_mc_ok(table3, table3, SEED, se)
    assert workloads.table3_mc_ok(inside, table3, SEED, se)
    assert not workloads.table3_mc_ok(outside, table3, SEED, se)
    assert not workloads.table3_mc_ok(_shift_total(table3, "bwh", -0.6), table3, SEED, se)


def test_monte_carlo_ratio_columns_must_equal_exact(table3):
    moved = table3.replace("22.6706", "22.6707")
    assert moved != table3
    assert not workloads.table3_mc_ok(moved, table3, SEED, {"faw": 1.0, "bwh": 1.0})


def test_simulate_beyond_its_stderr_is_rejected():
    _, exact = _run(["payoff", *workloads.SIMULATE_PROFILE, "--seed", str(SEED)])
    u1, u2 = exact.splitlines()[-1].split(",")

    def sim(v1):
        return (f"# seed={SEED} command=simulate\nu1,u2,stderr1,stderr2,rounds\n"
                f"{v1:.8f},{float(u2):.8f},1.00e-03,1.00e-03,1000\n")

    assert workloads.simulate_ok(sim(float(u1) + 0.004), exact, SEED, 1000)
    assert not workloads.simulate_ok(sim(float(u1) + 0.006), exact, SEED, 1000)
    assert not workloads.simulate_ok(sim(float(u1)), exact, SEED, 2000)


def test_small_npool_sample_passes_its_own_check():
    w = workloads.NPoolMonteCarlo(rounds=200_000, warm_rounds=50_000)
    w.prepare(_run, SEED)
    assert w.refs["ok"]
    results = [_run(argv) for argv in w.commands(SEED)]
    assert w.check(results, SEED)
    assert w.operations(results) == (2, 0)


def test_failed_rows_are_counted():
    sweep = workloads.workloads()["sweep-faw"]
    text = "# seed=1 command=sweep\nalpha1,alpha2,attack_ratio,r2F,r2B,u1_avg,u2_avg,ip_faw_empty,error\n"
    ok_row = "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0,\n"
    bad_row = "0.1,0.1,0.1,nan,nan,nan,nan,0,boom, with a comma\n"
    assert sweep.operations([(0, text + ok_row + bad_row)]) == (2, 1)
    audit = workloads.workloads()["audit-ipbwh"]
    text = "# seed=1 command=audit-ipbwh\nalpha1,alpha2,f_value,k_chosen,passed\n"
    assert audit.operations([(0, text + "0.1,0.1,1,1,1\n0.1,0.1,1,nan,0\n")]) == (2, 1)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.workloads())
    assert len(tracer.LAYER_METRICS) + 1 == len(spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-faw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
