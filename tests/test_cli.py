import contextlib
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden import BLOCK_RATIO, BLOCK_RATIO_DIGEST, GOLDEN
from poolgame import cli
from poolgame.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestPayoffCommand:
    def test_no_attack_prints_zeros(self, capsys):
        code, out = run_cli(
            ["payoff", "--alpha", "0.2", "0.2", "--a1", "0", "0", "--a2", "0", "0"],
            capsys,
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["u1"]) == 0.0 and float(row["u2"]) == 0.0

    def test_seed_echoed_in_header(self, capsys):
        _, out = run_cli(
            ["payoff", "--alpha", "0.2", "0.2", "--a1", "0", "0", "--a2", "0", "0",
             "--seed", "7"],
            capsys,
        )
        assert out.splitlines()[0] == "# seed=7 command=payoff"

    def test_domain_error_exit_code(self, capsys):
        code = main(["payoff", "--alpha", "0.2", "0.2", "--a1", "0.1", "0.1",
                     "--a2", "0", "0"])
        assert code == 1

    @pytest.mark.parametrize("alpha, a1, a2", [
        (["nan", "0.2"], ["0", "0"], ["0", "0"]),
        (["0.2", "0.2"], ["nan", "0"], ["0", "0"]),
        (["0.2", "0.2"], ["0", "0"], ["0", "nan"]),
    ])
    def test_non_finite_input_rejected(self, alpha, a1, a2, capsys):
        code, out = run_cli(["payoff", "--alpha", *alpha, "--a1", *a1, "--a2", *a2], capsys)
        assert code == 1 and out == ""

    def test_usage_error_exit_code(self):
        assert main(["payoff", "--alpha", "0.2"]) == 2


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ["simulate", "--alpha", "0.2", "0.2", "--a1", "0.05", "0",
                "--a2", "0", "0.02", "--rounds", "50000", "--seed", "3"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_same_command_config_and_seed_give_the_same_bytes(self, data):
        # twice with every value as a flag, once with the optional ones read
        # from a config file; required flags stay on the command line
        required, optional = data.draw(cli_scenarios())
        flags = []
        for key, values in optional.items():
            if key == "powers":  # the config key is in percent, the flag in fractions
                values = [repr(int(p) / 100) for p in values]
            flags += [f"--{key.replace('_', '-')}", *values]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "scenario.cfg"
            cfg.write_text("".join(f"{key} = {' '.join(values)}\n"
                                   for key, values in optional.items()))
            runs = [stdout_of([*required, *flags]), stdout_of([*required, *flags]),
                    stdout_of([*required, "--config", str(cfg)])]
        assert runs[0][0] == 0
        assert runs[0] == runs[1] == runs[2]


def stdout_of(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@st.composite
def cli_scenarios(draw):
    """(required argv, {config key: value tokens}) for a cheap command."""
    pct = st.integers(5, 40)
    a1, a2 = draw(pct), draw(pct)
    alpha = [repr(a1 / 100), repr(a2 / 100)]
    seed = [str(draw(st.integers(0, 10_000)))]
    k = [repr(draw(st.floats(0.0, 0.999)))]
    command = draw(st.sampled_from(["payoff", "retaliate", "simulate", "npool", "detect"]))
    if command in ("payoff", "simulate"):
        f1 = repr(draw(st.integers(0, a1)) / 100)
        b2 = repr(draw(st.integers(0, a2)) / 100)
        required = [command, "--alpha", *alpha, "--a1", f1, "0", "--a2", "0", b2]
        optional = {"seed": seed}
        if command == "simulate":
            optional["rounds"] = ["2000"]
        return required, optional
    if command == "retaliate":
        x = repr(draw(st.integers(1, a2)) / 100)
        attack = draw(st.sampled_from([[x, "0"], ["0", x]]))
        return [command, "--alpha", *alpha, "--opp-attack", *attack], {"k": k, "seed": seed}
    if command == "npool":
        required = [command, "--attack", draw(st.sampled_from(["faw", "bwh"]))]
        return required, {"powers": [str(a1), str(a2)], "k": k, "seed": seed,
                          "stages": [str(draw(st.integers(1, 3)))]}
    infiltration = repr(draw(st.integers(1, a1)) / 1000)
    return [command, "--mode", "variance"], {
        "alpha": alpha[:1], "beta": alpha[1:], "infiltration": [infiltration],
        "attack": [draw(st.sampled_from(["faw", "bwh"]))],
        "pool": [draw(st.sampled_from(["pool_a", "pool_b"]))],
        "periods": ["48"], "seed": seed,
    }


class TestGoldenOutputs:
    """Every command of ``golden.GOLDEN`` against the SHA-256 of its full
    stdout. The tables and five-pool runs were recorded
    before the two-pool and n-pool runners were merged, the audit, sweeps and
    delta bound before the payoff kernel's fork term became branch-free, the
    retaliations, stage Nash and FAW ratio sweep before scalar payoffs got
    their float path, the 60x60 FAW sweep and the BWH ratio sweep before the
    retaliation grid became a constant, the 60x60 BWH sweep and the variance
    detections before the sweeps and the audit returned columns and the
    reward densities priced their periods as one array; none of them may
    move. The two five-pool npool runs were re-recorded when the attack
    search became a convergent Newton search: the golden-section search
    before it resolved the attack only to about 4e-9, which set their
    eighth decimals. The three Monte-Carlo runs were recorded before the
    sampler settled flag-first rounds one flag row at a time, so they pin
    its draw order and the winner it picks from each draw."""

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_byte_identical_to_pinned_digest(self, args, digest, capsys):
        code, out = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_series_file_byte_identical_to_pinned_digest(self, tmp_path, capsys):
        # recorded while the series was written one f-string per period
        series = tmp_path / "series.csv"
        code, _ = run_cli(["detect", "--mode", "variance", "--series-out", str(series)], capsys)
        assert code == 0
        assert hashlib.sha256(series.read_bytes()).hexdigest() == (
            "49e203bb99c8f9176b69f2606de10ce7dde3e9cc8fed31418dc75f2eb68937ff")


def tie(places):
    """Odd multiples of 2**-(places + 1): each times 10**places is exactly
    k + 1/2, a tie that ``%`` rounds half to even on the exact value."""
    return st.integers(-10**6, 10**6).map(lambda c: (2 * c + 1) / 2 ** (places + 1))


def half(places):
    """The nearest doubles to (k + 1/2) / 10**places: within an ulp of a tie,
    on either side of it."""
    return st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 10**places)


def column_values(places):
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(-1e3, 1e3),
        tie(places),
        half(places),
        # around 2**52 / 10**places, where the writer leaves the cell to "%"
        st.floats(0.5, 2.0).map(lambda m: m * 2.0**52 / 10**places),
    )


def edge_values(places):
    return [0.0, -0.0, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.0 ** -(places + 1), -(2.0 ** -(places + 1)), 3 * 2.0 ** -(places + 1),
            0.5 / 10**places, 2.5 / 10**places, 1234.5 / 10**places,
            float("nan"), float("-nan"), float("inf"), float("-inf"),
            2.0**52 / 10**places, np.nextafter(2.0**52 / 10**places, 0.0),
            2.0**53, 1e300, -1e300]


class TestColumnWriter:
    """``cli._csv_rows`` writes columns as ``fmt % cells`` writes each row,
    byte for byte, and raises no numpy warning on any cell."""

    @staticmethod
    def rows(fmt, columns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli._csv_rows(fmt, columns)

    @pytest.mark.parametrize("places", [6, 8])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_percent_format(self, places, data):
        xs = data.draw(st.lists(column_values(places), min_size=1, max_size=40))
        fmt = f"%.{places}f"
        assert self.rows(fmt, (np.array(xs),)) == [fmt % x for x in xs]

    @pytest.mark.parametrize("places", [6, 8])
    def test_edge_values(self, places):
        xs = edge_values(places)
        fmt = f"%.{places}f"
        assert self.rows(fmt, (np.array(xs),)) == [fmt % x for x in xs]

    def test_exact_ties_are_not_certified(self):
        for places in (4, 6, 8):
            x = (2 * np.arange(-500, 500) + 1) / 2.0 ** (places + 1)
            assert not cli._fixed_point(x, places)[1].any()

    @given(st.lists(st.tuples(
        st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**12, 10**12),
        st.booleans(), st.sampled_from(["", "", "no live power, x"]),
        column_values(8)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_whole_tables_with_error_rows(self, cells):
        fmt = "%.6f,%d,%d,%s,%.8f"
        columns = [np.array([c[0] for c in cells], float),
                   np.array([c[1] for c in cells], np.int64),
                   np.array([c[2] for c in cells], bool),
                   [c[3] for c in cells],
                   np.array([c[4] for c in cells], float)]
        assert self.rows(fmt, columns) == [fmt % c for c in cells]


class TestSweepCommand:
    def test_csv_schema_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["sweep", "--attack", "faw", "--cells", "6", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out_file.read_text())
        assert rows
        expected = {"alpha1", "alpha2", "attack_ratio", "r2F", "r2B",
                    "u1_avg", "u2_avg", "ip_faw_empty", "error"}
        assert set(rows[0]) == expected
        assert all(float(r["u1_avg"]) < 0 for r in rows)


class TestFixedAttackerPower:
    @pytest.mark.parametrize("alpha", ["0.0", "-0.1", "nan", "0.6"])
    def test_outside_pool_power_range_rejected(self, alpha, capsys):
        code = main(["sweep", "--attack", "faw", "--cells", "3", "--fixed-alpha1", alpha])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        expected = ("no pool may hold more than half the network" if float(alpha) > 0.5
                    else f"powers must be positive numbers, got {float(alpha)}")
        assert captured.err == f"error: --fixed-alpha1: {expected}\n"

    def test_half_the_network_accepted(self, capsys):
        code, out = run_cli(["sweep", "--attack", "bwh", "--cells", "3",
                             "--fixed-alpha1", "0.5"], capsys)
        rows = parse_csv(out)
        assert code == 0 and rows and all(r["error"] == "" for r in rows)


class TestGridCells:
    @pytest.mark.parametrize("args", [
        ["audit-ipbwh", "--cells", "0"],
        ["audit-ipbwh", "--cells", "-3"],
        ["sweep", "--attack", "faw", "--cells", "0"],
    ])
    def test_empty_or_negative_grid_rejected(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"--cells must be an integer of at least 1, got {args[-1]}" in captured.err

    # only refused sizes run here: an accepted size this large would allocate GiB
    @pytest.mark.parametrize("args", [
        ["audit-ipbwh", "--cells", "100000"],
        ["sweep", "--attack", "faw", "--cells", "100000"],
        ["sweep", "--attack", "faw", "--fixed-alpha1", "0.2", "--cells", "100000"],
        ["sweep", "--attack", "bwh", "--cells", str(cli.MAX_GRID_CELLS + 1)],
    ])
    def test_oversized_grid_refused(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"at most {cli.MAX_GRID_CELLS} cells per axis, got {args[-1]}"
                in captured.err)


class TestCountInputs:
    """Stage and block counts below 1 are refused instead of printing an empty
    table, p = 1 or nan."""

    @pytest.mark.parametrize("args, message", [
        pytest.param(["npool", "--powers", "0.2", "0.2", "--attack", "faw", "--stages", "0"],
                     "stages must be an integer of at least 1, got 0",
                     id="args0-at least 1 stage, got 0"),
        pytest.param(["npool", "--powers", "0.2", "0.2", "--attack", "faw", "--stages", "-2"],
                     "stages must be an integer of at least 1, got -2",
                     id="args1-at least 1 stage, got -2"),
        pytest.param(["detect", "--mode", "block-ratio", "--blocks", "0"],
                     "blocks must be an integer of at least 1, got 0",
                     id="args2-at least 1, got 0"),
        pytest.param(["detect", "--mode", "block-ratio", "--blocks", "-5"],
                     "blocks must be an integer of at least 1, got -5",
                     id="args3-at least 1, got -5"),
        pytest.param(["detect", "--mode", "unlucky", "--blocks", "0"],
                     "blocks must be an integer of at least 1, got 0",
                     id="args4-at least 1, got 0"),
    ])
    def test_rejected(self, args, message, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert message in captured.err

    def test_one_stage_and_one_block_accepted(self, capsys):
        code, out = run_cli(["npool", "--powers", "0.2", "0.2", "--attack", "faw",
                             "--stages", "1"], capsys)
        assert code == 0 and len(parse_csv(out)) == 2
        code, out = run_cli(["detect", "--mode", "block-ratio", "--blocks", "1"], capsys)
        assert code == 0 and len(parse_csv(out)) == 1


class TestDetectPoolSizes:
    """Every detect mode refuses a pool above half the network or without
    power, as every other command does, even a mode that reads neither size."""

    @pytest.mark.parametrize("args", [
        ["--mode", "unlucky", "--alpha", "0.7"],
        ["--mode", "geometric", "--alpha", "0.7"],
        ["--mode", "geometric", "--alpha", "0"],
        ["--mode", "block-ratio", "--beta", "0.6"],
        ["--mode", "geometric", "--beta", "nan"],
    ])
    def test_outside_pool_power_range_rejected(self, args, capsys):
        code = main(["detect", *args])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert re.fullmatch("error: --alpha and --beta: (no pool may hold more than half the "
                            "network|powers must be positive numbers, got .*)\n", captured.err)

    @pytest.mark.parametrize("mode", ["block-ratio", "unlucky", "variance", "geometric"])
    def test_whole_network_refused(self, mode, capsys):
        code = main(["detect", "--mode", mode, "--alpha", "0.5", "--beta", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --alpha and --beta: powers sum to 1.0 >= 1\n"

    def test_half_the_network_accepted(self, capsys):
        code, out = run_cli(["detect", "--mode", "geometric", "--alpha", "0.5",
                             "--beta", "0.4"], capsys)
        assert code == 0 and len(parse_csv(out)) == 1


class TestPreferenceWeight:
    RETALIATE = ["retaliate", "--alpha", "0.2", "0.2", "--opp-attack", "0.05", "0"]

    @pytest.mark.parametrize("args", [
        [*RETALIATE, "--k", "1.5"],
        [*RETALIATE, "--k", "1"],
        [*RETALIATE, "--k", "nan"],
        ["sweep", "--attack", "faw", "--cells", "3", "--k", "1.5"],
        ["sweep", "--attack", "bwh", "--cells", "3", "--fixed-alpha1", "0.2", "--k", "-0.1"],
        ["delta-bound", "--alpha", "0.25", "0.15", "--k", "-0.2"],
        ["npool", "--powers", "0.25", "0.15", "--attack", "faw", "--k", "1.5"],
        ["reproduce-table", "1", "--k", "nan"],
    ])
    def test_outside_unit_interval_rejected(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--k must be in [0, 1)" in captured.err
        assert captured.err == f"error: --k must be in [0, 1), got {float(args[-1])}\n"

    def test_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k = 1.5\n")
        code = main([*self.RETALIATE, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--k must be in [0, 1), got 1.5" in captured.err

    def test_zero_accepted(self, capsys):
        code, out = run_cli([*self.RETALIATE, "--k", "0"], capsys)
        assert code == 0 and len(parse_csv(out)) == 1


class TestRemovedFlags:
    """The retaliation grid is fixed and nothing reads a discount factor, so
    --grid and --delta are refused everywhere, as is --k on the commands that
    play no retaliation."""

    RETALIATE = ["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0"]

    @pytest.mark.parametrize("args", [
        [*RETALIATE, "--grid", "0"],
        [*RETALIATE, "--grid", "1"],
        ["sweep", "--attack", "faw", "--grid", "1"],
        ["sweep", "--attack", "faw", "--cells", "3", "--grid", "1"],
        ["sweep", "--attack", "bwh", "--grid", "0"],
        ["payoff", "--alpha", "0.2", "0.2", "--a1", "0", "0", "--a2", "0", "0", "--k", "0.3"],
        ["npool", "--powers", "0.25", "0.15", "--attack", "faw", "--delta", "0.5"],
    ])
    def test_flag_refused(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_grid_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("grid = 100\n")
        code = main([*self.RETALIATE, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unknown config key 'grid'" in captured.err


class TestConfigFile:
    def test_unknown_key_rejected_with_valid_keys(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("kk = 0.5\n")
        code = main(["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0",
                     "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "'kk'" in captured.err
        assert "valid keys: " in captured.err and ", k, " in captured.err

    @pytest.mark.parametrize("text", ["seed = abc\n", "k = high\n"])
    def test_unreadable_value_rejected(self, text, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        code = main(["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0",
                     "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cannot read" in captured.err

    def test_positional_table_is_not_a_key(self, tmp_path, capsys):
        # the positional table is required on the command line, so a file
        # value could never apply; it is refused like any unknown key
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("table = 3\n")
        code = main(["reproduce-table", "1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unknown config key 'table'" in captured.err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code = main(["payoff", "--alpha", "0.2", "0.2", "--a1", "0", "0", "--a2", "0", "0",
                     "--config", str(tmp_path / "absent.cfg")])
        captured = capsys.readouterr()
        assert code == 1 and "cannot read config file" in captured.err

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"k = 0.5\n\xff\n")
        code = main(["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0",
                     "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cannot read config file" in captured.err and "utf-8" in captured.err

    def test_output_path_from_file(self, tmp_path, capsys):
        target = tmp_path / "payoff.csv"
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"out = {target}\n")
        code = main(["payoff", "--alpha", "0.2", "0.2", "--a1", "0", "0", "--a2", "0", "0",
                     "--config", str(cfg)])
        assert code == 0 and capsys.readouterr().out == ""
        assert target.read_text().splitlines()[1] == "u1,u2"

    def test_file_values_used_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("k = 0.5\nseed = 9\n")
        _, out = run_cli(
            ["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0",
             "--config", str(cfg)],
            capsys,
        )
        assert "# seed=9" in out.splitlines()[0]
        _, out2 = run_cli(
            ["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0",
             "--config", str(cfg), "--seed", "4"],
            capsys,
        )
        assert "# seed=4" in out2.splitlines()[0]

    NPOOL = ["npool", "--powers", "0.25", "0.15", "--attack", "faw", "--seed", "1"]

    def stage0_attacker(self, args, capsys):
        code, out = run_cli(args, capsys)
        assert code == 0
        return out.splitlines()[2]

    def test_keys_with_built_in_defaults_used(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("rounds = 1000\n")
        mc = "0,0,0.03646866"
        assert self.stage0_attacker([*self.NPOOL, "--rounds", "1000"], capsys) == mc
        assert self.stage0_attacker([*self.NPOOL, "--config", str(cfg)], capsys) == mc

    def test_flag_equal_to_its_default_still_wins(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("rounds = 1000\n")
        args = [*self.NPOOL, "--config", str(cfg), "--rounds", "0"]
        assert self.stage0_attacker(args, capsys) == "0,0,0.04003142"

    def test_stages_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("stages = 1\n")
        _, out = run_cli([*self.NPOOL, "--config", str(cfg)], capsys)
        assert {row["stage"] for row in parse_csv(out)} == {"0"}

    def test_pair_keys_from_file(self, tmp_path, capsys):
        base = ["retaliate", "--alpha", "0.2", "0.2", "--opp-attack", "0.05", "0"]
        _, want = run_cli([*base, "--own-prev", "0", "0.02",
                           "--opp-prescribed", "0.01", "0"], capsys)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("own_prev = 0 0.02\nopp_prescribed = 0.01, 0\n")
        _, got = run_cli([*base, "--config", str(cfg)], capsys)
        _, plain = run_cli(base, capsys)
        assert got == want != plain
        cfg.write_text("own_prev = 0.02\n")
        code = main([*base, "--config", str(cfg)])
        assert code == 1 and "needs 2 numbers" in capsys.readouterr().err

    def test_detect_keys_from_file(self, tmp_path, capsys):
        flags = ["--alpha", "0.2", "--beta", "0.3", "--infiltration", "0.01",
                 "--attack", "bwh"]
        _, want = run_cli(["detect", "--mode", "geometric", *flags], capsys)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alpha = 0.2\nbeta = 0.3\ninfiltration = 0.01\nattack = bwh\n")
        _, got = run_cli(["detect", "--mode", "geometric", "--config", str(cfg)], capsys)
        _, plain = run_cli(["detect", "--mode", "geometric"], capsys)
        assert got == want != plain
        cfg.write_text("attack = both\n")
        code = main(["detect", "--mode", "geometric", "--config", str(cfg)])
        assert code == 1 and "cannot read" in capsys.readouterr().err

    def test_detect_counts_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("blocks = 500\n")
        _, got = run_cli(["detect", "--mode", "unlucky", "--config", str(cfg)], capsys)
        _, want = run_cli(["detect", "--mode", "unlucky", "--blocks", "500"], capsys)
        assert got == want
        series = tmp_path / "series.csv"
        cfg.write_text("periods = 48\n")
        code, _ = run_cli(["detect", "--mode", "variance", "--pool", "pool_a",
                           "--series-out", str(series), "--config", str(cfg)], capsys)
        assert code == 0 and len(parse_csv(series.read_text())) == 48


class TestScenarioCommands:
    def test_closed_pools(self, capsys):
        code, out = run_cli(["closed-pools"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["attacker_gain_pct"]) == pytest.approx(0.74, abs=0.02)
        assert float(rows[1]["attacker_gain_pct"]) == pytest.approx(0.32, abs=0.02)

    def test_stage_nash(self, capsys):
        code, out = run_cli(["stage-nash", "--alpha", "0.2", "0.2"], capsys)
        assert code == 0
        (row,) = parse_csv(out)
        assert abs(float(row["u1"])) < 1e-4
        assert row["converged"] == "1"

    @pytest.mark.parametrize("alpha, message", [
        (["0", "0.2"], "powers must be positive numbers, got 0.0, 0.2"),
        (["0.6", "0.2"], "no pool may hold more than half the network"),
    ])
    def test_stage_nash_refuses_invalid_powers(self, alpha, message, capsys):
        code = main(["stage-nash", "--alpha", *alpha])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_detect_block_ratio(self, capsys):
        code, out = run_cli(
            ["detect", "--mode", "block-ratio", "--beta", "0.2",
             "--infiltration", "0.005", "--blocks", "2000"],
            capsys,
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["expected_fraction"]) == pytest.approx(0.201005, abs=1e-5)

    def test_detect_block_ratio_nan_infiltration_rejected(self, capsys):
        code = main([*BLOCK_RATIO, "--infiltration", "nan"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --infiltration must be in [0, --alpha=0.1), got nan\n"

    def test_detect_variance_uses_bundled_fixture(self, capsys):
        code, out = run_cli(
            ["detect", "--mode", "variance", "--alpha", "0.10", "--beta", "0.2",
             "--infiltration", "0.005", "--attack", "faw", "--pool", "pool_a"],
            capsys,
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["variance_ratio"]) > 10.0

    def test_reproduce_table_1(self, capsys):
        code, out = run_cli(["reproduce-table", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        by_key = {(r["victim"], r["attack"]): r for r in rows}
        assert float(by_key[("antpool", "faw")]["r_bwh_pct"]) == pytest.approx(14.33, abs=0.5)
        assert float(by_key[("antpool", "faw")]["attacker_total_pct"]) == pytest.approx(-1.89, abs=0.1)

    def test_delta_bound(self, capsys):
        code, out = run_cli(["delta-bound", "--alpha", "0.25", "0.15", "--k", "0.5"],
                            capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert 0.0 < float(row["bound"]) < 1.0

    def test_npool_powers_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("powers = 25, 15, 10\nk = 0.999\n")
        code, out = run_cli(
            ["npool", "--attack", "faw", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("# totals:")

    def test_sweep_grid_flag_sets_cells(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["sweep", "--attack", "bwh", "--cells", "8", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out_file.read_text())
        alphas = {r["alpha1"] for r in rows}
        assert len(alphas) == 8

    def test_audit_ipbwh_csv(self, capsys):
        code, out = run_cli(["audit-ipbwh", "--cells", "4"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "alpha1,alpha2,f_value,k_chosen,passed"
        assert out.strip().splitlines()[-1] == "# failures: 0"

    def test_detect_periods_beyond_the_series_rejected(self, capsys):
        code = main(["detect", "--mode", "variance", "--periods", "5000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "5000 periods requested" in captured.err

    @pytest.mark.parametrize("args", [
        ["simulate", "--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0",
         "--rounds", "0"],
        ["npool", "--powers", "0.25", "0.15", "--attack", "faw", "--rounds", "-5"],
        ["reproduce-table", "3", "--rounds", "-5"],
    ])
    def test_monte_carlo_rounds_below_one_rejected(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Monte-Carlo rounds must be an integer of at least 1, got" in captured.err

    @pytest.mark.parametrize("args", [
        ["simulate", "--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0.02",
         "--seed", "-1"],
        ["reproduce-table", "3", "--rounds", "1000", "--seed", "-1"],
        ["npool", "--powers", "0.25", "0.15", "--attack", "faw", "--rounds", "100",
         "--seed", "-1"],
        ["detect", "--mode", "variance", "--seed", "-1"],
    ])
    def test_negative_seed_rejected(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"

    def test_negative_seed_from_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        code = main(["reproduce-table", "3", "--rounds", "1000", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--seed must be a non-negative integer, got -3" in captured.err

    # every mode: block-ratio and unlucky read --infiltration without
    # --alpha, so only this check keeps their subset inside its pool
    @pytest.mark.parametrize("mode", ["geometric", "variance", "block-ratio", "unlucky"])
    # all of --alpha infiltrating leaves no home power, so no period ends
    @pytest.mark.parametrize("value", ["-0.01", "nan", "0.11", "0.1"])
    def test_detect_infiltration_outside_attacker_power_rejected(self, mode, value, capsys):
        # checked before it is divided by --alpha, so the message names the
        # value as typed
        code = main(["detect", "--mode", mode, "--alpha", "0.1", "--infiltration", value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: --infiltration must be in [0, --alpha=0.1), got {float(value)}\n")

    @pytest.mark.parametrize("value", ["0"])
    def test_detect_infiltration_at_the_ends_accepted(self, value, capsys):
        code = main(["detect", "--mode", "geometric", "--alpha", "0.1",
                     "--infiltration", value])
        assert code == 0 and capsys.readouterr().out.splitlines()[1] == "geometric_p"

    def test_detect_unknown_pool_names_the_pools(self, capsys):
        code = main(["detect", "--mode", "variance", "--pool", "nosuch"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "'nosuch'" in captured.err and "pool_a, pool_b" in captured.err

    @pytest.mark.parametrize("content", [None, b"timestamp,pool,hashrate\n\xff\xfe\n"],
                             ids=["missing", "not-utf-8"])
    def test_detect_unreadable_hashrates_rejected(self, content, tmp_path, capsys):
        path = tmp_path / "hashrates.csv"
        if content is not None:
            path.write_bytes(content)
        code = main(["detect", "--mode", "variance", "--hashrates", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cannot read hash-rate file" in captured.err

    def test_detect_flat_honest_series_rejected(self, tmp_path, capsys):
        # a constant hash rate gives the honest series variance 0, so no ratio
        path, series = tmp_path / "flat.csv", tmp_path / "series.csv"
        start = datetime(2020, 1, 1)
        path.write_text("timestamp,pool,hashrate\n" + "".join(
            f"{(start + timedelta(hours=h)).isoformat()},flat,10.0\n" for h in range(800)))
        code = main(["detect", "--mode", "variance", "--hashrates", str(path),
                     "--series-out", str(series)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not series.exists()
        assert captured.err == (
            "error: the honest series is flat, so there is no variance ratio\n")

    def test_detect_series_out_schema(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        code, _ = run_cli(
            ["detect", "--mode", "variance", "--alpha", "0.10", "--beta", "0.2",
             "--infiltration", "0.005", "--periods", "48", "--pool", "pool_a",
             "--series-out", str(series)],
            capsys,
        )
        assert code == 0
        rows = parse_csv(series.read_text())
        assert len(rows) == 48
        assert set(rows[0]) == {"period_index", "reward_density"}


class TestSharedParser:
    """``main`` parses with one parser per process; no call may leave a trace
    in the next one."""

    def test_built_once(self, monkeypatch, capsys):
        assert run_cli(BLOCK_RATIO, capsys)[0] == 0

        def rebuilt(defaults=None):
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run_cli(BLOCK_RATIO, capsys)[0] == 0

    def test_each_config_file_gives_its_own_values(self, tmp_path, capsys):
        outs = []
        for blocks in ("500", "100"):
            cfg = tmp_path / f"{blocks}.cfg"
            cfg.write_text(f"blocks = {blocks}\n")
            _, got = run_cli(["detect", "--mode", "unlucky", "--config", str(cfg)], capsys)
            _, want = run_cli(["detect", "--mode", "unlucky", "--blocks", blocks], capsys)
            assert got == want
            outs.append(got)
        assert outs[0] != outs[1]

    def test_plain_call_after_a_config_call_gets_built_in_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("blocks = 500\nseed = 7\n")
        assert run_cli([*BLOCK_RATIO, "--config", str(cfg)], capsys)[0] == 0
        code, out = run_cli(BLOCK_RATIO, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BLOCK_RATIO_DIGEST

    @pytest.mark.parametrize("bad", [
        ["detect", "--mode", "block-ratio", "--blocks", "many"],
        ["detect", "--mode", "nosuch"],
        ["detect"],
    ])
    def test_usage_error_leaves_no_state(self, bad, capsys):
        assert main(bad) == 2
        capsys.readouterr()
        code, out = run_cli(BLOCK_RATIO, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BLOCK_RATIO_DIGEST


def test_scipy_imported_only_by_block_ratio():
    """A fresh interpreter: importing the package and building the parser
    loads no scipy module; ``detect --mode block-ratio`` then loads
    scipy.stats, so the import moved rather than went away."""
    script = "\n".join([
        "import contextlib, io, sys",
        "import poolgame, poolgame.cli",
        "poolgame.cli.build_parser()",
        "print('scipy' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = poolgame.cli.main(['detect', '--mode', 'block-ratio'])",
        "print(code, 'scipy.stats' in sys.modules)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "True"]


# values at and past the edge of every numeric domain: zero, negatives, one
# half, one, NaN, the infinities and integers beyond float precision and int64
EDGE_VALUES = ["0", "-0.0", "-1", "0.5", "1", "nan", "inf", "-inf", "1e308",
               str(10**30), str(-10**30)]
# sizes stay small so that an example is cheap, and still reach 0, negatives
# and values that are no integer
SIZES = ["-1", "0", "1", "2", "3", "nan", "1.5"]
# Monte-Carlo rounds also reach beyond int64, which is refused at once
ROUNDS = [*SIZES, str(10**30)]
SEEDS = ["0", "7", "-1", "nan", str(10**30)]


# the commands that play retaliation, and the others
RETALIATING = ["npool", "reproduce-table", "retaliate", "delta-bound"]
OTHERS = ["payoff", "simulate", "stage-nash", "sweep", "audit-ipbwh", "detect"]


@st.composite
def contract_argv(draw, commands):
    """argv of one of ``commands``. Half the examples draw only plausible
    values, so that full runs occur as well as refusals; the others draw
    each value from the edge values too. The sizes that default to large
    values (``--cells``, ``simulate --rounds``) are always given."""
    edges = draw(st.booleans())

    def pick(plausible, edge_values=EDGE_VALUES):
        return draw(st.one_of(plausible, st.sampled_from(edge_values)) if edges else plausible)

    def number(top=0.3):
        return pick(st.floats(0.0, top).map(repr))

    def size(top=3, edge_values=SIZES, low=1):
        return pick(st.integers(low, top).map(str), edge_values)

    def option(flag, values):
        return [flag, *values] if draw(st.booleans()) else []

    k = option("--k", [pick(st.floats(0.0, 1.0, exclude_max=True).map(repr))])
    seed = option("--seed", [pick(st.integers(0, 10**30).map(str), SEEDS)])
    alpha = ["--alpha", number(0.5), number(0.5)]
    attack = draw(st.sampled_from(["faw", "bwh"]))
    command = draw(st.sampled_from(commands))
    if command == "npool":
        powers = [number() for _ in range(draw(st.integers(0 if edges else 2, 5)))]
        return ["npool", *(["--powers", *powers] if powers else []), "--attack", attack,
                *option("--stages", [size()]),
                *option("--rounds", [draw(st.sampled_from(["0", "200"])) if not edges
                                     else size(200, ROUNDS)]), *k, *seed]
    if command == "reproduce-table":
        return ["reproduce-table", pick(st.sampled_from(["1", "3"]), ["2", "nan"]),
                *option("--rounds", [size(200, ROUNDS)]), *k, *seed]
    if command == "retaliate":
        return ["retaliate", *alpha, "--opp-attack", *draw(st.permutations([number(), "0"])),
                *option("--own-prev", [number(), number()]),
                *option("--opp-prescribed", [number(), number()]), *k, *seed]
    if command in ("delta-bound", "stage-nash"):
        return [command, *alpha, *(k if command == "delta-bound" else []), *seed]
    if command in ("payoff", "simulate"):
        # an action attacks with one kind, the other component 0
        actions = [part for flag in ("--a1", "--a2")
                   for part in (flag, *draw(st.permutations([number(0.1), "0"])))]
        rounds = ["--rounds", size(200, ROUNDS)] if command == "simulate" else []
        return [command, *alpha, *actions, *rounds, *seed]
    if command == "sweep":
        return ["sweep", "--attack", attack, "--cells", size(),
                *option("--fixed-alpha1", [number(0.5)]), *k, *seed]
    if command == "audit-ipbwh":
        return ["audit-ipbwh", "--cells", size(), *seed]
    mode = draw(st.sampled_from(["block-ratio", "unlucky", "variance", "geometric"]))
    return ["detect", "--mode", mode, *option("--alpha", [number(0.5)]),
            *option("--beta", [number(0.5)]), *option("--infiltration", [number(0.05)]),
            "--attack", attack, *option("--blocks", [size(50)]),
            *option("--periods", [size(40, low=30)]), *seed]


class TestContractFindings:
    """Inputs on which the contract property found a traceback or a
    non-finite number with exit 0."""

    def test_unpunished_class_prints_none(self, capsys):
        # the 1.2e-7 pool's punishments of the half-network pool are all
        # below OPTIMIZER_TOL, so pool 1's classes have no ratio
        code, out = run_cli(["delta-bound", "--alpha", "0.5", "1.192092896e-07"], capsys)
        assert code == 0
        assert out.splitlines()[3:7] == [f"# pool1:{name}: none" for name in (
            "being-punished", "cooperating", "mutual-bad", "prescribed-retaliation")]

    def test_no_punished_class_refused(self, capsys):
        code = main(["delta-bound", "--alpha", "5e-09", "5e-09"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: no sampled deviation is punished measurably, "
                                "so there is no bound\n")

    @pytest.mark.parametrize("argv, message", [
        # the attack search met a singular Hessian here before it refused
        # such pools
        (["--powers", "3.616427006020063e-22", "6.992851437882808e-213",
          "1.1125369292536007e-308", "--attack", "faw"],
         "actions leave no live block-finding power"),
        (["--powers", "0.25", "2.225073858507203e-309", "--attack", "faw", "--rounds", "200"],
         "actions leave no live block-finding power"),
        # the attack search printed overflow, divide and invalid warnings
        # before the stage payoffs refused the pool
        (["--powers", "1.1125369292536007e-308", "0.25", "0.25", "--attack", "faw"],
         "actions leave no live block-finding power"),
    ])
    def test_npool_with_next_to_no_power_refused(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["npool", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["reproduce-table", "3"],
        ["npool", "--powers", "0.25", "0.15", "--attack", "faw"],
        ["simulate", "--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0"],
    ])
    def test_rounds_beyond_int64_refused(self, argv, capsys):
        # numpy's multinomial raised OverflowError on these
        code = main([*argv, "--rounds", str(10**30)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: Monte-Carlo rounds must be below 2**63, "
                                f"got {10**30}\n")

    @pytest.mark.parametrize("argv, message", [
        # a period's size fluctuates below the infiltration: the pool finds no
        # block of its own then, so the period never ends (numpy's geometric
        # draw refused p = 0)
        (["--alpha", "0.0313", "--infiltration", "0.03125"],
         r"invalid sizes alpha=0\.03\d+, beta=0\.2, infiltration 0\.03125"),
        # densities of 1/alpha square to inf: the ratio printed nan
        (["--alpha", "4.808102888437223e-228", "--infiltration", "0"],
         "series variances are not finite"),
    ])
    def test_detect_variance_without_a_finite_period_refused(self, argv, message, capsys):
        code = main(["detect", "--mode", "variance", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert re.match(f"error: {message}", captured.err) and captured.err.count("\n") == 1

    def test_detect_geometric_without_home_power_refused(self, capsys):
        # printed geometric_p 0.00000000 with exit 0: an attacker that keeps no
        # home power never ends a period
        code = main(["detect", "--mode", "geometric", "--alpha", "0.2", "--beta", "0.2",
                     "--infiltration", "0.2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --infiltration must be in [0, --alpha=0.2), got 0.2\n"


class TestCliContract:
    """Whatever the input, a command exits 0, 1 or 2 and raises nothing out
    of ``main``; exit 0 prints the header and only finite numbers, exit 1
    exactly one ``error:`` line on stderr, and no command warns. A sweep's
    error rows, which end in their message, hold NaN by design and are not
    read."""

    @given(argv=contract_argv(RETALIATING))
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_output(self, argv):
        self.check(argv)

    @given(argv=contract_argv(OTHERS))
    @settings(max_examples=300, deadline=None)
    def test_other_commands(self, argv):
        self.check(argv)

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        # a warning (numpy's RuntimeWarning, say) is an error, so one printed
        # before an exit fails the property too
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert out.startswith(f"# seed=") and len(out.splitlines()) > 1
            if argv[0] == "sweep":
                out = "\n".join(line for line in out.splitlines() if line.endswith(","))
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        elif code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
