"""The benchmark's workloads: the commands a sample runs and how its output is checked.

Each workload is a closed loop: one process runs one sample at a time, and a
sample is the list of ``poolgame`` commands below. ``run`` is a callable that
executes one command line in-process and returns ``(exit_code, stdout)``.

Exact outputs must match SHA-256 digests of their body (the output without
its ``# seed=... command=...`` header line, which is checked separately)
recorded at the commit that introduced the benchmark. Monte-Carlo outputs are
checked statistically against the exact model, within ``Z`` of the sampler's
own standard errors, so a change to the sampler's draws that keeps their
distribution still passes.
"""

from __future__ import annotations

import hashlib
import math

# Monte-Carlo rounds per stage payoff (Table 3) and per simulate call. Table 3
# runs two scenarios of two stages, so a sample draws 5 * MC_ROUNDS rounds.
MC_ROUNDS = 2_000_000
# rounds of the warm-up sample, which also yields the samplers' standard errors
WARM_ROUNDS = 200_000
# allowed distance of a Monte-Carlo estimate from the exact value, in standard errors
Z = 5.0

SIMULATE_PROFILE = ["--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0.02"]

DIGESTS = {
    "sweep-faw": "e3ddc4d4cd714699d9c751fc42b9ce10f6f55156b190ebcff98315366c1cca60",
    "audit-ipbwh": "feeccc390bbc018524347aaab80734ac1c6e115f268b254cf08e236e20a2184b",
    "table3-exact": "e02b0f9482885bdc79255fa0a12ae9a9cd84609e646d75e47fcd8feb0f363ebc",
    "payoff-exact": "77d2cface312e4cb0bb553fc24d97328c1a7460ba2fca87b6a419c4ba40a821d",
}


def body(text: str, seed: int, command: str) -> str | None:
    """Output without its header line, or None if the header is not the expected one."""
    first, _, rest = text.partition("\n")
    return rest if first == f"# seed={seed} command={command}" else None


def digest_ok(text: str, seed: int, command: str, digest: str) -> bool:
    rest = body(text, seed, command)
    return rest is not None and hashlib.sha256(rest.encode()).hexdigest() == digest


def data_rows(text: str) -> list[list[str]]:
    """CSV rows after the column header, comment lines dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def table3_mc_ok(mc_text, exact_text, seed, se_pct) -> bool:
    """Monte-Carlo Table 3 against exact Table 3.

    Attack-ratio and retaliation columns must be identical; the attacker
    total may differ by ``Z`` standard errors (``se_pct[attack]``, in percent)
    plus the rounding of two 4-decimal figures.
    """
    mc = body(mc_text, seed, "reproduce-table")
    exact = body(exact_text, seed, "reproduce-table")
    if mc is None or exact is None:
        return False
    mc_lines, exact_lines = mc.splitlines(), exact.splitlines()
    if len(mc_lines) != len(exact_lines) or mc_lines[0] != exact_lines[0]:
        return False
    for m, e in zip(data_rows(mc), data_rows(exact)):
        if len(m) != 7 or m[:6] != e[:6] or m[0] not in se_pct:
            return False
        if not abs(float(m[6]) - float(e[6])) <= Z * se_pct[m[0]] + 1e-4:
            return False
    return True


def simulate_ok(sim_text, payoff_text, seed, rounds) -> bool:
    """``simulate``'s u1,u2 against ``payoff``'s, within ``Z`` of its printed stderr."""
    sim = body(sim_text, seed, "simulate")
    exact = body(payoff_text, seed, "payoff")
    if sim is None or exact is None:
        return False
    (row,), (ref,) = data_rows(sim), data_rows(exact)
    u1, u2, se1, se2, n = (float(v) for v in row)
    if n != rounds:
        return False
    return all(
        abs(u - float(r)) <= Z * se + 1e-8
        for u, r, se in ((u1, ref[0], se1), (u2, ref[1], se2))
    )


class ExactWorkload:
    """One deterministic command; its CSV rows are the operations."""

    def __init__(self, name, argv, warm_argv, row_failed):
        self.name = name
        self.argv = argv
        self.warm_argv = warm_argv
        self.row_failed = row_failed

    def commands(self, seed: int) -> list[list[str]]:
        return [[*self.argv, "--seed", str(seed)]]

    def prepare(self, run, seed: int) -> None:
        """Warm the process up on a small instance of the same command."""
        run([*self.warm_argv, "--seed", str(seed)])

    def work(self, results) -> int:
        return len(data_rows(results[0][1]))

    def operations(self, results) -> tuple[int, int]:
        code, text = results[0]
        rows = data_rows(text)
        if code != 0 or not rows:
            return max(len(rows), 1), max(len(rows), 1)
        return len(rows), sum(1 for row in rows if self.row_failed(row))

    def check(self, results, seed: int) -> bool:
        code, text = results[0]
        return code == 0 and digest_ok(text, seed, self.argv[0], DIGESTS[self.name])


class NPoolMonteCarlo:
    """Monte-Carlo Table 3 then ``simulate``; each command is one operation."""

    name = "npool-mc"

    def __init__(self, rounds: int = MC_ROUNDS, warm_rounds: int = WARM_ROUNDS):
        self.rounds = rounds
        self.warm_rounds = warm_rounds
        self.refs = None

    def _argv(self, seed: int, rounds: int) -> list[list[str]]:
        common = ["--rounds", str(rounds), "--seed", str(seed)]
        return [["reproduce-table", "3", *common], ["simulate", *SIMULATE_PROFILE, *common]]

    def commands(self, seed: int) -> list[list[str]]:
        return self._argv(seed, self.rounds)

    def prepare(self, run, seed: int) -> None:
        """Warm up, run the exact references and take the samplers' standard errors.

        The warm-up Table 3 records the attacker's standard error of each
        stage from ``npool_stage_payoffs_mc``; the error of the two-stage
        total at ``rounds`` follows by adding the stages' variances and
        scaling with the square root of the round ratio.
        """
        from poolgame import engine

        table3, simulate = self._argv(seed, self.warm_rounds)
        sampler = engine.npool_stage_payoffs_mc
        stage_se = []

        def recording(*args, **kwargs):
            u, se = sampler(*args, **kwargs)
            stage_se.append(float(se[0]))
            return u, se

        engine.npool_stage_payoffs_mc = recording
        try:
            warm_code, _ = run(table3)
        finally:
            engine.npool_stage_payoffs_mc = sampler
        run(simulate)
        exact_table = run(["reproduce-table", "3", "--seed", str(seed)])
        exact_payoff = run(["payoff", *SIMULATE_PROFILE, "--seed", str(seed)])
        # scenarios run FAW then BWH, two stages each
        scale = 100.0 * math.sqrt(self.warm_rounds / self.rounds)
        se_pct = {
            kind: scale * math.hypot(*stage_se[2 * i: 2 * i + 2])
            for i, kind in enumerate(("faw", "bwh"))
        } if len(stage_se) == 4 else {}
        self.refs = {
            "table": exact_table[1],
            "payoff": exact_payoff[1],
            "se_pct": se_pct,
            "ok": warm_code == 0 and len(stage_se) == 4
            and exact_table[0] == 0 and exact_payoff[0] == 0
            and digest_ok(exact_table[1], seed, "reproduce-table", DIGESTS["table3-exact"])
            and digest_ok(exact_payoff[1], seed, "payoff", DIGESTS["payoff-exact"]),
        }

    def work(self, results) -> int:
        return 5 * self.rounds

    def operations(self, results) -> tuple[int, int]:
        return len(results), sum(1 for code, _ in results if code != 0)

    def check(self, results, seed: int) -> bool:
        (table_code, table), (sim_code, sim) = results
        refs = self.refs
        return (
            refs["ok"] and table_code == 0 and sim_code == 0
            and table3_mc_ok(table, refs["table"], seed, refs["se_pct"])
            and simulate_ok(sim, refs["payoff"], seed, self.rounds)
        )


def workloads() -> dict:
    """Fresh workload objects by name (NPoolMonteCarlo keeps per-run references)."""
    return {
        w.name: w
        for w in (
            ExactWorkload(
                "sweep-faw",
                ["sweep", "--attack", "faw", "--cells", "60"],
                ["sweep", "--attack", "faw", "--cells", "6"],
                row_failed=lambda row: row[8:] != [""],
            ),
            ExactWorkload(
                "audit-ipbwh",
                ["audit-ipbwh", "--cells", "30"],
                ["audit-ipbwh", "--cells", "3"],
                row_failed=lambda row: row[-1] != "1",
            ),
            NPoolMonteCarlo(),
        )
    }
