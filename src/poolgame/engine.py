"""Repeated-game execution, deviation scenarios, sweeps, and the n-pool game.

One runner, :func:`run_npool`, plays every game with n >= 2 pools. It keeps
ARS bookkeeping per ordered pair of pools, fills a
:class:`PairwiseActionMatrix` with the prescriptions and each strategy's
overrides, and records exact stage payoffs: the ``payoff_pair`` closed form
for two pools, enumeration of withheld-block states for more. The
Monte-Carlo path samples the same round race (``payoff._sample_rounds``) and
reports a standard error; the two-pool closed form is the enumeration's
reduction oracle.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    Action,
    AttackKind,
    GameConfig,
    InfiltrationBudgetExceeded,
    InvalidScenario,
    PoolGameError,
    ZERO_ACTION,
)
from .payoff import (
    _pot_matrix,
    _sample_rounds,
    one_sided_attacker,
    one_sided_victim,
    optimal_faw_infiltration,
    optimal_infiltration,
    payoff_pair,
)
from .ars import ars_step, initial_state, retaliate
from .equilibrium import golden_max

DEFAULT_K_NEAR_ONE = 0.999  # realizes "preference weight just under 1"
SWEEP_POWER_CAP = 0.9  # two-pool sweeps skip cells whose pools hold more together
ASCENT_SWEEPS = 5  # coordinate-ascent passes of optimal_simultaneous_attack
CLOSED_POOL_VICTIM = 0.25  # the open pool the closed pools attack


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
# Every strategy has a preference weight ``k`` for its ARS bookkeeping and a
# ``pick(stage, me, alphas)`` returning its overrides of the ARS prescription
# for its own row of the stage matrix, keyed by victim pool.


@dataclass
class ArsAgent:
    """Follows the adaptive retaliation strategy with preference weight k."""

    k: float = DEFAULT_K_NEAR_ONE

    def pick(self, stage: int, me: int, alphas) -> dict[int, Action]:
        return {}


@dataclass
class ScriptedDeviator:
    """Plays fixed override actions (stage -> {victim: Action}) at chosen
    stages, the strategy's prescription otherwise."""

    overrides: dict[int, dict[int, Action]]
    k: float = DEFAULT_K_NEAR_ONE

    def pick(self, stage, me, alphas):
        return self.overrides.get(stage, {})


@dataclass
class OptimalOneShotAttacker:
    """Deviates once, at stage 0, against every other pool with the
    payoff-maximizing attack, then falls back to the cooperative strategy
    (contrite).

    One victim gets the closed-form one-sided optimum; several victims get
    a simultaneous infiltration vector from coordinate ascent on the exact
    stage payoff.
    """

    kind: AttackKind
    k: float = DEFAULT_K_NEAR_ONE

    def pick(self, stage, me, alphas):
        if stage != 0:
            return {}
        victims = [j for j in range(len(alphas)) if j != me]
        if len(victims) == 1:
            (j,) = victims
            return {j: Action.of(self.kind, optimal_infiltration(self.kind, alphas[me], alphas[j]))}
        xs = optimal_simultaneous_attack(alphas, me, self.kind)
        return {j: Action.of(self.kind, xs[j]) for j in victims}


@dataclass
class AlwaysHonest:
    """Never attacks, never retaliates."""

    k: float = DEFAULT_K_NEAR_ONE

    def pick(self, stage, me, alphas):
        return {j: ZERO_ACTION for j in range(len(alphas)) if j != me}


Strategy = ArsAgent | ScriptedDeviator | OptimalOneShotAttacker | AlwaysHonest


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    stage: int
    actions: "PairwiseActionMatrix"
    payoffs: tuple[float, ...]


@dataclass(frozen=True)
class History:
    records: tuple[StageRecord, ...]
    discount: float


def discounted_payoff(history: History, pool: int) -> float:
    """Discounted sum of the pool's stage payoffs, first stage undiscounted."""
    if not history.records:
        raise InvalidScenario("history is empty")
    d = history.discount
    return float(sum(r.payoffs[pool] * d**i for i, r in enumerate(history.records)))


# ---------------------------------------------------------------------------
# Two-stage deviation sweeps (heatmap data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    alpha_1: float
    alpha_2: float
    attack_ratio: float  # attacker's infiltration / alpha_1
    r2_faw: float  # retaliation FAW power / alpha_2
    r2_bwh: float
    u1_avg: float
    u2_avg: float
    ip_faw_empty: bool
    error: str = ""


def _two_stage_cell(alpha_1, alpha_2, attack: Action, k) -> SweepCell:
    try:
        u0 = payoff_pair(alpha_1, alpha_2, attack, ZERO_ACTION)
        r = retaliate(alpha_2, ZERO_ACTION, alpha_1, attack, ZERO_ACTION, k)
        u1 = payoff_pair(alpha_1, alpha_2, ZERO_ACTION, r)
        return SweepCell(
            alpha_1,
            alpha_2,
            attack.power / alpha_1,
            r.faw / alpha_2,
            r.bwh / alpha_2,
            (u0.u_i + u1.u_i) / 2.0,
            (u0.u_j + u1.u_j) / 2.0,
            ip_faw_empty=r.kind is not AttackKind.FAW and not r.is_zero,
        )
    except PoolGameError as exc:  # cell errors recorded, sweep continues
        return SweepCell(alpha_1, alpha_2, attack.power / alpha_1,
                         np.nan, np.nan, np.nan, np.nan, False, error=str(exc))


def two_stage_sweep(
    alpha_grid,
    attacker_kind: AttackKind,
    k: float = DEFAULT_K_NEAR_ONE,
) -> list[SweepCell]:
    """Optimal one-shot deviation followed by retaliation, per power cell.

    The attacker (pool 1) plays its payoff-maximizing one-sided attack; pool 2
    retaliates at the next stage. Reports retaliation ratios and both pools'
    two-stage average payoffs.
    """
    cells = []
    for alpha_1 in alpha_grid:
        for alpha_2 in alpha_grid:
            if alpha_1 + alpha_2 > SWEEP_POWER_CAP:
                continue
            attack = Action.of(
                attacker_kind, optimal_infiltration(attacker_kind, alpha_1, alpha_2)
            )
            cells.append(_two_stage_cell(alpha_1, alpha_2, attack, k))
    return cells


def two_stage_ratio_sweep(
    ratio_grid,
    alpha_2_grid,
    attacker_kind: AttackKind,
    alpha_1: float = 0.2,
    k: float = DEFAULT_K_NEAR_ONE,
) -> list[SweepCell]:
    """Same two-stage scenario sweeping the attacker's infiltration ratio at
    fixed attacker size (heatmaps over attack intensity)."""
    cells = []
    for ratio in ratio_grid:
        for alpha_2 in alpha_2_grid:
            if alpha_1 + alpha_2 > SWEEP_POWER_CAP:
                continue
            attack = Action.of(attacker_kind, ratio * alpha_1)
            cells.append(_two_stage_cell(alpha_1, alpha_2, attack, k))
    return cells


def sweep_csv_rows(cells):
    yield "alpha1,alpha2,attack_ratio,r2F,r2B,u1_avg,u2_avg,ip_faw_empty,error"
    for c in cells:
        yield (
            f"{c.alpha_1:.6f},{c.alpha_2:.6f},{c.attack_ratio:.6f},"
            f"{c.r2_faw:.6f},{c.r2_bwh:.6f},{c.u1_avg:.8f},{c.u2_avg:.8f},"
            f"{int(c.ip_faw_empty)},{c.error}"
        )


# ---------------------------------------------------------------------------
# n-pool game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseActionMatrix:
    """Per-ordered-pair infiltration powers: faw[i, j] (bwh[i, j]) is pool i's
    FAW (BWH) power inside pool j."""

    faw: np.ndarray
    bwh: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "PairwiseActionMatrix":
        return cls(np.zeros((n, n)), np.zeros((n, n)))

    def validate(self, alphas) -> "PairwiseActionMatrix":
        # written so that NaN fails every test
        if not (np.all(self.faw >= 0) and np.all(self.bwh >= 0)):
            raise InvalidScenario("infiltration powers must be non-negative numbers")
        if np.any((self.faw > 0) & (self.bwh > 0)):
            raise InvalidScenario("FAW and BWH are mutually exclusive per pair")
        if np.any(np.diag(self.faw + self.bwh) > 0):
            raise InvalidScenario("a pool cannot infiltrate itself")
        out = (self.faw + self.bwh).sum(axis=1)
        if not np.all(out <= np.asarray(alphas) + 1e-12):
            raise InfiltrationBudgetExceeded(
                f"outgoing infiltration {out} exceeds pool powers {alphas}"
            )
        return self

    def action(self, i: int, j: int) -> Action:
        return Action(float(self.faw[i, j]), float(self.bwh[i, j]))


def _npool_direct_revenue(alphas, matrix: PairwiseActionMatrix) -> np.ndarray:
    """Exact expected per-round direct block revenue per pool.

    Home finds end rounds outright. FAW detachments withhold; when the first
    round-ending find is external, every withheld block is released and one of
    the released branches wins uniformly (the external block always loses).
    """
    alphas = np.asarray(alphas, float)
    n = alphas.size
    out = (matrix.faw + matrix.bwh).sum(axis=1)
    home = alphas - out
    ext = 1.0 - alphas.sum()
    theta = ext + home.sum()
    flags = [
        (matrix.faw[i, j], j)
        for i in range(n)
        for j in range(n)
        if matrix.faw[i, j] > 0.0
    ]
    if len(flags) > 16:
        raise InvalidScenario("too many simultaneous FAW infiltrations for exact enumeration")
    revenue = home / theta
    for bits in itertools.product((0, 1), repeat=len(flags)):
        released = [m for m, on in enumerate(bits) if on]
        if not released:
            continue
        idle = sum(flags[m][0] for m, on in enumerate(bits) if not on)
        p = 0.0
        for r in range(len(released) + 1):
            for sub in itertools.combinations(released, r):
                p += (-1) ** len(sub) / (theta + idle + sum(flags[m][0] for m in sub))
        p *= ext
        for m in released:
            revenue[flags[m][1]] += p / len(released)
    return revenue


def npool_stage_payoffs(alphas, matrix: PairwiseActionMatrix) -> np.ndarray:
    """Exact expected extra reward densities for one n-pool stage."""
    matrix.validate(alphas)
    revenue = _npool_direct_revenue(alphas, matrix)
    q = np.linalg.solve(_pot_matrix(alphas, matrix.faw, matrix.bwh), revenue)
    return q - 1.0


def npool_stage_payoffs_mc(
    alphas, matrix: PairwiseActionMatrix, rounds: int = 10_000_000, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the n-pool stage payoffs with standard errors,
    sampled from the round race of the live hash power."""
    matrix.validate(alphas)
    u, stderr, _, _ = _sample_rounds(alphas, matrix.faw, matrix.bwh, rounds, seed)
    return u, stderr


def optimal_simultaneous_attack(alphas, attacker: int, kind: AttackKind) -> np.ndarray:
    """Coordinate ascent with golden-section line search over each victim's
    infiltration power, respecting the attacker's total power budget."""
    alphas = np.asarray(alphas, float)
    n = alphas.size
    x = np.zeros(n)

    def u_attacker(xs) -> float:
        m = PairwiseActionMatrix.zeros(n)
        if kind is AttackKind.FAW:
            m.faw[attacker, :] = xs
        else:
            m.bwh[attacker, :] = xs
        return float(npool_stage_payoffs(alphas, m)[attacker])

    for _ in range(ASCENT_SWEEPS):
        for j in range(n):
            if j == attacker:
                continue
            budget = alphas[attacker] - (x.sum() - x[j])

            def line(v, j=j):
                y = x.copy()
                y[j] = v
                return u_attacker(y)

            x[j] = golden_max(line, 0.0, budget, tol=1e-9)
    return x


def run_npool(
    config: GameConfig,
    strategies: Sequence[Strategy],
    stages: int,
    payoff_rounds: int | None = None,
) -> History:
    """Play the repeated game of n >= 2 pools with per-pair ARS bookkeeping.

    Recorded stage payoffs are exact expectations by default; pass
    ``payoff_rounds`` to estimate them by Monte-Carlo instead, each stage
    with ``npool_stage_payoffs_mc`` seeded ``config.seed + stage``. Its cost
    follows the rounds in which a FAW flag fires first, so stages without
    FAW cost one multinomial draw. The standard error is not recorded in
    the history (``npool_stage_payoffs_mc`` returns it).
    """
    alphas = config.powers
    n = len(alphas)
    if n < 2 or len(strategies) != n:
        raise InvalidScenario("at least two pools and one strategy per pool required")
    states = {
        (i, j): initial_state(strategies[i].k)
        for i in range(n)
        for j in range(n)
        if i != j
    }
    records = []
    for t in range(stages):
        matrix = PairwiseActionMatrix.zeros(n)
        for (i, j), st in states.items():
            a, states[i, j] = ars_step(st, alphas[i], alphas[j])
            matrix.faw[i, j], matrix.bwh[i, j] = a.faw, a.bwh
        for i, strat in enumerate(strategies):
            for j, a in strat.pick(t, i, alphas).items():
                matrix.faw[i, j], matrix.bwh[i, j] = a.faw, a.bwh
        matrix.validate(alphas)
        for (i, j), st in states.items():
            states[i, j] = st.with_observed(matrix.action(i, j), matrix.action(j, i))
        if payoff_rounds:
            u, _ = npool_stage_payoffs_mc(alphas, matrix, payoff_rounds, config.seed + t)
        elif n == 2:
            u = payoff_pair(*alphas, matrix.action(0, 1), matrix.action(1, 0))
        else:
            u = npool_stage_payoffs(alphas, matrix)
        records.append(StageRecord(t, matrix, tuple(float(v) for v in u)))
    return History(tuple(records), config.discount)


# ---------------------------------------------------------------------------
# Closed pools scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedPoolRow:
    attacker_power: float
    infiltration: float
    attacker_gain: float
    victim_loss: float


def closed_pool_scenario(attacker_powers=(0.031, 0.013)) -> list[ClosedPoolRow]:
    """Unretaliated optimal FAW by closed pools against a large open pool.

    Closed pools cannot be counter-infiltrated, so the attack simply stands;
    reports each attacker's extra reward density and the victim's loss.
    """
    rows = []
    for a in attacker_powers:
        if a == 0.0:
            rows.append(ClosedPoolRow(0.0, 0.0, 0.0, 0.0))
            continue
        f = optimal_faw_infiltration(a, CLOSED_POOL_VICTIM)
        gain = float(one_sided_attacker(AttackKind.FAW, a, CLOSED_POOL_VICTIM, f))
        loss = -float(one_sided_victim(AttackKind.FAW, a, CLOSED_POOL_VICTIM, f))
        rows.append(ClosedPoolRow(a, f, gain, loss))
    return rows
