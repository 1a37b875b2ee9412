"""Repeated-game execution, deviation scenarios, sweeps, and the n-pool game.

One runner, :func:`run_npool`, plays every game with n >= 2 pools. It keeps
the ARS bookkeeping of every ordered pair of pools as matrices (standings
from the last actions and prescriptions, one ``ars.retaliate_cells`` batch
for a stage's retaliations), fills a :class:`PairwiseActionMatrix` with the
prescriptions and each strategy's overrides, and records exact stage
payoffs: the ``payoff_pair`` closed form for two pools, for more a sum over
the sets of withheld FAW blocks whose weights are the inclusion-exclusion
of the round race in closed form. The Monte-Carlo path samples the same
round race (``payoff._sample_rounds``) and reports a standard error; the
two-pool closed form is the exact sum's reduction oracle. The one-shot
attack on several pools at once maximizes a closed form of the attacker's
own stage payoff by Newton's method: with the attacker's row the only
attack, the pot system is triangular and the FAW revenue a sum over victim
sets, so payoff, gradient and Hessian need no enumeration and no solve.

The two-stage sweeps are array expressions over all their cells (batched
``payoff_pair_raw``, ``ars.retaliate_cells``), bit-identical to a per-cell
computation, and return one ``SweepTable`` of columns. Cells where the model
breaks down are masked into error rows; invalid powers or attacks raise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    ACTION_TOL,
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    DegenerateDenominator,
    GameConfig,
    InvalidAction,
    InvalidScenario,
    NonConvergence,
    ZERO_ACTION,
    check_actions,
    check_count,
    check_powers,
    check_weight,
)
from .payoff import (
    NO_LIVE_POWER,
    _pot_matrix,
    _sample_rounds,
    one_sided_attacker,
    one_sided_victim,
    optimal_faw_infiltration,
    optimal_infiltration,
    payoff_pair,
    payoff_pair_raw,
)
from .ars import _empty_set_error, retaliate_cells

DEFAULT_K_NEAR_ONE = 0.999  # realizes "preference weight just under 1"
SWEEP_POWER_CAP = 0.9  # two-pool sweeps skip cells whose pools hold more together
ATTACK_STEP_TOL = 1e-12  # optimal_simultaneous_attack ends after a Newton step below this
ATTACK_PAYOFF_SLACK = 1e-15  # rounding margin of the attacker's revenue in its step test
ATTACK_MAX_STEPS = 50  # Newton steps before optimal_simultaneous_attack gives up
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
    the simultaneous infiltration vector that maximizes the exact stage
    payoff (``optimal_simultaneous_attack``, Newton's method on its closed
    form).
    """

    kind: AttackKind
    k: float = DEFAULT_K_NEAR_ONE

    def pick(self, stage, me, alphas):
        if stage != 0:
            return {}
        victims = [j for j in range(len(alphas)) if j != me]
        if len(victims) == 1:
            (j,) = victims
            check_powers(alphas[me], alphas[j])
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
class SweepTable:
    """A sweep's result as columns, one entry per cell in row order. Error
    rows have NaN retaliation ratios and payoffs, ``ip_faw_empty`` False and
    their message in ``error``; other rows have an empty ``error``."""

    alpha_1: np.ndarray
    alpha_2: np.ndarray
    attack_ratio: np.ndarray  # attacker's infiltration / alpha_1
    r2_faw: np.ndarray  # retaliation FAW power / alpha_2
    r2_bwh: np.ndarray
    u1_avg: np.ndarray
    u2_avg: np.ndarray
    ip_faw_empty: np.ndarray  # bool: a nonzero BWH retaliation
    error: list[str]


def _two_stage_cells(alpha_1, alpha_2, power, kind, k) -> SweepTable:
    """Cells with valid powers and attacks: pool 1 attacks with ``power``,
    pool 2 retaliates, all as array expressions. A cell with a pool of at
    most ALGEBRAIC_TOL, where a stage denominator degenerates, and a cell
    whose BWH candidate set is empty are error rows."""
    live = (alpha_1 > ALGEBRAIC_TOL) & (alpha_2 > ALGEBRAIC_TOL)
    a1, a2, p = alpha_1[live], alpha_2[live], power[live]
    zero = np.zeros_like(p)
    f, b = (p, zero) if kind is AttackKind.FAW else (zero, p)
    u0 = payoff_pair_raw(a1, a2, f, b, zero, zero)
    stage = np.array([*payoff_pair_raw(a2, a1, zero, zero, f, b),
                      *payoff_pair_raw(a2, a1, zero, zero, zero, zero)])
    faw, x, empty = retaliate_cells(a2, a1, stage, k)
    r_faw, r_bwh = np.where(faw, x, 0.0), np.where(faw, 0.0, x)
    u1 = payoff_pair_raw(a1, a2, zero, zero, r_faw, r_bwh)
    # the columns r2_faw, r2_bwh, u1_avg, u2_avg; error rows keep NaN
    columns = np.full((4, alpha_1.size), np.nan)
    flagged = np.zeros(alpha_1.size, bool)
    ok = np.flatnonzero(live)[~empty]
    columns[:, ok] = np.array([r_faw / a2, r_bwh / a2, (u0[0] + u1[0]) / 2.0,
                               (u0[1] + u1[1]) / 2.0])[:, ~empty]
    flagged[ok] = (~faw & (x != 0.0))[~empty]
    errors = np.where(live, "", NO_LIVE_POWER).tolist()
    for i in np.flatnonzero(live)[empty]:  # error rows only
        errors[i] = str(_empty_set_error(alpha_2[i], alpha_1[i], ZERO_ACTION,
                                         Action.of(kind, power[i]), ZERO_ACTION))
    return SweepTable(alpha_1, alpha_2, power / alpha_1, *columns, flagged, errors)


def _pairs(outer, inner):
    """Row-major pairs of two grids: the sweeps' cell order."""
    o, i = np.meshgrid(np.asarray(outer, float), np.asarray(inner, float), indexing="ij")
    return o.ravel(), i.ravel()


def two_stage_sweep(
    alpha_grid,
    attacker_kind: AttackKind,
    k: float = DEFAULT_K_NEAR_ONE,
) -> SweepTable:
    """Optimal one-shot deviation followed by retaliation, per power cell.

    The attacker (pool 1) plays its payoff-maximizing one-sided attack; pool 2
    retaliates at the next stage. Reports retaliation ratios and both pools'
    two-stage average payoffs. Raises ``InvalidPowers`` for the first cell
    with powers ``check_powers`` refuses.
    """
    alpha_1, alpha_2 = _pairs(alpha_grid, alpha_grid)
    keep = ~(alpha_1 + alpha_2 > SWEEP_POWER_CAP)
    alpha_1, alpha_2 = alpha_1[keep], alpha_2[keep]
    check_powers(alpha_1, alpha_2)
    power = optimal_infiltration(attacker_kind, alpha_1, alpha_2)
    return _two_stage_cells(alpha_1, alpha_2, power, attacker_kind, k)


def two_stage_ratio_sweep(
    ratio_grid,
    alpha_2_grid,
    attacker_kind: AttackKind,
    alpha_1: float = 0.2,
    k: float = DEFAULT_K_NEAR_ONE,
) -> SweepTable:
    """Same two-stage scenario sweeping the attacker's infiltration ratio at
    fixed attacker size (heatmaps over attack intensity). Raises for the
    first cell whose powers ``check_powers`` refuses, then for the first
    attack ``check_actions`` refuses."""
    ratio, alpha_2 = _pairs(ratio_grid, alpha_2_grid)
    keep = ~(alpha_1 + alpha_2 > SWEEP_POWER_CAP)
    ratio, alpha_2 = ratio[keep], alpha_2[keep]
    alpha_1 = np.full_like(alpha_2, alpha_1)
    power = ratio * alpha_1
    check_powers(alpha_1, alpha_2)
    check_actions(alpha_1, *((power, 0.0) if attacker_kind is AttackKind.FAW else (0.0, power)))
    return _two_stage_cells(alpha_1, alpha_2, power, attacker_kind, k)


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
        """Refuse what ``check_powers`` refuses, then any entry ``check_actions``
        refuses, then a pool infiltrating itself or beyond its power in all."""
        check_powers(*alphas)
        n = len(alphas)
        if not (isinstance(self.faw, np.ndarray) and isinstance(self.bwh, np.ndarray)
                and self.faw.shape == self.bwh.shape == (n, n)):
            raise InvalidScenario(f"the FAW and BWH matrices must be ({n}, {n}) arrays "
                                  f"for {n} pools")
        power = np.asarray(alphas, float)
        check_actions(power[:, None], self.faw, self.bwh)
        x = self.faw + self.bwh
        if x.trace() > 0:  # a sum of non-negative numbers: positive iff one is
            raise InvalidScenario("a pool cannot infiltrate itself")
        out = x.sum(axis=1)
        # a margin of n machine epsilons of the power, above the rounding of
        # an n-term sum: 0.1 + 0.2 spends a pool of 0.3 one ulp over
        for i in np.flatnonzero(~(out <= power * (1.0 + n * np.finfo(float).eps)))[:1]:
            raise InvalidAction(f"pool {i}'s outgoing infiltration {out[i]} exceeds "
                                f"its power {power[i]}")
        return self

    def action(self, i: int, j: int) -> Action:
        return Action(float(self.faw[i, j]), float(self.bwh[i, j]))


FAW_FLAG_CAP = 16  # most simultaneous FAW infiltrations the exact payoffs price
TOO_MANY_FLAGS = ("too many simultaneous FAW infiltrations for the exact payoffs "
                  f"(at most {FAW_FLAG_CAP})")


@lru_cache(maxsize=8)
def _victim_sets(n_flags: int):
    """The 2^F sets T of F FAW flags as rows: ``inside[T, k]`` is 1.0 where
    flag k is in T, ``outside`` its complement, and ``weight[T, m]`` the
    weight of g(T) = 1/(theta + phi(T)) in flag m's share of the FAW revenue
    over ext, where phi(T) is the flags' power in T. Its two users are
    ``_npool_direct_revenue``, with a flag per FAW infiltration, and
    ``_attack_payoff``, with a flag per victim of the attacking row.

    The weight is the loop enumeration's inclusion-exclusion gathered by T:
    a released set R whose idle rest U = not R lies in T adds
    (-1)^(t-|U|) / |R| for each flag m in R, where t = |T|. Summed over
    those U (binomially many of each size), with 1/r as the integral of
    s^(r-1) over [0, 1], it is -1/(F C(F-1, t-1)) for m in T and
    1/(F C(F-1, t)) otherwise.
    """
    f = n_flags
    inside = (np.arange(1 << f)[:, None] >> np.arange(f)) & 1
    t = inside.sum(axis=1)[:, None]
    w_in = np.array([-1.0 / (f * math.comb(f - 1, s - 1)) if s else 0.0 for s in range(f + 1)])
    w_out = np.array([1.0 / (f * math.comb(f - 1, s)) if s < f else 0.0 for s in range(f + 1)])
    weight = np.where(inside == 1, w_in[t], w_out[t])
    return inside.astype(float), 1.0 - inside, weight


def _npool_direct_revenue(alphas, matrix: PairwiseActionMatrix) -> np.ndarray:
    """Exact expected per-round direct block revenue per pool.

    Home finds end rounds outright. FAW detachments withhold; when the first
    round-ending find is external, every withheld block is released and one of
    the released branches wins uniformly (the external block always loses).

    A sum over the 2^F sets T of the F FAW flags (row-major (i, j) order):
    flag m's host earns ext * sum_T weight[T, m] / (theta + phi(T)), with
    the weights and phi of ``_victim_sets``. Time and memory grow as 2^F.
    """
    alphas = np.asarray(alphas, float)
    out = (matrix.faw + matrix.bwh).sum(axis=1)
    home = alphas - out
    ext = 1.0 - alphas.sum()
    theta = ext + home.sum()
    revenue = home / theta
    i, j = np.nonzero(matrix.faw > 0.0)
    if j.size > FAW_FLAG_CAP:
        raise InvalidScenario(TOO_MANY_FLAGS)
    if not j.size:
        return revenue
    inside, _, weight = _victim_sets(j.size)
    g = 1.0 / (theta + inside @ matrix.faw[i, j])
    np.add.at(revenue, j, ext * (g @ weight))
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


def _attack_payoff(alpha, victims, ext, x, faw: bool):
    """The attacker's stage payoff when its row x is the only attack, with
    its gradient and Hessian in x.

    With one attacking row the pot system is triangular: each victim pays
    q_j = R_j / (v_j + x_j) and the attacker q = (R_a + sum_j x_j q_j) / alpha,
    so u = q - 1 needs no solve. theta = 1 - sum(x), R_a = (alpha - sum(x))
    / theta and R_j = v_j / theta, plus for FAW ext * sum_T weight[T, j] g(T)
    over the victim sets of ``_victim_sets``. As theta + x(T) = 1 - x(not T),
    dg(T)/dx_k = g(T)^2 and d2g(T)/dx_k dx_l = 2 g(T)^3 for k, l outside T,
    and both are 0 otherwise.
    """
    f = victims.size
    spent = x.sum()
    theta = 1.0 - spent
    hosted = victims + x
    cut = x / hosted  # the attacker's share of each victim's pot
    d_cut = victims / hosted**2
    revenue = victims / theta
    d_revenue = np.repeat((victims / theta**2)[:, None], f, axis=1)  # [j, k]: dR_j/dx_k
    common = 2.0 * (cut @ victims - (1.0 - alpha)) / theta**3  # in every Hessian entry
    if faw:
        inside, outside, weight = _victim_sets(f)
        g = 1.0 / (theta + inside @ x)
        revenue = revenue + ext * (g @ weight)
        d_revenue += ext * ((weight * (g * g)[:, None]).T @ outside)
    u = ((alpha - spent) / theta + cut @ revenue) / alpha - 1.0
    grad = d_cut * revenue + cut @ d_revenue - (1.0 - alpha) / theta**2
    cross = d_cut[:, None] * d_revenue
    hess = cross + cross.T + np.diag(-2.0 * d_cut * revenue / hosted) + common
    if faw:
        hess += outside.T @ ((2.0 * ext * (weight @ cut) * g**3)[:, None] * outside)
    return u, grad / alpha, hess / alpha


def _ascend(alpha, victims, ext, x, faw: bool) -> np.ndarray:
    """Newton's method on ``_attack_payoff`` from the feasible powers x.

    Each step is halved until it keeps every power non-negative and their
    sum within the budget alpha, and the payoff does not fall by more than
    its rounding (ATTACK_PAYOFF_SLACK, in revenue per round); the search
    ends after a step below ATTACK_STEP_TOL, or when halving reaches it.
    Newton steps ascend because the payoff is concave on the feasible set
    (its Hessian was negative definite at 20,000 random feasible points).
    """
    u, grad, hess = _attack_payoff(alpha, victims, ext, x, faw)
    for _ in range(ATTACK_MAX_STEPS):
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:  # seen at powers far below 1e-20
            raise NonConvergence("the attack search met a singular Hessian", x) from None
        while True:
            y = x + step
            if (y >= 0.0).all() and y.sum() <= alpha:
                trial = _attack_payoff(alpha, victims, ext, y, faw)
                if trial[0] >= u - ATTACK_PAYOFF_SLACK / alpha:
                    break
            step /= 2.0
            if not np.abs(step).max() >= ATTACK_STEP_TOL:
                return x
        x, (u, grad, hess) = y, trial
        if np.abs(step).max() < ATTACK_STEP_TOL:
            return x
    raise NonConvergence(f"the attack search took {ATTACK_MAX_STEPS} steps", x)


def optimal_simultaneous_attack(alphas, attacker: int, kind: AttackKind) -> np.ndarray:
    """The attacker's payoff-maximizing infiltration powers into every
    other pool at once, within its power budget (entry ``attacker`` is 0).

    Newton's method (``_ascend``) on the closed-form payoff, from the
    one-sided optima with their sum capped at half the budget. Refuses the
    powers ``check_powers`` refuses and an attacker that is not a pool.
    """
    check_powers(*alphas)
    alphas = np.asarray(alphas, float)
    n = alphas.size
    if n < 2:
        raise InvalidScenario("an attack needs at least two pools")
    if not 0 <= attacker < n:
        raise InvalidScenario(f"attacker {attacker} is not a pool index in [0, {n})")
    if not (alphas > ALGEBRAIC_TOL).all():  # as the stage payoffs would, before overflows
        raise DegenerateDenominator(NO_LIVE_POWER)
    alpha = alphas[attacker]
    victims = np.delete(alphas, attacker)
    faw = kind is AttackKind.FAW
    if faw and victims.size > FAW_FLAG_CAP:
        raise InvalidScenario(TOO_MANY_FLAGS)
    x = optimal_infiltration(kind, alpha, victims)
    # two pools an ulp short of the whole network round their optima to 0
    x = np.where(x > 0.0, x, 0.5 * alpha / victims.size)
    x *= min(1.0, 0.5 * alpha / x.sum())
    return np.insert(_ascend(alpha, victims, 1.0 - alphas.sum(), x, faw), attacker, 0.0)


def _followed(faw, bwh, prescribed: PairwiseActionMatrix) -> np.ndarray:
    """Where the actions (faw, bwh) matched ``prescribed``: ``Action.approx_eq``
    entry by entry."""
    return ((np.abs(faw - prescribed.faw) <= ACTION_TOL)
            & (np.abs(bwh - prescribed.bwh) <= ACTION_TOL))


def _ars_prescriptions(alphas, k, played, own, opp):
    """One ARS step of every ordered pair (i, j) of pools: this stage's
    prescriptions ``(own, opp)`` from the last stage's actions ``played``
    and prescriptions ``own`` and ``opp``.

    ``own[i, j]`` is pool i's prescription toward j, and ``opp[i, j]`` what
    pool i, by its own k, prescribes j toward i. Pool i is in good standing
    toward j where ``played[i, j]`` matched ``own[i, j]``, and j in i's eyes
    where ``played[j, i]`` matched ``opp[i, j]``. A pair in (good, bad)
    retaliates: ``own[i, j]`` becomes i's retaliation against j. A pair in
    (bad, good) judges the retaliation j owes i: ``opp[i, j]`` becomes it.
    The rows of both, in row-major pair order, are one ``retaliate_cells``
    batch with each pair's ``k[i]``; every other entry is no-attack.
    """
    n = len(alphas)
    new_own, new_opp = PairwiseActionMatrix.zeros(n), PairwiseActionMatrix.zeros(n)
    good = _followed(played.faw, played.bwh, own)
    opp_good = _followed(played.faw.T, played.bwh.T, opp)
    strike = good & ~opp_good
    i, j = np.nonzero(strike | (opp_good & ~good))
    if not i.size:
        return new_own, new_opp
    # each row's retaliator a against b, and the prescription b's last action
    # is judged by
    s = strike[i, j]
    a, b = np.where(s, i, j), np.where(s, j, i)
    judged = np.where(s, opp.faw[i, j], own.faw[i, j]), np.where(s, opp.bwh[i, j], own.bwh[i, j])
    power = np.asarray(alphas, float)
    last = played.faw[a, b], played.bwh[a, b]
    actual = payoff_pair_raw(power[a], power[b], *last, played.faw[b, a], played.bwh[b, a])
    prescribed = payoff_pair_raw(power[a], power[b], *last, *judged)
    faw, x, empty = retaliate_cells(power[a], power[b], np.array([*actual, *prescribed]), k[i])
    for r in np.flatnonzero(empty)[:1]:
        raise _empty_set_error(alphas[a[r]], alphas[b[r]], played.action(a[r], b[r]),
                               played.action(b[r], a[r]),
                               Action(float(judged[0][r]), float(judged[1][r])))
    for rows, m in ((s, new_own), (~s, new_opp)):
        m.faw[i[rows], j[rows]] = np.where(faw, x, 0.0)[rows]
        m.bwh[i[rows], j[rows]] = np.where(faw, 0.0, x)[rows]
    return new_own, new_opp


def run_npool(
    config: GameConfig,
    strategies: Sequence[Strategy],
    stages: int,
    payoff_rounds: int | None = None,
) -> History:
    """Play the repeated game of n >= 2 pools: every pool follows ARS toward
    every other (``_ars_prescriptions``, one retaliation batch per stage),
    then its strategy's overrides replace entries of its row.

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
    check_count(stages, "stages")
    k = check_weight(np.array([s.k for s in strategies], float))  # also if no one retaliates
    # at the start every standing is good: nothing played, nothing prescribed
    played = own = opp = PairwiseActionMatrix.zeros(n)
    records = []
    for t in range(stages):
        own, opp = _ars_prescriptions(alphas, k, played, own, opp)
        played = PairwiseActionMatrix(own.faw.copy(), own.bwh.copy())
        for i, strat in enumerate(strategies):
            for j, a in strat.pick(t, i, alphas).items():
                played.faw[i, j], played.bwh[i, j] = a.faw, a.bwh
        if payoff_rounds:
            u, _ = npool_stage_payoffs_mc(alphas, played, payoff_rounds, config.seed + t)
        elif n == 2:
            played.validate(alphas)  # the n-pool payoffs validate their stages themselves
            u = payoff_pair(*alphas, played.action(0, 1), played.action(1, 0))
        else:
            u = npool_stage_payoffs(alphas, played)
        records.append(StageRecord(t, played, tuple(float(v) for v in u)))
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
