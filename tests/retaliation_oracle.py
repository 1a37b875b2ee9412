"""The scalar grid retaliation and the per-cell two-stage sweeps, kept as the
oracle of the batched kernel (``ars.retaliate_cells``) and the batched sweeps.

``retaliate``, its helpers, ``_two_stage_cell``, ``deviation_outcome`` and
``_worst_ratio`` are the per-call code the package used before retaliation
became an array kernel, unchanged apart from their imports, the
``np.linspace`` that the removed ``model.power_grid`` wrapped, and
``retaliate``'s grid search, which is ``retaliation_on_stage`` so that it
can run on stage payoffs given directly;
``optimal_infiltration`` is the checked scalar dispatch they called then.
``SubgameCase`` and ``subgame_cases`` are the discount bound's classes of
one side and prior as the package built them before it priced their
stage-0 retaliations as one batch of the pool pair, each class entered
through one-row retaliations (this module's ``retaliate``).
``two_stage_sweep`` and ``two_stage_ratio_sweep`` are the cell loops around
``_two_stage_cell``. ``SweepCell`` is the per-cell record the package's
sweeps returned before they returned columns, and ``sweep_csv_rows`` its
per-cell CSV formatter. Every row of the batched path must equal the
oracle's bit for bit, and the CLI's rows must equal ``sweep_csv_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poolgame.model import (
    ALGEBRAIC_TOL,
    OPTIMIZER_TOL,
    Action,
    AttackKind,
    EmptySetUnexpected,
    PoolGameError,
    SWEEP_POWER_CAP,
    ZERO_ACTION,
)
from poolgame.payoff import (
    StagePayoffs,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair,
)

#: points of the coarse retaliation grid on [0, alpha_own], endpoints included
GRID_POINTS = 100


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


def sweep_csv_rows(cells):
    yield "alpha1,alpha2,attack_ratio,r2F,r2B,u1_avg,u2_avg,ip_faw_empty,error"
    for c in cells:
        yield (
            f"{c.alpha_1:.6f},{c.alpha_2:.6f},{c.attack_ratio:.6f},"
            f"{c.r2_faw:.6f},{c.r2_bwh:.6f},{c.u1_avg:.8f},{c.u2_avg:.8f},"
            f"{int(c.ip_faw_empty)},{c.error}"
        )


def optimal_infiltration(kind: AttackKind, alpha_i: float, alpha_j: float) -> float:
    if kind is AttackKind.FAW:
        return optimal_faw_infiltration(alpha_i, alpha_j)
    return optimal_bwh_infiltration(alpha_i, alpha_j)


def _refined_grid(center: float, step: float, hi: float) -> np.ndarray:
    """One local refinement pass: 10x denser grid within one coarse step."""
    a = max(0.0, center - step)
    b = min(hi, center + step)
    n = max(2, int(round((b - a) / step * 10)) + 1)
    return np.linspace(a, b, n)


def _candidate_set(
    kind: AttackKind,
    stage: tuple[StagePayoffs, StagePayoffs],
    alpha_own: float,
    alpha_opp: float,
    coef: float,
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid members x whose retaliation makes the opponent's deviation
    unprofitable, with U_opp(x, no-attack) at each member:

        U_opp(actual profile) + coef * U_opp(retaliation, no-attack)
            < U_opp(profile had the opponent followed its prescription)
    """
    actual, prescribed = stage
    u_under = one_sided_victim(kind, alpha_own, alpha_opp, grid)
    # strict inequality up to a margin, so boundary-equal candidates (e.g. 0
    # when the opponent's "deviation" changed nothing) stay in the set
    ok = actual.u_j + coef * u_under < prescribed.u_j + ALGEBRAIC_TOL
    return grid[ok], u_under[ok]


def _pick_from_set(
    stage: tuple[StagePayoffs, StagePayoffs],
    members: np.ndarray,
    u_under: np.ndarray,
    optimum: float,
) -> float:
    """min of equal retaliation and selfish retaliation over the candidates;
    ``optimum`` is the one-sided optimal infiltration of the retaliation."""
    actual, prescribed = stage
    # equal retaliation: damage to the opponent at least my loss from the deviation
    sat = (actual.u_i - prescribed.u_i) >= u_under - ALGEBRAIC_TOL
    equal = float(members[sat][0]) if sat.any() else None
    selfish = float(members[np.argmin(np.abs(members - optimum))])
    return selfish if equal is None else min(equal, selfish)


def retaliation_on_stage(alpha_own, alpha_opp, stage, k):
    """The grid search of ``retaliate`` on given stage payoffs (the stage as
    played and as prescribed): ``(kind, power)``, or None when the BWH
    candidate set is empty."""
    coarse = np.linspace(0.0, alpha_own, GRID_POINTS)
    step = coarse[1] - coarse[0]
    for kind, coef in ((AttackKind.FAW, k), (AttackKind.BWH, 1.0)):
        members, u_under = _candidate_set(kind, stage, alpha_own, alpha_opp, coef, coarse)
        if members.size:
            break
    else:
        return None
    optimum = optimal_infiltration(kind, alpha_own, alpha_opp)
    x = _pick_from_set(stage, members, u_under, optimum)
    members, u_under = _candidate_set(kind, stage, alpha_own, alpha_opp, coef,
                                      _refined_grid(x, step, alpha_own))
    if members.size:
        x = _pick_from_set(stage, members, u_under, optimum)
    return kind, x


def retaliate(
    alpha_own: float,
    own_prev: Action,
    alpha_opp: float,
    opp_prev: Action,
    opp_prescribed: Action,
    k: float,
) -> Action:
    """Choose the retaliation action against a deviating opponent.

    Tries FAW first; if no FAW infiltration power deters the deviation, falls
    back to BWH. Outputs no-attack when the "deviation" did not profit the
    opponent (e.g. it skipped a prescribed retaliation), since zero then
    enters both sets.
    """
    # the two profiles both tests compare: the last stage as played, and as it
    # would have been had the opponent followed its prescription
    stage = (
        payoff_pair(alpha_own, alpha_opp, own_prev, opp_prev),
        payoff_pair(alpha_own, alpha_opp, own_prev, opp_prescribed),
    )
    found = retaliation_on_stage(alpha_own, alpha_opp, stage, k)
    if found is None:
        raise EmptySetUnexpected(
            f"BWH candidate set empty for alpha_own={alpha_own}, "
            f"alpha_opp={alpha_opp}, own_prev={own_prev}, opp_prev={opp_prev}, "
            f"opp_prescribed={opp_prescribed}"
        )
    return Action.of(*found)


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


def two_stage_sweep(alpha_grid, attacker_kind: AttackKind, k: float) -> list[SweepCell]:
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


def two_stage_ratio_sweep(ratio_grid, alpha_2_grid, attacker_kind: AttackKind,
                          alpha_1: float, k: float) -> list[SweepCell]:
    cells = []
    for ratio in ratio_grid:
        for alpha_2 in alpha_2_grid:
            if alpha_1 + alpha_2 > SWEEP_POWER_CAP:
                continue
            attack = Action.of(attacker_kind, ratio * alpha_1)
            cells.append(_two_stage_cell(alpha_1, alpha_2, attack, k))
    return cells


@dataclass(frozen=True)
class SubgameCase:
    """One subgame class for the one-stage-deviation check, from the deviator's
    side: the profile if it complies, the punisher's stage-0 action, and the
    deviator's prescribed stage-0 action."""

    name: str
    punisher_stage0: Action  # action of the non-deviating pool at stage 0
    deviator_prescribed: Action  # what the deviator should play at stage 0


def subgame_cases(alpha_pun, alpha_dev, k, prior_kind: AttackKind):
    """The four standing classes, entered via the deviator's (or punisher's)
    optimal one-shot attack at the previous stage where a punishment context
    is needed."""
    d_prior = Action.of(prior_kind, optimal_infiltration(prior_kind, alpha_dev, alpha_pun))
    p_prior = Action.of(prior_kind, optimal_infiltration(prior_kind, alpha_pun, alpha_dev))
    # (good, bad): punisher retaliates at stage 0 against the deviator's prior attack
    pun0 = retaliate(alpha_pun, ZERO_ACTION, alpha_dev, d_prior, ZERO_ACTION, k)
    # (bad, good): deviator is prescribed to retaliate against the punisher's prior attack
    dev0 = retaliate(alpha_dev, ZERO_ACTION, alpha_pun, p_prior, ZERO_ACTION, k)
    return (
        SubgameCase("cooperating", ZERO_ACTION, ZERO_ACTION),
        SubgameCase("being-punished", pun0, ZERO_ACTION),
        SubgameCase("prescribed-retaliation", ZERO_ACTION, dev0),
        SubgameCase("mutual-bad", ZERO_ACTION, ZERO_ACTION),
    )


def deviation_outcome(
    case: SubgameCase,
    alpha_pun: float,
    alpha_dev: float,
    deviation: Action,
    k: float,
):
    """Stage payoffs of a one-stage deviation inside a subgame class.

    Returns (gain, punishment, compliance) for the deviator: its stage-0
    payoffs under deviation and compliance, and its stage-1 payoff under the
    punisher's retaliation. After stage 1 cooperation resumes and all later
    terms vanish, so the deviation is profitable at discount d iff
    gain + d * punishment > compliance.
    """
    u_dev0 = payoff_pair(alpha_pun, alpha_dev, case.punisher_stage0, deviation).u_j
    u_comp = payoff_pair(alpha_pun, alpha_dev, case.punisher_stage0,
                         case.deviator_prescribed).u_j
    r1 = retaliate(
        alpha_pun, case.punisher_stage0, alpha_dev, deviation,
        case.deviator_prescribed, k,
    )
    u_pun1 = payoff_pair(alpha_pun, alpha_dev, r1, ZERO_ACTION).u_j
    return u_dev0, u_pun1, u_comp


def _worst_ratio(case, alpha_pun, alpha_dev, deviations, k) -> float:
    """Largest (compliance - gain) / punishment over one class's deviations,
    skipping those whose punishment-stage payoff is (near) zero."""
    outcomes = (deviation_outcome(case, alpha_pun, alpha_dev, d, k) for d in deviations)
    return max(((comp - gain) / pun for gain, pun, comp in outcomes
                if abs(pun) >= OPTIMIZER_TOL), default=-np.inf)
