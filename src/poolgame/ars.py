"""Adaptive retaliation strategy: cooperate, punish deviations, forgive.

An ARS agent starts every relationship with no-attack and keeps cooperating
as long as the opponent does. Standings record, per pool, whether the last
action matched what the strategy prescribed. Retaliation happens exactly in
the (GOOD, BAD) state: the agent in good standing strikes back once against
the opponent that deviated, then both return to cooperation.

The retaliation subroutine picks the attack vector in two steps. It first
builds the *infiltration candidate set* of powers that make the opponent's
deviation unprofitable (preferring FAW, falling back to BWH, whose candidate
set is provably non-empty). From the candidates it takes the cheaper of
"equal retaliation" (the smallest power inflicting at least the loss the
deviation caused) and "selfish retaliation" (the candidate closest to the
one-sided optimum), balancing punishment against its own payoff. The
preference weight ``k`` in [0, 1) scales how demanding the FAW candidate
test is: values near 1 make FAW retaliation available in more situations.

The candidate sets are taken on one fixed grid: ``GRID_POINTS`` uniform
powers on the owner's infiltration range, then one 10x local refinement pass
around the coarse choice. Both tests compare the same two stage profiles,
the last stage as played and as prescribed, so ``retaliate`` prices them
once (two ``payoff_pair`` calls), computes the one-sided optimum once, and
reuses them for the FAW try, the BWH fallback and the refinement pass.
``_candidate_set`` also returns the opponent's payoffs at its members, so
each grid pass is priced once (one ``one_sided_victim`` call).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    EmptySetUnexpected,
    InvalidScenario,
    Standing,
    ZERO_ACTION,
    power_grid,
)
from .payoff import (
    StagePayoffs,
    one_sided_victim,
    optimal_infiltration,
    payoff_pair,
)

#: points of the coarse retaliation grid on [0, alpha_own], endpoints included
GRID_POINTS = 100


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
    coarse = power_grid(alpha_own, GRID_POINTS)
    step = coarse[1] - coarse[0]
    # the two profiles both tests compare: the last stage as played, and as it
    # would have been had the opponent followed its prescription
    stage = (
        payoff_pair(alpha_own, alpha_opp, own_prev, opp_prev),
        payoff_pair(alpha_own, alpha_opp, own_prev, opp_prescribed),
    )
    for kind, coef in ((AttackKind.FAW, k), (AttackKind.BWH, 1.0)):
        members, u_under = _candidate_set(kind, stage, alpha_own, alpha_opp, coef, coarse)
        if members.size:
            break
    else:
        raise EmptySetUnexpected(
            f"BWH candidate set empty for alpha_own={alpha_own}, "
            f"alpha_opp={alpha_opp}, own_prev={own_prev}, opp_prev={opp_prev}, "
            f"opp_prescribed={opp_prescribed}"
        )
    optimum = optimal_infiltration(kind, alpha_own, alpha_opp)
    x = _pick_from_set(stage, members, u_under, optimum)
    members, u_under = _candidate_set(kind, stage, alpha_own, alpha_opp, coef,
                                      _refined_grid(x, step, alpha_own))
    if members.size:
        x = _pick_from_set(stage, members, u_under, optimum)
    return Action.of(kind, x)


@dataclass(frozen=True)
class ArsState:
    """Per-agent bookkeeping between stages.

    Tracks the last stage's actions and prescriptions for both sides; the
    opponent's prescription is reconstructed from public history, so a pool
    can judge the opponent's standing without trusting it.
    """

    k: float
    own_standing: Standing = Standing.GOOD
    opp_standing: Standing = Standing.GOOD
    last_own_action: Action | None = None
    last_own_prescribed: Action | None = None
    last_opp_action: Action | None = None
    last_opp_prescribed: Action | None = None

    def with_observed(self, own_action: Action, opp_action: Action) -> "ArsState":
        """Replace the provisional last actions with what was actually played."""
        return replace(self, last_own_action=own_action, last_opp_action=opp_action)


def initial_state(k: float) -> ArsState:
    if not (0.0 <= k < 1.0):
        raise InvalidScenario(f"k must be in [0, 1), got {k}")
    return ArsState(k=k)


def _standing(action: Action | None, prescribed: Action | None) -> Standing:
    if action is None or prescribed is None:
        return Standing.GOOD
    return Standing.GOOD if action.approx_eq(prescribed) else Standing.BAD


def ars_step(
    state: ArsState,
    alpha_own: float,
    alpha_opp: float,
) -> tuple[Action, ArsState]:
    """One strategy step: update standings, prescribe this stage's action.

    Returns the prescribed action and the advanced state. The new state
    assumes both sides play their prescriptions; when the engine injects a
    deviation it patches the state with :meth:`ArsState.with_observed`.
    """
    own_standing = _standing(state.last_own_action, state.last_own_prescribed)
    opp_standing = _standing(state.last_opp_action, state.last_opp_prescribed)

    if own_standing is Standing.GOOD and opp_standing is Standing.BAD:
        action = retaliate(
            alpha_own,
            state.last_own_action or ZERO_ACTION,
            alpha_opp,
            state.last_opp_action or ZERO_ACTION,
            state.last_opp_prescribed or ZERO_ACTION,
            state.k,
        )
    else:
        action = ZERO_ACTION

    # what this strategy would prescribe to the opponent, from public history
    # and judged by this pool's own k (the opponent's k may differ)
    if opp_standing is Standing.GOOD and own_standing is Standing.BAD:
        opp_prescribed = retaliate(
            alpha_opp,
            state.last_opp_action or ZERO_ACTION,
            alpha_own,
            state.last_own_action or ZERO_ACTION,
            state.last_own_prescribed or ZERO_ACTION,
            state.k,
        )
    else:
        opp_prescribed = ZERO_ACTION

    new_state = ArsState(
        k=state.k,
        own_standing=own_standing,
        opp_standing=opp_standing,
        last_own_action=action,
        last_own_prescribed=action,
        last_opp_action=opp_prescribed,
        last_opp_prescribed=opp_prescribed,
    )
    return action, new_state
