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

All set constructions are discretized on a uniform grid of the owner's
infiltration range with one 10x local refinement pass around the coarse
choice. Both tests compare the same two stage profiles, the last stage as
played and as prescribed, so ``retaliate`` prices them once (two
``payoff_pair`` calls) and reuses them for the FAW try, the BWH fallback and
the refinement pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ALGEBRAIC_TOL,
    DEFAULT_GRID_RESOLUTION,
    Action,
    AttackKind,
    EmptySetUnexpected,
    InvalidScenario,
    Standing,
    ZERO_ACTION,
    power_grid,
    refined_grid,
)
from .payoff import (
    StagePayoffs,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair,
)


@dataclass(frozen=True)
class RetaliationContext:
    """Last stage as seen by the retaliator: own action, opponent action,
    and what the opponent was prescribed to play."""

    own_prev: Action = ZERO_ACTION
    opp_prev: Action = ZERO_ACTION
    opp_prescribed: Action = ZERO_ACTION


@dataclass(frozen=True)
class InfiltrationSet:
    kind: AttackKind
    members: np.ndarray  # sorted grid fractions

    @property
    def empty(self) -> bool:
        return self.members.size == 0

    def closest_to(self, target: float) -> float:
        return float(self.members[np.argmin(np.abs(self.members - target))])


def _stage_payoffs(
    ctx: RetaliationContext, alpha_own: float, alpha_opp: float
) -> tuple[StagePayoffs, StagePayoffs]:
    """The two profiles a retaliation compares: the last stage as played, and
    as it would have been had the opponent followed its prescription."""
    return (
        payoff_pair(alpha_own, alpha_opp, ctx.own_prev, ctx.opp_prev),
        payoff_pair(alpha_own, alpha_opp, ctx.own_prev, ctx.opp_prescribed),
    )


def _candidate_set(
    kind: AttackKind,
    stage: tuple[StagePayoffs, StagePayoffs],
    alpha_own: float,
    alpha_opp: float,
    coef: float,
    grid: np.ndarray,
    tolerance: float,
) -> InfiltrationSet:
    """Grid members x whose retaliation makes the opponent's deviation unprofitable:

        U_opp(actual profile) + coef * U_opp(retaliation, no-attack)
            < U_opp(profile had the opponent followed its prescription)
    """
    actual, prescribed = stage
    u_under = one_sided_victim(kind, alpha_own, alpha_opp, grid)
    # strict inequality up to a margin, so boundary-equal candidates (e.g. 0
    # when the opponent's "deviation" changed nothing) stay in the set
    ok = actual.u_j + coef * u_under < prescribed.u_j + tolerance
    return InfiltrationSet(kind, grid[ok])


def infiltration_set_faw(
    ctx: RetaliationContext,
    alpha_own: float,
    alpha_opp: float,
    k: float,
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
    tolerance: float = ALGEBRAIC_TOL,
    grid: np.ndarray | None = None,
) -> InfiltrationSet:
    """FAW retaliation candidates; may legitimately be empty."""
    g = power_grid(alpha_own, grid_resolution) if grid is None else grid
    stage = _stage_payoffs(ctx, alpha_own, alpha_opp)
    return _candidate_set(AttackKind.FAW, stage, alpha_own, alpha_opp, k, g, tolerance)


def infiltration_set_bwh(
    ctx: RetaliationContext,
    alpha_own: float,
    alpha_opp: float,
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
    tolerance: float = ALGEBRAIC_TOL,
    grid: np.ndarray | None = None,
) -> InfiltrationSet:
    """BWH retaliation candidates. Emptiness violates the strategy's guarantee
    and raises ``EmptySetUnexpected``."""
    g = power_grid(alpha_own, grid_resolution) if grid is None else grid
    stage = _stage_payoffs(ctx, alpha_own, alpha_opp)
    s = _candidate_set(AttackKind.BWH, stage, alpha_own, alpha_opp, 1.0, g, tolerance)
    if s.empty:
        raise EmptySetUnexpected(
            f"BWH candidate set empty for alpha_own={alpha_own}, alpha_opp={alpha_opp}, ctx={ctx}"
        )
    return s


def _pick_from_set(
    kind: AttackKind,
    stage: tuple[StagePayoffs, StagePayoffs],
    alpha_own: float,
    alpha_opp: float,
    candidates: InfiltrationSet,
    tolerance: float,
) -> float:
    """min of equal retaliation and selfish retaliation over the candidate set."""
    actual, prescribed = stage
    u_under = one_sided_victim(kind, alpha_own, alpha_opp, candidates.members)
    # equal retaliation: damage to the opponent at least my loss from the deviation
    sat = (actual.u_i - prescribed.u_i) >= u_under - tolerance
    equal = float(candidates.members[sat][0]) if sat.any() else None
    if kind is AttackKind.FAW:
        m = optimal_faw_infiltration(alpha_own, alpha_opp)
    else:
        m = optimal_bwh_infiltration(alpha_own, alpha_opp)
    selfish = candidates.closest_to(m)
    return selfish if equal is None else min(equal, selfish)


def retaliate(
    alpha_own: float,
    own_prev: Action,
    alpha_opp: float,
    opp_prev: Action,
    opp_prescribed: Action,
    k: float,
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
    tolerance: float = ALGEBRAIC_TOL,
) -> Action:
    """Choose the retaliation action against a deviating opponent.

    Tries FAW first; if no FAW infiltration power deters the deviation, falls
    back to BWH. Outputs no-attack when the "deviation" did not profit the
    opponent (e.g. it skipped a prescribed retaliation), since zero then
    enters both sets.
    """
    if grid_resolution < 2:
        raise InvalidScenario(
            f"the retaliation grid needs at least 2 points, got {grid_resolution}"
        )
    ctx = RetaliationContext(own_prev, opp_prev, opp_prescribed)
    coarse = power_grid(alpha_own, grid_resolution)
    step = coarse[1] - coarse[0]
    stage = _stage_payoffs(ctx, alpha_own, alpha_opp)

    def solve(kind: AttackKind, grid: np.ndarray) -> float | None:
        coef = k if kind is AttackKind.FAW else 1.0
        s = _candidate_set(kind, stage, alpha_own, alpha_opp, coef, grid, tolerance)
        if s.empty:
            return None
        return _pick_from_set(kind, stage, alpha_own, alpha_opp, s, tolerance)

    x = solve(AttackKind.FAW, coarse)
    kind = AttackKind.FAW
    if x is None:
        kind = AttackKind.BWH
        x = solve(kind, coarse)
        if x is None:
            raise EmptySetUnexpected(
                f"BWH candidate set empty for alpha_own={alpha_own}, "
                f"alpha_opp={alpha_opp}, ctx={ctx}"
            )
    fine = solve(kind, refined_grid(x, step, 0.0, alpha_own))
    return Action.of(kind, x if fine is None else fine)


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
        raise ValueError(f"k must be in [0, 1), got {k}")
    return ArsState(k=k)


def _standing(action: Action | None, prescribed: Action | None) -> Standing:
    if action is None or prescribed is None:
        return Standing.GOOD
    return Standing.GOOD if action.approx_eq(prescribed) else Standing.BAD


def ars_step(
    state: ArsState,
    alpha_own: float,
    alpha_opp: float,
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
    tolerance: float = ALGEBRAIC_TOL,
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
            grid_resolution,
            tolerance,
        )
    else:
        action = ZERO_ACTION

    # what this strategy would prescribe to the opponent, from public history
    if opp_standing is Standing.GOOD and own_standing is Standing.BAD:
        opp_prescribed = retaliate(
            alpha_opp,
            state.last_opp_action or ZERO_ACTION,
            alpha_own,
            state.last_own_action or ZERO_ACTION,
            state.last_own_prescribed or ZERO_ACTION,
            state.k,
            grid_resolution,
            tolerance,
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
