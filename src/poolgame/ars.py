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
the last stage as played and as prescribed.

``retaliate_cells`` is the one implementation, an array kernel over N
retaliations (rows) given their powers and both profiles' stage payoffs;
each grid is an (N, points) array. A row evaluates the same IEEE operations
in the same order whatever its batch, so its result is bit-identical to a
one-row call. ``retaliate`` is the one-row case; the two-stage sweeps and
``equilibrium.delta_bound`` pass whole batches.
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
)
from .payoff import (
    one_sided_victim,
    optimal_infiltration,
    payoff_pair,
)

#: points of the coarse retaliation grid on [0, alpha_own], endpoints included
GRID_POINTS = 100
#: rows per pass of ``retaliate_cells``; bounds its (rows, points) arrays
BATCH_ROWS = 512


def _by_kind(fn, faw, *rows):
    """``fn(kind, *rows)`` with FAW on the rows where ``faw`` holds and BWH
    on the others; a batch of one kind makes one call."""
    n_faw = np.count_nonzero(faw)
    if n_faw in (0, faw.size):
        return fn(AttackKind.FAW if n_faw else AttackKind.BWH, *rows)
    on_faw, on_bwh = fn(AttackKind.FAW, *rows), fn(AttackKind.BWH, *rows)
    return np.where(faw.reshape((-1,) + (1,) * (on_faw.ndim - 1)), on_faw, on_bwh)


def _grids(lo, hi, last, width):
    """Row i is ``np.linspace(lo[i], hi[i], last[i] + 1)``, padded to ``width``
    columns with copies of its last point (which change no pick). Computed
    as numpy does, ``j * ((hi - lo) / last) + lo`` then ``hi`` last, so the
    bits match; every row has hi > lo, so no special case applies.
    """
    cols = np.arange(width)
    return np.where(cols >= last, hi, cols * ((hi - lo) / last) + lo)


def _candidate_set(faw, coef, actual_uj, bound_uj, alpha_own, alpha_opp, grid):
    """Per row, which grid powers x make the opponent's deviation
    unprofitable, with U_opp(x, no-attack) at every grid point:

        U_opp(actual profile) + coef * U_opp(retaliation, no-attack)
            < U_opp(profile had the opponent followed its prescription)

    ``coef`` is ``k`` on FAW rows and 1 on BWH rows (``1.0 * u`` is exact).
    ``actual_uj``, ``bound_uj`` (the prescribed U_opp plus ALGEBRAIC_TOL)
    and the powers are (N, 1) columns.
    """
    u_under = _by_kind(one_sided_victim, faw, alpha_own, alpha_opp, grid)
    # strict inequality up to a margin, so boundary-equal candidates (e.g. 0
    # when the opponent's "deviation" changed nothing) stay in the set
    return actual_uj + coef * u_under < bound_uj, u_under


def _pick_from_set(loss_i, grid, ok, u_under, optimum):
    """Per row, min of equal retaliation and selfish retaliation over the
    candidates ``grid[ok]``; ``loss_i`` (N, 1) is my loss from the
    deviation and ``optimum`` (N, 1) the one-sided optimal infiltration of
    the retaliation. A row without candidates picks the grid's first point."""
    # equal retaliation: the first (on an ascending grid, the smallest)
    # candidate whose damage to the opponent is at least my loss from the
    # deviation; inf where there is none
    sat = ok & (loss_i >= u_under - ALGEBRAIC_TOL)
    equal = np.where(sat, grid, np.inf).min(axis=1)
    # selfish retaliation: the first candidate nearest the optimum
    nearest = np.where(ok, np.abs(grid - optimum), np.inf).argmin(axis=1)
    selfish = grid[np.arange(grid.shape[0]), nearest]
    # Python's min(equal, selfish); equal values are the same grid point
    return np.minimum(equal, selfish)


def retaliate_cells(alpha_own, alpha_opp, stage, k):
    """Retaliation of N rows at once.

    ``alpha_own`` and ``alpha_opp`` are (N,) float arrays of valid powers;
    ``stage`` is a (4, N) array of (actual u_i, actual u_j, prescribed u_i,
    prescribed u_j): the stage payoffs of the last stage as played and as
    the opponent's prescription would have had it. Returns ``(faw, power,
    empty)``: whether each row retaliates with FAW (else BWH), its power,
    and the rows whose BWH candidate set came out empty (their power means
    nothing), which the callers report. Works in passes of BATCH_ROWS rows.
    """
    if alpha_own.size > BATCH_ROWS:
        parts = [retaliate_cells(alpha_own[i:i + BATCH_ROWS], alpha_opp[i:i + BATCH_ROWS],
                                 stage[:, i:i + BATCH_ROWS], k)
                 for i in range(0, alpha_own.size, BATCH_ROWS)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    act_ui, act_uj, pre_ui, pre_uj = stage[:, :, None]
    # the right side of the candidate test and my loss from the deviation
    bound_uj, loss_i = pre_uj + ALGEBRAIC_TOL, act_ui - pre_ui
    own, opp = alpha_own[:, None], alpha_opp[:, None]
    # np.linspace(0, alpha_own, GRID_POINTS, axis=1) as numpy computes it
    # (adding the start 0.0 changes no bit, so it is left out)
    coarse = np.arange(GRID_POINTS) * (own / (GRID_POINTS - 1))
    coarse[:, -1] = alpha_own
    step = coarse[:, 1:2]  # coarse[1] - coarse[0], as coarse[0] is 0.0
    ok, u_under = _candidate_set(np.ones_like(alpha_own, bool), k, act_uj, bound_uj,
                                 own, opp, coarse)
    faw = np.logical_or.reduce(ok, axis=1)
    coef = np.where(faw, k, 1.0)[:, None]
    empty = ~faw
    if np.count_nonzero(faw) < faw.size:  # BWH fallback for the rows without FAW
        ok, u_under = _candidate_set(faw, coef, act_uj, bound_uj, own, opp, coarse)
        empty = ~np.logical_or.reduce(ok, axis=1)
    optimum = _by_kind(optimal_infiltration, faw, alpha_own, alpha_opp)[:, None]
    x = _pick_from_set(loss_i, coarse, ok, u_under, optimum)[:, None]
    # one refinement pass: a 10x denser grid within one coarse step of x.
    # Python's max(0.0, .), min(alpha, .) and round: no operand is -0.0 or
    # NaN, so np.maximum and np.minimum agree with them, and np.rint rounds
    # half to even like round
    lo = np.maximum(x - step, 0.0)
    hi = np.minimum(x + step, own)
    last = np.maximum(np.rint((hi - lo) / step * 10), 1.0)  # points - 1, whole
    # hi - lo <= 2 * step, so a refined grid has at most 21 points
    fine = _grids(lo, hi, last, 21)
    ok, u_under = _candidate_set(faw, coef, act_uj, bound_uj, own, opp, fine)
    found = np.logical_or.reduce(ok, axis=1)
    x = np.where(found, _pick_from_set(loss_i, fine, ok, u_under, optimum), x[:, 0])
    return faw, x, empty


def _empty_set_error(alpha_own, alpha_opp, own_prev, opp_prev, opp_prescribed):
    """The error of a retaliation whose BWH candidate set came out empty."""
    return EmptySetUnexpected(
        f"BWH candidate set empty for alpha_own={alpha_own}, "
        f"alpha_opp={alpha_opp}, own_prev={own_prev}, opp_prev={opp_prev}, "
        f"opp_prescribed={opp_prescribed}"
    )


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
    enters both sets. The one-row case of ``retaliate_cells``.
    """
    # the two profiles both tests compare: the last stage as played, and as it
    # would have been had the opponent followed its prescription
    actual = payoff_pair(alpha_own, alpha_opp, own_prev, opp_prev)
    prescribed = payoff_pair(alpha_own, alpha_opp, own_prev, opp_prescribed)
    faw, x, empty = retaliate_cells(
        np.array([alpha_own], float), np.array([alpha_opp], float),
        np.array([[actual.u_i], [actual.u_j], [prescribed.u_i], [prescribed.u_j]]), k,
    )
    if empty[0]:
        raise _empty_set_error(alpha_own, alpha_opp, own_prev, opp_prev, opp_prescribed)
    return Action.of(AttackKind.FAW if faw[0] else AttackKind.BWH, x[0])


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
