"""The per-pair ARS bookkeeping and the runner built on it, kept as the
oracle of the batched ``engine.run_npool``.

``Standing``, ``ArsState``, ``initial_state``, ``_standing`` and
``ars_step`` are the code the package used before its runner kept the
standings and prescriptions as matrices, unchanged apart from their
imports. ``run_npool`` is the runner that played them: one frozen
``ArsState`` per ordered pair of pools and one ``ars_step`` per pair and
stage, whose retaliations (the pool's own, and the mirrored one its
opponent's prescription is judged by) are one-row ``retaliate`` calls.
The package's runner must give the same ``History`` bit for bit, and
raise the same exception class with the same message.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, replace

from poolgame.ars import retaliate
from poolgame.engine import (
    History,
    PairwiseActionMatrix,
    StageRecord,
    Strategy,
    npool_stage_payoffs,
    npool_stage_payoffs_mc,
)
from poolgame.model import Action, GameConfig, InvalidScenario, ZERO_ACTION
from poolgame.payoff import payoff_pair


class Standing(enum.Enum):
    """Whether a pool followed its prescribed strategy at the last stage."""

    GOOD = "good"
    BAD = "bad"


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


def run_npool(
    config: GameConfig,
    strategies: Sequence[Strategy],
    stages: int,
    payoff_rounds: int | None = None,
) -> History:
    """Play the repeated game of n >= 2 pools with per-pair ARS bookkeeping."""
    alphas = config.powers
    n = len(alphas)
    if n < 2 or len(strategies) != n:
        raise InvalidScenario("at least two pools and one strategy per pool required")
    if stages < 1:
        raise InvalidScenario(f"the game needs at least 1 stage, got {stages}")
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
