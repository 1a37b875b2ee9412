"""Equilibrium analysis: stage-game Nash solving, the discount-factor bound
for mutual-retaliation stability, and the BWH candidate-set audit.

The stage game restricted to FAW-only actions carries all equilibria (either
pool would swap a BWH component for the same-size FAW component and gain), so
the Nash solver runs best-response dynamics on the one-dimensional FAW slice,
with each best response bracketed on a fixed grid (``NASH_GRID_POINTS``)
and polished by golden-section search.

The discount bound answers: how patient must both pools be for one-stage
deviations from mutual adaptive retaliation to never pay? Each subgame class
contributes a family of payoff ratios (deviation gain over punishment size);
the bound is the maximum over the class families and a deviation grid, and by
construction of the candidate sets it stays below 1. Classes sharing a
stage-0 profile share their outcomes, so each profile is evaluated once,
as one batch over the deviation grid (``ars.retaliate_cells`` for the
punisher's retaliations, batched ``payoff_pair_raw`` for the payoffs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Action,
    AttackKind,
    NonConvergence,
    OPTIMIZER_TOL,
    ZERO_ACTION,
    power_grid,
)
from .payoff import (
    StagePayoffs,
    one_sided_attacker,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair,
    payoff_pair_raw,
)
from .ars import _empty_set_error, retaliate, retaliate_cells

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# best-response dynamics of stage_nash: bracketing grid, stopping step, cap
NASH_GRID_POINTS = 100
NASH_TOL = 1e-7
NASH_MAX_ITERATIONS = 10_000


def golden_max(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximizer for a scalar unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class StageEquilibrium:
    actions: tuple[Action, Action]
    payoffs: StagePayoffs
    iterations: int
    converged: bool


def _best_response(alpha_own, alpha_opp, f_opp) -> float:
    """argmax over own FAW power of the coupled stage payoff."""

    def u(f):
        return float(payoff_pair_raw(alpha_own, alpha_opp, f, 0.0, f_opp, 0.0)[0])

    grid = power_grid(alpha_own, NASH_GRID_POINTS)
    vals = payoff_pair_raw(alpha_own, alpha_opp, grid, 0.0, f_opp, 0.0)[0]
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    return golden_max(u, lo, hi)


def stage_nash(
    alpha_1: float,
    alpha_2: float,
    initial: tuple[float, float] = (0.0, 0.0),
) -> StageEquilibrium:
    """Unique pure-FAW stage-game Nash equilibrium by best-response iteration."""
    f1, f2 = initial
    for iterations in range(1, NASH_MAX_ITERATIONS + 1):
        n1 = _best_response(alpha_1, alpha_2, f2)
        n2 = _best_response(alpha_2, alpha_1, n1)
        converged = abs(n1 - f1) < NASH_TOL and abs(n2 - f2) < NASH_TOL
        f1, f2 = n1, n2
        if converged:
            break
    actions = (Action(f1, 0.0), Action(f2, 0.0))
    payoffs = payoff_pair(alpha_1, alpha_2, *actions)
    eq = StageEquilibrium(actions, payoffs, iterations, converged)
    if not converged:
        raise NonConvergence(
            f"best-response dynamics did not settle after {NASH_MAX_ITERATIONS} iterations",
            last_iterate=eq,
        )
    return eq


# ---------------------------------------------------------------------------
# Discount-factor bound for (ARS_K, ARS_K) stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaBound:
    alpha_1: float
    alpha_2: float
    k: float
    bound: float
    case_maxima: dict = field(default_factory=dict, compare=False)
    duplicate_cases: tuple = ()


@dataclass(frozen=True)
class SubgameCase:
    """One subgame class for the one-stage-deviation check, from the deviator's
    side: the profile if it complies, the punisher's stage-0 action, and the
    deviator's prescribed stage-0 action."""

    name: str
    punisher_stage0: Action  # action of the non-deviating pool at stage 0
    deviator_prescribed: Action  # what the deviator should play at stage 0


def _subgame_cases(alpha_pun, alpha_dev, k, prior_kind: AttackKind):
    """The four standing classes, entered via the deviator's (or punisher's)
    optimal one-shot attack at the previous stage where a punishment context
    is needed."""
    if prior_kind is AttackKind.FAW:
        d_prior = Action(optimal_faw_infiltration(alpha_dev, alpha_pun), 0.0)
        p_prior = Action(optimal_faw_infiltration(alpha_pun, alpha_dev), 0.0)
    else:
        d_prior = Action(0.0, optimal_bwh_infiltration(alpha_dev, alpha_pun))
        p_prior = Action(0.0, optimal_bwh_infiltration(alpha_pun, alpha_dev))
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


def _deviation_outcomes(case, alpha_pun, alpha_dev, deviations, k):
    """``deviation_outcome`` for a list of deviations at once: (gain,
    punishment) arrays in their order and the scalar compliance payoff.
    The punisher's retaliations are one ``retaliate_cells`` batch."""
    pun0, prescribed = case.punisher_stage0, case.deviator_prescribed
    comp = payoff_pair(alpha_pun, alpha_dev, pun0, prescribed)
    dev_f = np.array([d.faw for d in deviations], float)
    dev_b = np.array([d.bwh for d in deviations], float)
    zero = np.zeros_like(dev_f)
    # the stage as played: the deviator's payoff is its gain
    u_pun0, gain = payoff_pair_raw(alpha_pun, alpha_dev, np.full_like(dev_f, pun0.faw),
                                   np.full_like(dev_f, pun0.bwh), dev_f, dev_b)
    faw, x, empty = retaliate_cells(
        np.full_like(dev_f, alpha_pun), np.full_like(dev_f, alpha_dev),
        np.array([u_pun0, gain, np.full_like(dev_f, comp.u_i), np.full_like(dev_f, comp.u_j)]),
        k,
    )
    for i in np.flatnonzero(empty)[:1]:
        raise _empty_set_error(alpha_pun, alpha_dev, pun0, deviations[i], prescribed)
    punishment = payoff_pair_raw(alpha_pun, alpha_dev, np.where(faw, x, 0.0),
                                 np.where(faw, 0.0, x), zero, zero)[1]
    return gain, punishment, comp.u_j


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
    # refuses invalid powers and actions with the errors a per-deviation call raised
    payoff_pair(alpha_pun, alpha_dev, case.punisher_stage0, deviation)
    gain, punishment, comp = _deviation_outcomes(case, alpha_pun, alpha_dev, [deviation], k)
    return float(gain[0]), float(punishment[0]), comp


def _deviation_grid(alpha_dev, n):
    g = power_grid(alpha_dev, n)[1:]  # exclude 0 (compliance, not a deviation)
    return [Action(f, 0.0) for f in g] + [Action(0.0, b) for b in g]


def _worst_ratio(case, alpha_pun, alpha_dev, deviations, k) -> float:
    """Largest (compliance - gain) / punishment over one class's deviations,
    skipping those whose punishment-stage payoff is (near) zero."""
    gain, punishment, comp = _deviation_outcomes(case, alpha_pun, alpha_dev, deviations, k)
    counted = np.abs(punishment) >= OPTIMIZER_TOL
    ratios = (comp - gain[counted]) / punishment[counted]
    # the first largest, as Python's max over the deviations in order
    return float(ratios[ratios.argmax()]) if ratios.size else -np.inf


def delta_bound(
    alpha_1: float,
    alpha_2: float,
    k: float,
    deviation_resolution: int = 40,
) -> DeltaBound:
    """Smallest discount factor above which no sampled one-stage deviation
    from mutual adaptive retaliation pays, in any subgame class.

    Maximizes the ratio (deviation gain) / (punishment size) over a grid of
    deviation actions for both pools as deviator; ratios whose punishment-stage
    payoff is (near) zero are skipped. A class's outcomes depend only on its
    stage-0 profile (punisher's action, deviator's prescription), so each side
    evaluates the deviation grid once per distinct profile: cooperating under
    either prior and mutual-bad all share the no-attack profile.
    """
    case_maxima: dict[str, float] = {}
    for alpha_pun, alpha_dev, side in ((alpha_1, alpha_2, 2), (alpha_2, alpha_1, 1)):
        deviations = _deviation_grid(alpha_dev, deviation_resolution)
        worst: dict[tuple[Action, Action], float] = {}  # by stage-0 profile
        for prior in (AttackKind.FAW, AttackKind.BWH):
            for case in _subgame_cases(alpha_pun, alpha_dev, k, prior):
                profile = (case.punisher_stage0, case.deviator_prescribed)
                if profile not in worst:
                    worst[profile] = _worst_ratio(case, alpha_pun, alpha_dev, deviations, k)
                key = f"pool{side}:{case.name}"
                case_maxima[key] = max(case_maxima.get(key, -np.inf), worst[profile])
    return DeltaBound(alpha_1=alpha_1, alpha_2=alpha_2, k=k,
                      bound=float(max(case_maxima.values())), case_maxima=case_maxima,
                      duplicate_cases=(("cooperating", "mutual-bad"),))


# ---------------------------------------------------------------------------
# Non-emptiness audit of the BWH candidate set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCell:
    alpha_1: float
    alpha_2: float
    f_value: float  # margin under the baseline assumption (may be negative)
    k_chosen: float  # BWH power whose damage covers the worst-case gap
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    cells: tuple[AuditCell, ...]

    @property
    def failures(self) -> tuple[AuditCell, ...]:
        return tuple(c for c in self.cells if not c.passed)

    def to_csv_rows(self):
        yield "alpha1,alpha2,f_value,k_chosen,passed"
        for c in self.cells:
            yield f"{c.alpha_1:.6f},{c.alpha_2:.6f},{c.f_value:.8f},{c.k_chosen:.8f},{int(c.passed)}"


def _audit_cell(a1: float, a2: float, n: int) -> AuditCell:
    """Check one power cell: some BWH power of pool 1 must out-damage every
    single-stage gain pool 2 can grab by deviating, in both context families."""
    m1b = optimal_bwh_infiltration(a1, a2)
    m2b = optimal_bwh_infiltration(a2, a1)
    f_dmg = optimal_faw_infiltration(a1, a2)
    f_cap = max(m1b, f_dmg)

    dev2 = power_grid(a2, n)  # pool 2's deviation (FAW dominates for the gain)

    # family 1: pool 1 has attacked with (f1, 0); gap between pool 2 staying
    # honest and deviating with (f2, 0)
    def family1_min(f1_cap):
        f1 = np.linspace(0.0, f1_cap, n)[:, None]
        f2 = dev2[None, :]
        u_honest = payoff_pair_raw(a1, a2, f1, 0.0, 0.0, 0.0)[1]
        u_dev = payoff_pair_raw(a1, a2, f1, 0.0, f2, 0.0)[1]
        return float(np.min(u_honest - u_dev))

    # family 2: pool 1 honest; gap between pool 2 playing its prescribed BWH
    # retaliation (0, b2) and deviating with (f2, 0)
    b2 = np.linspace(0.0, m2b, n)[:, None]
    u_presc = one_sided_attacker(AttackKind.BWH, a2, a1, b2)
    u_dev = one_sided_attacker(AttackKind.FAW, a2, a1, dev2[None, :])
    t2 = float(np.min(u_presc - u_dev))

    def damage_at(b):
        return -float(one_sided_victim(AttackKind.BWH, a1, a2, b))

    t1_cap = family1_min(f_cap)
    gap = -min(t1_cap, t2)  # worst-case gain pool 2 can secure
    f_value = damage_at(m1b) - gap
    if f_value > 0.0:
        return AuditCell(a1, a2, f_value, m1b, True)
    for kk in np.linspace(m1b, a1, n):
        # max(kk, f_cap) is exactly f_cap for kk <= f_cap, so the minimum
        # computed above is the same float family1_min would return again
        t1 = t1_cap if kk <= f_cap else family1_min(kk)
        fk = damage_at(kk) + min(t1, t2)
        if fk > 0.0:
            return AuditCell(a1, a2, f_value, float(kk), True)
    return AuditCell(a1, a2, f_value, float("nan"), False)


def audit_ipbwh_nonempty(
    power_grid_resolution: int = 30,
    infiltration_resolution: int = 120,
    power_lo: float = 0.01,
    power_hi: float = 0.45,
    power_cap: float = 0.9,
) -> AuditReport:
    """Sweep power cells and verify a deterring BWH power always exists.

    For each (alpha_1, alpha_2) the audit first assumes the one-sided BWH
    optimum of pool 1 is available; where its damage fails to cover the
    worst-case deviation gap, it searches larger powers up to pool 1's full
    size. Cells where no power works are reported as failures (expected: none
    on the default grid; pushing the opponent to exactly half the network,
    power_hi=0.5, produces a sliver of genuine failures where no deterring
    power exists).
    """
    powers = np.linspace(power_lo, power_hi, power_grid_resolution)
    cells = []
    for a1 in powers:
        for a2 in powers:
            if a1 + a2 > power_cap:
                continue
            cells.append(_audit_cell(float(a1), float(a2), infiltration_resolution))
    return AuditReport(tuple(cells))
