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
and each side's profiles are one batch over the deviation grid
(``ars.retaliate_cells`` for the punisher's retaliations, batched
``payoff_pair_raw`` for the payoffs).

The BWH audit checks every power cell at once, as one array program. Each
family of deviation gaps is a least rounded difference fl(p - d) over a
grid, and IEEE subtraction rounds monotonically, so that least difference is
exactly fl(min p - max d): family 2 needs two grid rows per cell instead of
a grid, and family 1 needs, for each of pool 1's FAW powers, only the
largest of pool 2's deviation payoffs. That row maximum is the maximum
over a window of ``AUDIT_WINDOW`` grid points; the window prices the grid's
own points, so the maximum is the same float. Where an edge of the window
inside the row reaches the window's maximum, the row could hold a larger
value beyond it, and the row is priced in full. The guard certifies a
window wherever it starts, so the start only decides the cost. Only the
anchor rows, every ``AUDIT_ANCHOR_STEP``-th FAW power and the last, are
bisected on the sign of the discrete slope down to a bracket of at most 3
grid points; every row's window starts at its two anchors' brackets,
interpolated to its position and rounded. Rows run in batches of
``AUDIT_ROW_CHUNK`` and index each cell's deviation grid, never a copy per
row. Cells whose optimal BWH power does not deter try larger powers in
order: up to the family-1 cap they reuse the cap's minimum, one expression
for all cells; above it the still-open cells get fresh family-1 minima,
``AUDIT_FALLBACK_POWERS`` powers per cell and pass, and keep their first
deterring power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Action,
    AttackKind,
    InvalidPowers,
    NonConvergence,
    OPTIMIZER_TOL,
    ZERO_ACTION,
    check_actions,
    check_count,
    check_powers,
)
from .payoff import (
    StagePayoffs,
    one_sided_attacker,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    optimal_infiltration,
    payoff_pair,
    payoff_pair_raw,
)
from .ars import _empty_set_error, retaliate, retaliate_cells

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# best-response dynamics of stage_nash: bracketing grid, stopping step, cap
NASH_GRID_POINTS = 100
NASH_TOL = 1e-7
NASH_MAX_ITERATIONS = 10_000
# BWH audit: family-1 rows priced per batch (bounds the evaluation arrays),
# grid points of a row-maximum window, rows per bisected anchor row, fallback
# powers per open cell and pass
AUDIT_ROW_CHUNK = 2048
AUDIT_WINDOW = 5
AUDIT_ANCHOR_STEP = 8
AUDIT_FALLBACK_POWERS = 4


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

    grid = np.linspace(0.0, alpha_own, NASH_GRID_POINTS)
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
    """Unique pure-FAW stage-game Nash equilibrium by best-response iteration
    from the FAW powers ``initial``."""
    check_powers(alpha_1, alpha_2)
    f1, f2 = initial
    check_actions(alpha_1, f1, 0.0)
    check_actions(alpha_2, f2, 0.0)
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


def _deviation_outcomes(profiles, alpha_pun, alpha_dev, deviations, k):
    """``deviation_outcome`` for every deviation under every stage-0 profile
    (punisher's action, deviator's prescription) at once: (gain, punishment)
    arrays of shape (profiles, deviations) and the compliance payoffs
    (profiles,). The punisher's retaliations are one ``retaliate_cells``
    batch, profile by profile in their order."""
    comp = [payoff_pair(alpha_pun, alpha_dev, pun0, prescribed) for pun0, prescribed in profiles]
    shape = (len(profiles), len(deviations))
    dev_f = np.tile(np.array([d.faw for d in deviations], float), shape[0])
    dev_b = np.tile(np.array([d.bwh for d in deviations], float), shape[0])
    zero = np.zeros_like(dev_f)

    def per_profile(values):
        return np.repeat(np.array(values, float), shape[1])

    # the stage as played: the deviator's payoff is its gain
    u_pun0, gain = payoff_pair_raw(alpha_pun, alpha_dev,
                                   per_profile([pun0.faw for pun0, _ in profiles]),
                                   per_profile([pun0.bwh for pun0, _ in profiles]), dev_f, dev_b)
    faw, x, empty = retaliate_cells(
        np.full_like(dev_f, alpha_pun), np.full_like(dev_f, alpha_dev),
        np.array([u_pun0, gain, per_profile([u.u_i for u in comp]),
                  per_profile([u.u_j for u in comp])]),
        k,
    )
    for r in np.flatnonzero(empty)[:1]:
        pun0, prescribed = profiles[r // shape[1]]
        raise _empty_set_error(alpha_pun, alpha_dev, pun0, deviations[r % shape[1]], prescribed)
    punishment = payoff_pair_raw(alpha_pun, alpha_dev, np.where(faw, x, 0.0),
                                 np.where(faw, 0.0, x), zero, zero)[1]
    return gain.reshape(shape), punishment.reshape(shape), np.array([u.u_j for u in comp])


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
    gain, punishment, comp = _deviation_outcomes(
        [(case.punisher_stage0, case.deviator_prescribed)], alpha_pun, alpha_dev, [deviation], k)
    return float(gain[0, 0]), float(punishment[0, 0]), float(comp[0])


def _deviation_grid(alpha_dev, n):
    g = np.linspace(0.0, alpha_dev, n)[1:]  # exclude 0 (compliance, not a deviation)
    return [Action(f, 0.0) for f in g] + [Action(0.0, b) for b in g]


def _worst_ratio(gain, punishment, comp) -> float:
    """Largest (compliance - gain) / punishment over one class's deviations
    (its row of ``_deviation_outcomes``), skipping those whose
    punishment-stage payoff is (near) zero."""
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
    evaluates the deviation grid once per distinct profile, all profiles in
    one batch: cooperating under either prior and mutual-bad all share the
    no-attack profile. Refuses a ``deviation_resolution`` below 2.
    """
    check_count(deviation_resolution, "deviation_resolution", least=2)
    case_maxima: dict[str, float] = {}
    for alpha_pun, alpha_dev, side in ((alpha_1, alpha_2, 2), (alpha_2, alpha_1, 1)):
        # the cases first: they refuse invalid powers before any grid is built
        cases = [case for prior in (AttackKind.FAW, AttackKind.BWH)
                 for case in _subgame_cases(alpha_pun, alpha_dev, k, prior)]
        deviations = _deviation_grid(alpha_dev, deviation_resolution)
        profiles = list(dict.fromkeys((c.punisher_stage0, c.deviator_prescribed) for c in cases))
        gain, punishment, comp = _deviation_outcomes(profiles, alpha_pun, alpha_dev,
                                                     deviations, k)
        worst = {p: _worst_ratio(gain[r], punishment[r], comp[r])
                 for r, p in enumerate(profiles)}
        for case in cases:
            key = f"pool{side}:{case.name}"
            worst_case = worst[case.punisher_stage0, case.deviator_prescribed]
            case_maxima[key] = max(case_maxima.get(key, -np.inf), worst_case)
    return DeltaBound(alpha_1=alpha_1, alpha_2=alpha_2, k=k,
                      bound=float(max(case_maxima.values())), case_maxima=case_maxima,
                      duplicate_cases=(("cooperating", "mutual-bad"),))


# ---------------------------------------------------------------------------
# Non-emptiness audit of the BWH candidate set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """The audit's result as columns, one entry per cell in row order."""

    alpha_1: np.ndarray
    alpha_2: np.ndarray
    f_value: np.ndarray  # margin under the baseline assumption (may be negative)
    k_chosen: np.ndarray  # BWH power whose damage covers the worst-case gap; NaN if none
    passed: np.ndarray  # bool


def _brackets(u, size: int, n: int) -> np.ndarray:
    """Start of a bracket of at most 3 grid points around the maximum of
    each of ``size`` rows of n grid values, by bisection on the sign of the
    row's discrete slope. ``u(j)`` prices the grid indices ``j`` (shape
    (k, size), rows on the last axis)."""
    lo = np.zeros(size, np.intp)
    hi = np.full(size, n - 1)
    while (active := hi - lo > 2).any():
        mid = (lo + hi) // 2
        at = u(np.stack([mid, mid + 1]))
        up = at[1] > at[0]
        lo = np.where(active & up, mid + 1, lo)
        hi = np.where(active & ~up, mid, hi)
    return lo


def _window_maxima(u, lo, n: int) -> np.ndarray:
    """Maximum of each row of n grid values, from a window of
    ``AUDIT_WINDOW`` points starting just before ``lo`` (one start per row).
    ``u(j)`` prices the grid indices ``j`` (shape (k, rows)) and ``u(j,
    rows)`` those of the given rows only.

    On a row that never rises after a fall, a window whose edges inside the
    row both lie strictly below its maximum holds the row's maximum, wherever
    it starts; any other row is priced in full."""
    w = min(AUDIT_WINDOW, n)
    first = np.clip(lo - 1, 0, n - w)
    vals = u(first + np.arange(w)[:, None])
    top = vals.max(axis=0)
    loose = np.flatnonzero(((first > 0) & (vals[0] == top))
                           | ((first + w < n) & (vals[-1] == top)))
    if loose.size:
        top[loose] = u(np.arange(n)[:, None], loose).max(axis=0)
    return top


def _family1_minima(a1, a2, dev, cell, caps) -> np.ndarray:
    """Family-1 gap of each (cell, cap) pair: the least of pool 2's honest
    payoff minus its deviation payoff over pool 1's FAW powers
    ``linspace(0, cap, n)`` and pool 2's deviations ``dev[cell]``.

    Subtraction rounds monotonically, so the least rounded difference over a
    row is its honest payoff minus the row's largest deviation payoff: one
    row maximum per FAW power prices the pair's full grid exactly. Only the
    anchor rows (every ``AUDIT_ANCHOR_STEP``-th FAW power and the last) are
    bisected; every row's window starts where its two anchors' brackets,
    interpolated, put it, and the window's guard certifies it as before."""
    n = dev.shape[1]
    anchors = np.unique(np.append(np.arange(0, n, AUDIT_ANCHOR_STEP), n - 1))
    # each row's left anchor (by position in ``anchors``) and its weight
    # toward the right one; an anchor row's start is its own bracket
    left = np.minimum(np.arange(n) // AUDIT_ANCHOR_STEP, anchors.size - 2)
    weight = (np.arange(n) - anchors[left]) / (anchors[left + 1] - anchors[left])

    def pricer(c, f):
        x, y = a1[c], a2[c]

        def u(j, r=slice(None)):
            return payoff_pair_raw(x[r], y[r], f[r], 0.0, dev[c[r], j], 0.0)[1]

        return u

    # pass 1: the anchor rows' brackets, AUDIT_ROW_CHUNK rows per batch
    brackets = np.empty((caps.size, anchors.size), np.intp)
    step = max(1, AUDIT_ROW_CHUNK // anchors.size)  # pairs per batch
    for s in range(0, caps.size, step):
        c = np.repeat(cell[s:s + step], anchors.size)
        f = np.linspace(0.0, caps[s:s + step], n, axis=-1)[:, anchors].ravel()
        brackets[s:s + step] = _brackets(pricer(c, f), f.size, n).reshape(-1, anchors.size)

    # pass 2: every row's window from its interpolated start
    step = max(1, AUDIT_ROW_CHUNK // n)  # pairs per batch
    minima = np.empty(caps.size)
    for s in range(0, caps.size, step):
        c = np.repeat(cell[s:s + step], n)
        f = np.linspace(0.0, caps[s:s + step], n, axis=-1).ravel()
        lo, hi = brackets[s:s + step, left], brackets[s:s + step, left + 1]
        start = np.rint(lo + weight * (hi - lo)).astype(np.intp).ravel()
        honest = payoff_pair_raw(a1[c], a2[c], f, 0.0, 0.0, 0.0)[1]
        gaps = honest - _window_maxima(pricer(c, f), start, n)
        minima[s:s + step] = gaps.reshape(-1, n).min(axis=1)
    return minima


def _lesser(t1, t2):
    # Python's min(t1, t2), elementwise: t1 unless t2 is smaller
    return np.where(t2 < t1, t2, t1)


def _audit_cells(a1, a2, n: int) -> AuditReport:
    """Audit the cells (a1[i], a2[i]) at once: some BWH power of pool 1 must
    out-damage every single-stage gain pool 2 can grab by deviating, in both
    context families. The powers must be valid."""
    m1b = optimal_infiltration(AttackKind.BWH, a1, a2)
    m2b = optimal_infiltration(AttackKind.BWH, a2, a1)
    f_cap = np.maximum(m1b, optimal_infiltration(AttackKind.FAW, a1, a2))
    dev = np.linspace(0.0, a2, n, axis=-1)  # pool 2's deviation (FAW dominates for the gain)
    cells = np.arange(a1.size)

    def damage(i, b):
        return -one_sided_victim(AttackKind.BWH, a1[i], a2[i], b)

    # family 1: pool 1 has attacked with (f1, 0); gap between pool 2 staying
    # honest and deviating with (f2, 0)
    t1_cap = _family1_minima(a1, a2, dev, cells, f_cap)
    # family 2: pool 1 honest; gap between pool 2 playing its prescribed BWH
    # retaliation (0, b2) and deviating with (f2, 0)
    t2 = np.empty(a1.size)
    step = max(1, AUDIT_ROW_CHUNK // n)
    for s in range(0, a1.size, step):
        part = slice(s, s + step)
        y, x = a1[part, None], a2[part, None]
        b2 = np.linspace(0.0, m2b[part], n, axis=-1)
        t2[part] = (one_sided_attacker(AttackKind.BWH, x, y, b2).min(axis=1)
                    - one_sided_attacker(AttackKind.FAW, x, y, dev[part]).max(axis=1))

    worst = _lesser(t1_cap, t2)
    gap = -worst  # worst-case gain pool 2 can secure
    f_value = damage(cells, m1b) - gap
    passed = f_value > 0.0
    k_chosen = np.where(passed, m1b, np.nan)

    # fallback: pool 1's powers linspace(m1b, a1, n) in order, the first
    # whose damage covers the gap. Up to f_cap the family-1 gap is t1_cap;
    # above it, fresh minima are priced a few powers per open cell and pass.
    fb = np.flatnonzero(~passed)
    kk = np.linspace(m1b[fb], a1[fb], n, axis=-1)
    fresh = ~(kk <= f_cap[fb, None])
    fk = np.where(fresh, np.nan, damage(fb[:, None], kk) + worst[fb, None])
    while True:
        # each cell's first power that passes or is not priced yet
        stop = (fk > 0.0) | fresh
        first = stop.argmax(axis=1)
        open_ = fresh[np.arange(fb.size), first]
        if not open_.any():
            break
        take = fresh & open_[:, None] & (np.arange(n) >= first[:, None])
        take &= np.cumsum(take, axis=1) <= AUDIT_FALLBACK_POWERS
        i, j = np.nonzero(take)
        t1 = _family1_minima(a1, a2, dev, fb[i], kk[i, j])
        fk[i, j] = damage(fb[i], kk[i, j]) + _lesser(t1, t2[fb[i]])
        fresh[i, j] = False
    ok = fk > 0.0
    hit = np.flatnonzero(ok.any(axis=1))
    passed[fb[hit]] = True
    k_chosen[fb[hit]] = kk[hit, ok[hit].argmax(axis=1)]
    return AuditReport(a1, a2, f_value, k_chosen, passed)


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
    power exists). Cells run in row order (alpha_1, then alpha_2) and skip
    those whose powers sum above ``power_cap``; the first cell with invalid
    powers raises ``InvalidPowers``.
    """
    check_count(power_grid_resolution, "power_grid_resolution")
    check_count(infiltration_resolution, "infiltration_resolution", least=2)
    powers = np.linspace(power_lo, power_hi, power_grid_resolution)
    a1, a2 = (g.ravel() for g in np.meshgrid(powers, powers, indexing="ij"))
    kept = ~(a1 + a2 > power_cap)
    a1, a2 = a1[kept], a2[kept]
    try:
        check_powers(a1, a2)
    except InvalidPowers as err:
        # the cells before the first invalid one are audited (and may raise) first
        _audit_cells(a1[:err.index], a2[:err.index], infiltration_resolution)
        raise
    return _audit_cells(a1, a2, infiltration_resolution)
