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
construction of the candidate sets it stays below 1. The classes enter
through the pool pair's four stage-0 retaliations (each pool's against the
other's optimal attack of each kind), one ``ars.retaliate_cells`` batch.
Classes sharing a stage-0 profile share their outcomes, so the distinct
profiles of both sides, each under its deviator's grid, are one more
batch, and each profile's worst ratio is one masked row maximum.

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
deterring power. A power's gap is the lesser of its two families' gaps, so
a power whose damage does not cover the family-2 gap fails whatever its
family-1 gap, and the fallback never prices its family-1 minimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    DegenerateDenominator,
    InvalidScenario,
    NonConvergence,
    OPTIMIZER_TOL,
    SWEEP_POWER_CAP,
    ZERO_ACTION,
    _grid_pairs,
    check_actions,
    check_count,
    check_powers,
)
from .payoff import (
    NO_LIVE_POWER,
    StagePayoffs,
    one_sided_attacker,
    one_sided_victim,
    optimal_infiltration,
    payoff_pair,
    payoff_pair_raw,
)
from .ars import _empty_set_error, retaliate_cells

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# best-response dynamics of stage_nash: bracketing grid, stopping step, cap
NASH_GRID_POINTS = 100
NASH_TOL = 1e-7
NASH_MAX_ITERATIONS = 10_000
# BWH audit: the range of both pools' powers, grid points of each
# infiltration and deviation grid, family-1 rows priced per batch (bounds the
# evaluation arrays), grid points of a row-maximum window, rows per bisected
# anchor row, fallback powers per open cell and pass
AUDIT_POWER_LO = 0.01
AUDIT_POWER_HI = 0.45
AUDIT_INFILTRATION_POINTS = 120
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
    from the FAW powers ``initial``, a pair of numbers."""
    check_powers(alpha_1, alpha_2)
    try:
        f1, f2 = initial
    except (TypeError, ValueError):  # not a pair
        f1 = f2 = None
    if not (isinstance(f1, numbers.Real) and isinstance(f2, numbers.Real)):
        raise InvalidScenario(f"initial must be a pair of FAW powers, got {initial!r}")
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


def _stage0_retaliations(alpha_1, alpha_2, k):
    """The subgame classes' stage-0 retaliations, ([pool 1's, pool 2's]
    after a FAW attack, the same after a BWH attack): each pool's
    retaliation against the other's optimal one-shot attack of that kind.
    They belong to the pool pair, not to a side: one ``retaliate_cells``
    batch, its rows in that order."""
    check_powers(alpha_2, alpha_1)
    rows = [(kind, own, opp) for kind in (AttackKind.FAW, AttackKind.BWH)
            for own, opp in ((alpha_1, alpha_2), (alpha_2, alpha_1))]
    attacks = [Action.of(kind, optimal_infiltration(kind, opp, own)) for kind, own, opp in rows]
    own, opp = (np.array([row[i] for row in rows], float) for i in (1, 2))
    zero = np.zeros(4)
    stage = np.array([  # the stage as played (the opponent attacks) and as prescribed
        *payoff_pair_raw(own, opp, zero, zero, *np.array([[a.faw, a.bwh] for a in attacks]).T),
        *payoff_pair_raw(own, opp, zero, zero, zero, zero)])
    faw, bwh, empty = retaliate_cells(own, opp, stage, k)
    for r in np.flatnonzero(empty)[:1]:
        raise _empty_set_error(*rows[r][1:], ZERO_ACTION, attacks[r], ZERO_ACTION)
    actions = list(map(Action, faw.tolist(), bwh.tolist()))
    return actions[:2], actions[2:]


def _deviation_outcomes(profiles, k):
    """One-stage deviations inside subgame classes, every deviation of every
    stage-0 profile at once. A profile is (punisher's power, deviator's
    power, punisher's stage-0 action, deviator's prescription, deviations),
    all with as many deviations. Returns the deviator's stage-0 payoff
    (gain) and its stage-1 payoff under the punisher's retaliation
    (punishment), (profiles, deviations) arrays, and its compliance payoffs
    (profiles,): cooperation resumes after stage 1, so a deviation pays at
    discount d iff gain + d * punishment > compliance. The retaliations are
    one ``retaliate_cells`` batch in profile order; powers are not checked."""
    shape = (len(profiles), len(profiles[0][4]))
    # one row per (profile, deviation), profile by profile
    pun, dev, pun_f, pun_b, pre_f, pre_b = np.repeat(np.array(
        [(p[0], p[1], p[2].faw, p[2].bwh, p[3].faw, p[3].bwh) for p in profiles], float).T,
        shape[1], axis=1)
    deviations = np.array([[d.faw, d.bwh] for p in profiles for d in p[4]], float).T
    # the stage as played, where the deviator's payoff is its gain, and as prescribed
    u_pun0, gain = payoff_pair_raw(pun, dev, pun_f, pun_b, *deviations)
    pre_ui, pre_uj = payoff_pair_raw(pun, dev, pun_f, pun_b, pre_f, pre_b)
    faw, bwh, empty = retaliate_cells(pun, dev, np.array([u_pun0, gain, pre_ui, pre_uj]), k)
    for r in np.flatnonzero(empty)[:1]:
        alpha_pun, alpha_dev, pun0, prescribed, devs = profiles[r // shape[1]]
        raise _empty_set_error(alpha_pun, alpha_dev, pun0, devs[r % shape[1]], prescribed)
    punishment = payoff_pair_raw(pun, dev, faw, bwh, 0.0, 0.0)[1]
    return gain.reshape(shape), punishment.reshape(shape), pre_uj[::shape[1]]


def _deviation_grid(alpha_dev, n):
    g = np.linspace(0.0, alpha_dev, n)[1:].tolist()  # exclude 0 (compliance, not a deviation)
    return [Action(f, 0.0) for f in g] + [Action(0.0, b) for b in g]


def _worst_ratios(gain, punishment, comp):
    """Each row's largest (compliance - gain) / punishment over the
    deviations punished by at least OPTIMIZER_TOL, else -inf (rows of
    ``_deviation_outcomes``): the first largest, as Python's max."""
    ratios = np.full_like(gain, -np.inf)
    np.divide(comp[:, None] - gain, punishment, out=ratios,
              where=np.abs(punishment) >= OPTIMIZER_TOL)
    return ratios[np.arange(len(ratios)), ratios.argmax(axis=1)]


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
    stage-0 profile (powers, punisher's action, deviator's prescription), so
    each distinct profile is priced once, all in one batch: cooperating and
    mutual-bad under either prior share one. Refuses a
    ``deviation_resolution`` below 2.
    """
    check_count(deviation_resolution, "deviation_resolution", least=2)
    # the retaliations first: they refuse invalid powers before any grid is built
    stage0 = _stage0_retaliations(alpha_1, alpha_2, k)
    grids = {a: _deviation_grid(a, deviation_resolution) for a in (alpha_2, alpha_1)}
    # each side's classes under each prior, pool 2 deviating first: (key,
    # (punisher's power, deviator's power, punisher's stage-0 action,
    # deviator's prescription)); pool i's retaliation is entry i - 1 of a pair
    cases = [(f"pool{side}:{name}", (alpha_pun, alpha_dev, pun0, prescribed))
             for alpha_pun, alpha_dev, side in ((alpha_1, alpha_2, 2), (alpha_2, alpha_1, 1))
             for pair in stage0 for name, pun0, prescribed in (
                 ("cooperating", ZERO_ACTION, ZERO_ACTION),
                 ("being-punished", pair[2 - side], ZERO_ACTION),
                 ("prescribed-retaliation", ZERO_ACTION, pair[side - 1]),
                 ("mutual-bad", ZERO_ACTION, ZERO_ACTION))]
    profiles = list(dict.fromkeys(profile for _, profile in cases))
    outcomes = _deviation_outcomes([(*p, grids[p[1]]) for p in profiles], k)
    worst = dict(zip(profiles, _worst_ratios(*outcomes).tolist()))
    case_maxima: dict[str, float] = {}
    for key, profile in cases:
        case_maxima[key] = max(case_maxima.get(key, -np.inf), worst[profile])
    return DeltaBound(alpha_1=alpha_1, alpha_2=alpha_2, k=k,
                      bound=float(max(case_maxima.values())), case_maxima=case_maxima)


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


def _no_live_power(caps, dev_top):
    """Where a family-1 grid leaves no live power: at its corner, pool 1's
    FAW power ``caps`` against pool 2's largest deviation ``dev_top``, whose
    live power, by monotone rounding, is the grid's least. The full grid
    prices that corner and raises there; the windows may not price it."""
    return 1.0 - caps - dev_top <= ALGEBRAIC_TOL


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
    if _no_live_power(caps, dev[cell, -1]).any():
        raise DegenerateDenominator(NO_LIVE_POWER)
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
    dmg = damage(fb[:, None], kk)
    fresh = ~(kk <= f_cap[fb, None])
    fk = np.where(fresh, np.nan, dmg + worst[fb, None])
    # a fresh power whose grid leaves no live power raises once it is
    # priced, which the per-power search does on reaching it whatever its
    # damage; it is priced only as its cell's first open power
    dead = fresh & _no_live_power(kk, dev[fb, -1:])
    # rounding is monotone, so fl(damage + min(t1, t2)) <= fl(damage + t2):
    # a fresh power whose damage does not cover t2 fails whatever its
    # family-1 gap, and is left unpriced (its fk stays nan, which fails too)
    fresh &= ~(dmg + t2[fb, None] <= 0.0) | dead
    while True:
        # each cell's first power that passes or is not priced yet
        stop = (fk > 0.0) | fresh
        first = stop.argmax(axis=1)
        open_ = fresh[np.arange(fb.size), first]
        if not open_.any():
            break
        take = fresh & open_[:, None] & (np.arange(n) >= first[:, None])
        take &= ~dead | (np.arange(n) == first[:, None])
        take &= np.cumsum(take, axis=1) <= AUDIT_FALLBACK_POWERS
        i, j = np.nonzero(take)
        t1 = _family1_minima(a1, a2, dev, fb[i], kk[i, j])
        fk[i, j] = dmg[i, j] + _lesser(t1, t2[fb[i]])
        fresh[i, j] = False
    ok = fk > 0.0
    hit = np.flatnonzero(ok.any(axis=1))
    passed[fb[hit]] = True
    k_chosen[fb[hit]] = kk[hit, ok[hit].argmax(axis=1)]
    return AuditReport(a1, a2, f_value, k_chosen, passed)


def audit_ipbwh_nonempty(power_grid_resolution: int = 30) -> AuditReport:
    """Sweep power cells and verify a deterring BWH power always exists.

    Both pools' powers run over ``power_grid_resolution`` points from
    ``AUDIT_POWER_LO`` to ``AUDIT_POWER_HI``, in the sweeps' row order
    (alpha_1, then alpha_2), skipping cells whose powers sum above
    ``SWEEP_POWER_CAP``. For each cell the audit first assumes the one-sided
    BWH optimum of pool 1 is available; where its damage fails to cover the
    worst-case deviation gap, it searches larger powers up to pool 1's full
    size. Cells where no power works are reported as failures (expected:
    none; an opponent at exactly half the network, outside this range,
    leaves a sliver of genuine failures where no deterring power exists).
    """
    check_count(power_grid_resolution, "power_grid_resolution")
    powers = np.linspace(AUDIT_POWER_LO, AUDIT_POWER_HI, power_grid_resolution)
    a1, a2 = _grid_pairs(powers, powers)
    kept = ~(a1 + a2 > SWEEP_POWER_CAP)
    return _audit_cells(a1[kept], a2[kept], AUDIT_INFILTRATION_POINTS)
