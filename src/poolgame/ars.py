"""Adaptive retaliation strategy: cooperate, punish deviations, forgive.

An ARS agent starts every relationship with no-attack and keeps cooperating
as long as the opponent does. A pool's standing toward an opponent is good
when its last action matched what the strategy prescribed. Retaliation
happens exactly in the (good, bad) state: the agent in good standing strikes
back once against the opponent that deviated, then both return to
cooperation. ``engine.run_npool`` keeps the standings and prescriptions of
every ordered pair of pools as matrices and prices a stage's retaliations
here, in one batch.

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

Both tests are quadratic in the power x. The victim's payoff is
u(x) = N(x) / D(x) - 1 with D(x) = (1 - x)(v + x) and N linear in x, so the
candidate test ``actual + coef u(x) < bound`` holds where
Q(x) = (bound - actual + coef) D(x) - coef N(x) > 0, and equal
retaliation's ``u(x) - tol <= loss`` where (loss + tol + 1) D(x) - N(x) >= 0.
Each Q is concave when its leading coefficient is positive, so each set is
an interval with closed-form ends. A pass of at least ``WINDOW_ROWS`` rows
therefore does not price every coarse point. Per row it prices ``WINDOW``
points around each end of both intervals and ``WINDOW`` points around the
one-sided optimum, and picks among them with the same operations as on the
whole grid. The premise is that these points hold the grid's answer, and a
guard checks it row by row: the float value of each test on every unpriced
point must follow, by concavity, from Q at the windows' edges, and those
values must clear a rounding margin: ``CERT_MARGIN`` = 2^-40 times the
size of the test's inputs, over fifty times a bound on the rounding errors
of the float test and of Q together. Then the smallest candidate passing equal retaliation and the
candidates nearest the optimum are all priced, and the pick is the whole
grid's, bit for bit. ``_grid_pick``, the one pricing of the whole grid,
prices the rows the guard refuses and every row of a smaller pass.

``retaliate_cells`` is the one implementation, an array kernel over N
retaliations (rows) given their powers, both profiles' stage payoffs and
``k``, one weight or one per row; each grid is a (points, rows) array. It
returns each row's FAW and BWH power columns. A row's result does not
depend on its batch, since windows and the whole grid give the same bits,
so it is bit-identical to a one-row call. ``retaliate`` is the one-row
case, ``Action(faw, bwh)``; the two-stage sweeps,
``equilibrium.delta_bound`` and ``engine.run_npool`` pass whole batches.
"""

from __future__ import annotations

import numpy as np

from .model import ALGEBRAIC_TOL, Action, AttackKind, EmptySetUnexpected, check_weight
from .payoff import (
    one_sided_victim,
    optimal_infiltration,
    payoff_pair,
)

#: points of the coarse retaliation grid on [0, alpha_own], endpoints included
GRID_POINTS = 100
#: rows per pass of ``retaliate_cells``; bounds its (points, rows) arrays
BATCH_ROWS = 512
#: fewest rows a pass prices on windows; below, their fixed cost exceeds what they save
WINDOW_ROWS = 160
#: coarse columns of a window: around an end of a test's interval, or the optimum
WINDOW = 5
#: the guard's rounding margin, relative to the size of a test's inputs
CERT_MARGIN = 2.0**-40
# above every grid point and distance to one, which are all below 1
_FAR = np.finfo(float).max
# column indices as float columns: of the coarse grid, a window and the
# refined grid (at most 21 points)
_COARSE, _WINDOW, _FINE = (np.arange(n, dtype=float)[:, None] for n in (GRID_POINTS, WINDOW, 21))


def _window_points(starts, own, step, columns=_WINDOW):
    """The coarse points of the windows of ``len(columns)`` columns whose
    first columns (whole floats) are ``starts`` (..., rows), as (...,
    len(columns), rows): ``j * step`` as numpy's ``linspace(0, own,
    GRID_POINTS)`` computes column j from ``step = own / (GRID_POINTS - 1)``,
    and ``own`` at the last column, which only the last window holds. With
    ``_COARSE`` from column 0 they are the whole coarse grid."""
    grid = (starts[..., None, :] + columns) * step
    grid[..., -1, :] = np.where(starts == GRID_POINTS - len(columns), own, grid[..., -1, :])
    return grid


def _grids(lo, hi, last):
    """Column i is ``np.linspace(lo[0, i], hi[0, i], last[0, i] + 1)``, padded
    to 21 points with copies of its last point (which change no pick).
    Computed as numpy does, ``j * ((hi - lo) / last) + lo`` then ``hi``
    last, so the bits match; every column has hi > lo, so no special case
    applies.
    """
    return np.where(_FINE >= last, hi, _FINE * ((hi - lo) / last) + lo)


def _windowed(a, c, m, slope, v, own, step):
    """For tests t of the form Q_t(x) > 0, given as (tests, n) arrays: the
    coarse points of the two WINDOW-column windows around the ends of each
    test's set, (tests, 2 * WINDOW, n), and whether the guard certifies
    every test's float value on every column outside its windows, (n,).

    Q(x) = a (1 - x)(v + x) - c (v + slope x) = -a x^2 + beta x + (a - c) v.
    The windows sit around its roots, or both around its vertex when it has
    none; rows with a <= 0 get windows the guard does not read. The guard
    certifies that each run of unpriced columns is true or false
    throughout, like the window column next to it, reading Q at the end
    columns of the windows and their inner neighbours, with margin ``m``:

    * a run between the windows is true where Q > m at both its ends (with
      a > m, Q is concave, so it stays above the smaller);
    * a run is false where Q < -m at the window end next to it and Q rises
      by more than m into the window (concavity keeps Q falling away);
    * a test with c = 0 has one value at every column (``coef * u`` is
      zero), and one with c v - max(a, 0) > 2 m is false at every column
      (Q <= max(a, 0) - c v).
    """
    beta = a * (1.0 - v) - c * slope
    gamma = (a - c) * v
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(beta * beta + 4.0 * a * gamma, 0.0))
        ends = np.stack([beta - root, beta + root], axis=1) / (2.0 * a * step)[:, None]
    # NaN (a = 0) and ends off the grid go to its first or last window
    half = WINDOW // 2
    starts = np.minimum(np.rint(np.fmax(ends, half)) - half, GRID_POINTS - WINDOW)
    x = _window_points(starts, own, step)
    q = (beta[:, None, None] - a[:, None, None] * x) * x + gamma[:, None, None]
    edge, m4 = q[:, :, ::WINDOW - 1], m[:, None, None]  # Q at each window's first and last column
    # Q below -m at a window's end and rising into the window
    away = (edge < -m4) & (q[:, :, 1:WINDOW - 1:WINDOW - 3] - edge > m4)
    lo, hi = starts[:, 0], starts[:, 1]
    lead = (lo == 0.0) | away[:, 0, 0]
    trail = (hi == GRID_POINTS - WINDOW) | away[:, 1, 1]
    middle = ((hi <= lo + WINDOW) | ((edge[:, 0, 1] > m) & (edge[:, 1, 0] > m))
              | away[:, 0, 1] | away[:, 1, 0])
    sure = ((c == 0.0) | (c * v - np.maximum(a, 0.0) > 2.0 * m)
            | ((a > m) & lead & middle & trail))
    return x.reshape(len(a), 2 * WINDOW, -1), np.logical_and.reduce(sure, axis=0)


def _candidate_set(kind, coef, actual_uj, bound_uj, alpha_own, alpha_opp, grid):
    """Per column of ``grid`` (points, rows), which powers x make the
    opponent's deviation unprofitable, with U_opp(x, no-attack) at every
    point:

        U_opp(actual profile) + coef * U_opp(retaliation, no-attack)
            < U_opp(profile had the opponent followed its prescription)

    ``coef`` is ``k`` for FAW and 1 for BWH (``1.0 * u`` is exact).
    ``coef``, ``actual_uj``, ``bound_uj`` (the prescribed U_opp plus
    ALGEBRAIC_TOL) and the powers are (1, rows).
    """
    u_under = one_sided_victim(kind, alpha_own, alpha_opp, grid)
    # strict inequality up to a margin, so boundary-equal candidates (e.g. 0
    # when the opponent's "deviation" changed nothing) stay in the set
    return actual_uj + coef * u_under < bound_uj, u_under


def _pick_from_set(loss_i, grid, ok, u_under, optimum):
    """Per row, min of equal retaliation and selfish retaliation over the
    candidates ``grid[ok]`` of its column; ``loss_i`` (1, rows) is my loss
    from the deviation and ``optimum`` (1, rows) the one-sided optimal
    infiltration of the retaliation. The points may come in any order; a
    row without candidates picks its smallest point."""
    # equal retaliation: the smallest candidate whose damage to the opponent
    # is at least my loss from the deviation
    sat = ok & (loss_i >= u_under - ALGEBRAIC_TOL)
    # selfish retaliation: the smallest of the candidates nearest the
    # optimum (on an ascending grid, the first). Points and distances are
    # finite and >= 0, so adding _FAR drops a point (x + _FAR is _FAR) and
    # adding 0.0 keeps its bits, at a fraction of np.where's cost
    dist = np.abs(grid - optimum) + ~ok * _FAR
    # Python's min(equal, selfish) is the smallest point of either kind
    return (grid + ~(sat | (dist == dist.min(axis=0))) * _FAR).min(axis=0)


def _grid_pick(kind, rows):
    """The coarse pick on the whole grid of ``rows`` (see ``_retaliation``):
    whether each row has a candidate, then the pick and the optimum of the
    rows that do (None if none does)."""
    own, opp, act_uj, bound_uj, loss_i, step, coef = rows
    coarse = _window_points(np.zeros(own.shape[1]), own, step, _COARSE)
    ok, u_under = _candidate_set(kind, coef, act_uj, bound_uj, own, opp, coarse)
    found = np.logical_or.reduce(ok, axis=0)
    n_found = np.count_nonzero(found)
    if not n_found:
        return found, None, None
    if n_found < found.size:
        own, opp, loss_i, coarse, ok, u_under = (
            z[:, found] for z in (own, opp, loss_i, coarse, ok, u_under))
    optimum = optimal_infiltration(kind, own[0], opp[0])[None, :]
    return found, _pick_from_set(loss_i, coarse, ok, u_under, optimum), optimum


def _window_pick(kind, rows):
    """``_grid_pick`` for a pass of at least WINDOW_ROWS rows. Rows whose
    tests the guard certifies are priced on the windows of both tests and
    on the optimum's neighbours; ``_grid_pick`` prices the others."""
    own, opp, act_uj, bound_uj, loss_i, step, coef = rows
    slope = 1.0 - own - opp if kind is AttackKind.FAW else 0.0  # the victim's N(x) = v + slope x
    # both tests as Q > 0 (see _windowed): the candidate test with
    # a = (bound - actual) + coef and c = coef, and equal retaliation's
    # u(x) <= loss + ALGEBRAIC_TOL with a = (loss + ALGEBRAIC_TOL) + 1 and c = 1
    (windows, equal), sure = _windowed(
        np.concatenate([(bound_uj - act_uj) + coef, (loss_i + ALGEBRAIC_TOL) + 1.0]),
        np.concatenate([coef, np.ones_like(coef)]),
        CERT_MARGIN * np.concatenate([1.0 + np.abs(act_uj) + np.abs(bound_uj),
                                      1.0 + np.abs(loss_i)]),
        slope, opp, own, step)
    ok, u_under = _candidate_set(kind, coef, act_uj, bound_uj, own, opp, windows)
    found = np.logical_or.reduce(ok, axis=0)
    x, optimum = np.empty(found.size), np.empty_like(own)  # read only where found
    refused = np.flatnonzero(~sure)
    if refused.size:
        found[refused], grid_x, grid_opt = _grid_pick(kind, [z[:, refused] for z in rows])
        if grid_x is not None:
            refused = refused[found[refused]]
            x[refused], optimum[:, refused] = grid_x, grid_opt
    if not found.any():
        return found, None, None
    picked = np.flatnonzero(found & sure)
    if picked.size < found.size:
        own, opp, act_uj, bound_uj, loss_i, step, coef, windows, ok, u_under, equal = (
            z[:, picked] for z in (own, opp, act_uj, bound_uj, loss_i, step, coef, windows,
                                   ok, u_under, equal))
    opt = optimum[:, picked] = optimal_infiltration(kind, own[0], opp[0])
    # the optimum's neighbours: the columns floor(optimum / step) - 2 to + 2
    near = np.clip(np.floor(opt / step[0]) - WINDOW // 2, 0.0, GRID_POINTS - WINDOW)
    more = np.concatenate([equal, _window_points(near, own, step)])
    more_ok, more_u = _candidate_set(kind, coef, act_uj, bound_uj, own, opp, more)
    x[picked] = _pick_from_set(loss_i, np.concatenate([windows, more]),
                               np.concatenate([ok, more_ok]),
                               np.concatenate([u_under, more_u]), opt[None, :])
    return found, x[found], optimum[:, found]


def _retaliation(kind, rows):
    """Retaliation with ``kind`` on ``rows``, the (1, n) arrays (own power,
    opponent's power, actual U_opp, the candidate test's bound, my loss,
    coarse step, the candidate test's coefficient): whether each row's
    candidate set is non-empty, and the power picked where it is (0.0
    elsewhere). The coarse pick is ``_window_pick``'s in a pass of at least
    WINDOW_ROWS rows, else ``_grid_pick``'s; then one refinement pass."""
    pick = _window_pick if rows[0].shape[1] >= WINDOW_ROWS else _grid_pick
    found, x, optimum = pick(kind, rows)
    power = np.zeros(found.size)
    if x is None:
        return found, power
    if x.size < found.size:
        rows = [z[:, found] for z in rows]
    own, opp, act_uj, bound_uj, loss_i, step, coef = rows
    x = x[None, :]
    # one refinement pass: a 10x denser grid within one coarse step of x.
    # Python's max(0.0, .), min(alpha, .) and round: no operand is -0.0 or
    # NaN, so np.maximum and np.minimum agree with them, and np.rint rounds
    # half to even like round
    lo = np.maximum(x - step, 0.0)
    hi = np.minimum(x + step, own)
    last = np.maximum(np.rint((hi - lo) / step * 10), 1.0)  # points - 1, whole
    # hi - lo <= 2 * step, so a refined grid has at most 21 points
    fine = _grids(lo, hi, last)
    ok, u_under = _candidate_set(kind, coef, act_uj, bound_uj, own, opp, fine)
    hit = np.logical_or.reduce(ok, axis=0)
    power[found] = np.where(hit, _pick_from_set(loss_i, fine, ok, u_under, optimum), x[0])
    return found, power


def _passes(kind, rows):
    """``_retaliation`` over ``rows`` in passes of BATCH_ROWS rows."""
    n = rows[0].shape[1]
    if n <= BATCH_ROWS:
        return _retaliation(kind, rows)
    parts = [_retaliation(kind, [z[:, i:i + BATCH_ROWS] for z in rows])
             for i in range(0, n, BATCH_ROWS)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def retaliate_cells(alpha_own, alpha_opp, stage, k):
    """Retaliation of N rows at once.

    ``alpha_own`` and ``alpha_opp`` are (N,) float arrays of valid powers;
    ``stage`` is a (4, N) array of (actual u_i, actual u_j, prescribed u_i,
    prescribed u_j): the stage payoffs of the last stage as played and as
    the opponent's prescription would have had it; ``k`` is one preference
    weight or an (N,) array of one per row, each in [0, 1)
    (``check_weight``). Returns ``(faw, bwh, empty)``: each row's FAW and
    BWH retaliation powers, at most one of them non-zero, and the rows
    whose BWH candidate set came out empty (both powers 0.0, meaning
    nothing), which the callers report. Tries FAW on every row, then BWH on
    the rows without a FAW candidate, each in passes of BATCH_ROWS rows.
    """
    check_weight(k)
    act_ui, act_uj, pre_ui, pre_uj = stage[:, None, :]
    own = alpha_own[None, :]
    # the right side of the candidate test, my loss from the deviation, the
    # coarse grid's step and the FAW candidate test's coefficient k
    rows = [own, alpha_opp[None, :], act_uj, pre_uj + ALGEBRAIC_TOL, act_ui - pre_ui,
            own / (GRID_POINTS - 1), np.broadcast_to(np.asarray(k, float), own.shape)]
    found, faw = _passes(AttackKind.FAW, rows)
    bwh, empty = np.zeros_like(faw), np.zeros_like(found)
    rest = np.flatnonzero(~found)
    if rest.size:  # the BWH fallback, on the rows without a FAW candidate
        if rest.size < found.size:
            rows = [z[:, rest] for z in rows]
        found, bwh[rest] = _passes(AttackKind.BWH, [*rows[:-1], np.ones_like(rows[0])])
        empty[rest] = ~found
    return faw, bwh, empty


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
    faw, bwh, empty = retaliate_cells(
        np.array([alpha_own], float), np.array([alpha_opp], float),
        np.array([[actual.u_i], [actual.u_j], [prescribed.u_i], [prescribed.u_j]]), k,
    )
    if empty[0]:
        raise _empty_set_error(alpha_own, alpha_opp, own_prev, opp_prev, opp_prescribed)
    return Action(float(faw[0]), float(bwh[0]))
