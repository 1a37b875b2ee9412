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
therefore prices, per row, only ``WINDOW`` points around each end of both
intervals and ``WINDOW`` points around the one-sided optimum. A guard checks
row by row that these points hold the whole grid's answer: the float value
of each test on every unpriced point must follow, by concavity, from Q at
the windows' edges, and clear a rounding margin, ``CERT_MARGIN`` = 2^-40
times the size of the test's inputs, over fifty times a bound on the
rounding errors of the float test and of Q together. Then the smallest
candidate passing equal retaliation and the candidates nearest the optimum
are all priced, and the pick is the whole grid's, bit for bit. The rows the
guard refuses, and every row of a smaller pass, are priced on the whole
coarse grid.

One pick, ``_pick_on``, prices every set of points, windows, the whole
grid and the refined grid alike, all from one linspace rule, ``_points``:
the candidate test on the points, then the cheaper of equal and selfish
retaliation among the candidates.
``retaliate_cells`` is the one implementation, an array kernel over N
retaliations (rows) given their powers, both profiles' stage payoffs and
``k``, one weight or one per row. A pass holds its rows as one (7, rows)
array and each set of points as a (points, rows) array. It returns each
row's FAW and BWH power columns. A row's result does not depend on its
batch, since windows and the whole grid give the same bits, so it is
bit-identical to a one-row call. ``retaliate`` is the one-row case,
``Action(faw, bwh)``; the two-stage sweeps, ``equilibrium.delta_bound``
and ``engine.run_npool`` pass whole batches.
"""

from __future__ import annotations

import numpy as np

from .model import ALGEBRAIC_TOL, Action, AttackKind, EmptySetUnexpected, check_weight
from .payoff import one_sided_victim, optimal_infiltration, payoff_pair

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


def _points(columns, lo, hi, last):
    """Columns ``columns`` (whole floats) of ``np.linspace(lo, hi, last + 1)``
    as numpy computes them, ``j * ((hi - lo) / last) + lo`` below column
    ``last`` and ``hi`` from it on, so the bits match: the coarse grid (from
    ``_COARSE``) and its windows with ``lo = 0.0``, ``hi = own`` and ``last =
    GRID_POINTS - 1``, and the refined grids (``_FINE``), padded to 21
    points with copies of ``hi``, which change no pick. Every refined grid
    has hi > lo, so no special case of numpy's applies."""
    points = columns * ((hi - lo) / last) + lo
    # in place: np.where on the broadcast columns costs several times more
    np.copyto(points, hi, where=columns >= last)
    return points


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
    x = _points(starts[..., None, :] + _WINDOW, 0.0, own, GRID_POINTS - 1)
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
    ALGEBRAIC_TOL) and the powers are (rows,).
    """
    u_under = one_sided_victim(kind, alpha_own, alpha_opp, grid)
    # strict inequality up to a margin, so boundary-equal candidates (e.g. 0
    # when the opponent's "deviation" changed nothing) stay in the set
    return actual_uj + coef * u_under < bound_uj, u_under


def _pick_from_set(loss_i, grid, ok, u_under, optimum):
    """Per row, min of equal retaliation and selfish retaliation over the
    candidates ``grid[ok]`` of its column; ``loss_i`` (rows,) is my loss
    from the deviation and ``optimum`` (rows,) the one-sided optimal
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


def _pick_on(kind, rows, points, optimum=None):
    """Retaliation with ``kind`` priced on ``points`` (points, rows) of
    ``rows`` (see ``_retaliation``): whether each row has a candidate among
    its points, each such row's pick (the others' mean nothing) and the
    one-sided optimum it used. Not given, the optimum is computed once a
    row has a candidate; with none, both are None."""
    own, opp, act_uj, bound_uj, loss_i, _, coef = rows
    ok, u_under = _candidate_set(kind, coef, act_uj, bound_uj, own, opp, points)
    found = np.logical_or.reduce(ok, axis=0)
    if optimum is None:
        if not np.count_nonzero(found):
            return found, None, None
        optimum = optimal_infiltration(kind, own, opp)
    return found, _pick_from_set(loss_i, points, ok, u_under, optimum), optimum


def _retaliation(kind, rows):
    """Retaliation with ``kind`` on ``rows``, a (7, n) array of own power,
    opponent's power, actual U_opp, the candidate test's bound, my loss,
    coarse step and the candidate test's coefficient: whether each row's
    candidate set is non-empty, and the power picked where it is (0.0
    elsewhere). A pass of at least WINDOW_ROWS rows prices the windows of
    both tests and the optimum's neighbours, and the whole coarse grid of
    the rows the guard refuses; a smaller pass prices the whole coarse
    grid. Then one refinement pass around each coarse pick."""
    n = rows.shape[1]
    if n < WINDOW_ROWS:
        found, x, optimum = _pick_on(kind, rows, _points(_COARSE, 0.0, rows[0], GRID_POINTS - 1))
    else:
        own, opp, act_uj, bound_uj, loss_i, step, coef = rows
        # the victim's N(x) = v + slope x
        slope = 1.0 - own - opp if kind is AttackKind.FAW else 0.0
        # both tests as Q > 0 (see _windowed): the candidate test with
        # a = (bound - actual) + coef and c = coef, and equal retaliation's
        # u(x) <= loss + ALGEBRAIC_TOL with a = (loss + ALGEBRAIC_TOL) + 1 and c = 1
        windows, sure = _windowed(
            np.stack([(bound_uj - act_uj) + coef, (loss_i + ALGEBRAIC_TOL) + 1.0]),
            np.stack([coef, np.ones_like(coef)]),
            CERT_MARGIN * np.stack([1.0 + np.abs(act_uj) + np.abs(bound_uj),
                                    1.0 + np.abs(loss_i)]),
            slope, opp, own, step)
        optimum = optimal_infiltration(kind, own, opp)
        # the optimum's neighbours: the columns floor(optimum / step) - 2 to + 2
        near = np.clip(np.floor(optimum / step) - WINDOW // 2, 0.0, GRID_POINTS - WINDOW)
        points = np.concatenate([*windows, _points(near + _WINDOW, 0.0, own, GRID_POINTS - 1)])
        found, x, _ = _pick_on(kind, rows, points, optimum)
        refused = np.flatnonzero(~sure)
        if refused.size:
            part = rows[:, refused]
            found[refused], x[refused], _ = _pick_on(
                kind, part, _points(_COARSE, 0.0, part[0], GRID_POINTS - 1), optimum[refused])
    power = np.zeros(n)
    hits = np.count_nonzero(found)
    if not hits:
        return found, power
    if hits < n:
        rows, x, optimum = rows[:, found], x[found], optimum[found]
    own, step = rows[0], rows[5]
    # one refinement pass: a 10x denser grid within one coarse step of x.
    # Python's max(0.0, .), min(alpha, .) and round: no operand is -0.0 or
    # NaN, so np.maximum and np.minimum agree with them, and np.rint rounds
    # half to even like round
    lo = np.maximum(x - step, 0.0)
    hi = np.minimum(x + step, own)
    last = np.maximum(np.rint((hi - lo) / step * 10), 1.0)  # points - 1, whole
    # hi - lo <= 2 * step, so a refined grid has at most 21 points
    more, fine_x, _ = _pick_on(kind, rows, _points(_FINE, lo, hi, last), optimum)
    power[found] = np.where(more, fine_x, x)
    return found, power


def _passes(kind, rows):
    """``_retaliation`` over ``rows`` in the fewest passes of at most
    BATCH_ROWS rows, equal within one, so no short last pass prices the whole grid."""
    n = rows.shape[1]
    if n <= BATCH_ROWS:
        return _retaliation(kind, rows)
    parts = [_retaliation(kind, part)
             for part in np.array_split(rows, -(-n // BATCH_ROWS), axis=1)]
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
    the rows without a FAW candidate, each in passes of BATCH_ROWS or fewer.
    """
    check_weight(k)
    act_ui, act_uj, pre_ui, pre_uj = stage
    rows = np.empty((7, alpha_own.size))
    # the right side of the candidate test, my loss from the deviation, the
    # coarse grid's step and the FAW candidate test's coefficient k
    rows[:6] = (alpha_own, alpha_opp, act_uj, pre_uj + ALGEBRAIC_TOL, act_ui - pre_ui,
                alpha_own / (GRID_POINTS - 1))
    rows[6] = k
    found, faw = _passes(AttackKind.FAW, rows)
    bwh, empty = np.zeros_like(faw), np.zeros_like(found)
    rest = np.flatnonzero(~found)
    if rest.size:  # the BWH fallback, on the rows without a FAW candidate
        if rest.size < found.size:
            rows = rows[:, rest]
        rows[6] = 1.0  # the BWH candidate test's coefficient
        found, bwh[rest] = _passes(AttackKind.BWH, rows)
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
