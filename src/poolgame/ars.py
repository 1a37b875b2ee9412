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
Each set is an interval with closed-form ends. ``_located`` computes them,
with a certificate of one comparison per test that the float test follows
the interval away from its ends. A pass of at least ``WINDOW_ROWS`` rows
prices, per certified row, ``WINDOW`` coarse columns around four points:
the candidate interval's ends, equal retaliation's lower end and the
one-sided optimum. They hold the candidates nearest the optimum and the
smallest candidate passing equal retaliation, so the pick is the whole
grid's, bit for bit. Equal retaliation's upper end needs no window: a
column whose float value flips near it is either above the smallest exact
equal pick, or inside the window of the candidate interval's lower end or
of equal retaliation's. Refused rows (a candidate test flat within
rounding, as at k = 1e-12) and every row of a smaller pass price the whole
coarse grid. Both forks were measured on a 2-vCPU host: windows for every
pass made ``reproduce-table 1`` take 4.9-5.3 ms, not 3.8 ms, and a one-row
``retaliate`` 300-360 us, not 180-200 us (numpy's fixed cost per call); one
pass per batch instead of ``_passes`` of at most ``BATCH_ROWS`` rows raised
the 60-cell FAW sweep's peak RSS by 1.6 MiB.

One pick, ``_pick_on``, prices every set of points from one linspace rule,
``_points``: the candidate test, then the cheaper of equal and selfish
retaliation among the candidates. ``retaliate_cells`` is the one
implementation, an array kernel over N retaliations (rows) given their
powers, both profiles' stage payoffs and ``k``, one weight or one per row,
held as one (7, rows) array, each set of points a (points, rows) array. A
row's result is bit-identical whatever its batch, since windows and the
whole grid give the same bits. ``retaliate`` is the one-row case,
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
#: the certificate's margin relative to a test's inputs: over fifty times its rounding
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


def _located(kind, rows):
    """Both tests' intervals on ``rows`` (see ``_retaliation``): their
    closed-form ends in coarse steps, (2 tests, 2 ends, n), and the rows the
    certificate holds for, (n,).

    A test holds where Q(x) = a (1 - x)(v + x) - c (v + slope x) =
    -a x^2 + beta x + (a - c) v > 0: with a > 0, between its roots, or
    nowhere without them (both ends are then the vertex). A row is certified
    when each test meets one comparison, ``m`` being ``CERT_MARGIN`` times
    the size of the test's inputs:

    * c = 0: the test has one value at every column (``coef * u`` is zero);
    * c v - max(a, 0) > 2 m: it is false at every column (Q <= max(a, 0) - c v);
    * a step^2 > m. Take a > 0: every column at least 2.5 steps from both
      roots (from the vertex, without them) has |Q| >= 6.25 a step^2, which
      clears m, and D(x) <= 1, so the float test there has Q's sign.
    """
    own, opp, act_uj, bound_uj, loss_i, step, coef = rows
    # the candidate test with a = (bound - actual) + coef and c = coef, and
    # equal retaliation's u(x) <= loss + ALGEBRAIC_TOL with
    # a = (loss + ALGEBRAIC_TOL) + 1 and c = 1
    a = np.stack([(bound_uj - act_uj) + coef, (loss_i + ALGEBRAIC_TOL) + 1.0])
    c = np.stack([coef, np.ones_like(coef)])
    m = CERT_MARGIN * np.stack([1.0 + np.abs(act_uj) + np.abs(bound_uj), 1.0 + np.abs(loss_i)])
    # the victim's N(x) = v + slope x, with slope 1 - own - opp for FAW and 0 for BWH
    beta = a * (1.0 - opp) - c * (1.0 - own - opp if kind is AttackKind.FAW else 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(beta * beta + 4.0 * a * ((a - c) * opp), 0.0))
        ends = np.stack([beta - root, beta + root], axis=1) / (2.0 * a * step)[:, None]
    sure = (c == 0.0) | (c * opp - np.maximum(a, 0.0) > 2.0 * m) | (a * step * step > m)
    return ends, np.logical_and.reduce(sure, axis=0)


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
    elsewhere). A pass of at least WINDOW_ROWS rows prices the four windows
    located by ``_located``, and the whole coarse grid of the rows the
    certificate refuses; a smaller pass prices the whole coarse grid. Then
    one refinement pass around each coarse pick."""
    n = rows.shape[1]
    if n < WINDOW_ROWS:
        found, x, optimum = _pick_on(kind, rows, _points(_COARSE, 0.0, rows[0], GRID_POINTS - 1))
    else:
        ends, sure = _located(kind, rows)
        optimum = optimal_infiltration(kind, rows[0], rows[1])
        # WINDOW columns around the candidate interval's ends, equal
        # retaliation's lower end and the optimum; NaN ends (a = 0) and ends
        # off the grid go to its first or last window
        centres = np.stack([*ends[0], ends[1, 0], optimum / rows[5]])
        starts = np.fmin(np.fmax(np.rint(centres) - WINDOW // 2, 0.0), GRID_POINTS - WINDOW)
        points = _points((starts[:, None] + _WINDOW).reshape(-1, n), 0.0, rows[0], GRID_POINTS - 1)
        found, x, _ = _pick_on(kind, rows, points, optimum)
        if not sure.all():  # the refused rows price the whole coarse grid
            found[~sure], x[~sure], _ = _pick_on(kind, rows[:, ~sure], _points(
                _COARSE, 0.0, rows[0, ~sure], GRID_POINTS - 1), optimum[~sure])
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
