import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import retaliation_oracle as oracle
from ars_oracle import ArsState, Standing, ars_step, initial_state
from poolgame import ars
from poolgame.model import (
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    EmptySetUnexpected,
    InvalidScenario,
    PoolGameError,
    ZERO_ACTION,
)
from poolgame.ars import retaliate
from poolgame.engine import two_stage_sweep
from poolgame.payoff import (
    StagePayoffs,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    optimal_infiltration,
    payoff_pair,
)

K = 0.999

# one retaliation of each kind: FAW, and the BWH fallback where the FAW set is empty
FAW_AND_FALLBACK = [
    (0.25, 0.15, Action(0.0, 0.05), AttackKind.FAW),
    (0.15, 0.25, Action(0.1, 0.0), AttackKind.BWH),
]


def candidates(kind, alpha_own, alpha_opp, own_prev=ZERO_ACTION, opp_prev=ZERO_ACTION,
               opp_prescribed=ZERO_ACTION, k=K):
    """The members of the coarse candidate set ``retaliate`` builds for ``kind``."""
    actual = payoff_pair(alpha_own, alpha_opp, own_prev, opp_prev)
    prescribed = payoff_pair(alpha_own, alpha_opp, own_prev, opp_prescribed)
    grid = np.linspace(0.0, alpha_own, ars.GRID_POINTS)
    ok, _ = ars._candidate_set(kind, k if kind is AttackKind.FAW else 1.0, actual.u_j,
                               prescribed.u_j + ALGEBRAIC_TOL, alpha_own, alpha_opp, grid)
    return grid[ok]


def punished_state(opp_action: Action, k=K) -> ArsState:
    """State at the stage after the opponent deviated from mutual cooperation."""
    return ArsState(
        k=k,
        last_own_action=ZERO_ACTION,
        last_own_prescribed=ZERO_ACTION,
        last_opp_action=opp_action,
        last_opp_prescribed=ZERO_ACTION,
    )


class TestArsStep:
    """The per-pair step of ``ars_oracle``, the oracle of ``engine.run_npool``."""

    @pytest.mark.parametrize("k", [-0.2, 1.0, 1.5, float("nan")])
    def test_preference_weight_outside_unit_interval_rejected(self, k):
        with pytest.raises(InvalidScenario):
            initial_state(k)

    def test_start_cooperates(self):
        action, state = ars_step(initial_state(K), 0.2, 0.2)
        assert action.is_zero
        assert state.own_standing is Standing.GOOD

    def test_retaliates_after_opponent_deviation(self):
        # AntPool-sized pool punishing a 25% pool's optimal FAW deviation
        f_star = optimal_faw_infiltration(0.25, 0.15)
        action, state = ars_step(punished_state(Action(f_star, 0.0)), 0.15, 0.25)
        assert state.opp_standing is Standing.BAD
        assert action.kind is AttackKind.BWH
        assert 100 * action.bwh / 0.15 == pytest.approx(14.33, abs=0.5)

    def test_mutual_deviation_resets_to_cooperation(self):
        st0 = ArsState(
            k=K,
            last_own_action=Action(0.01, 0),
            last_own_prescribed=ZERO_ACTION,
            last_opp_action=Action(0.02, 0),
            last_opp_prescribed=ZERO_ACTION,
        )
        action, st1 = ars_step(st0, 0.2, 0.2)
        assert action.is_zero
        assert st1.own_standing is Standing.BAD and st1.opp_standing is Standing.BAD
        action2, st2 = ars_step(st1.with_observed(ZERO_ACTION, ZERO_ACTION), 0.2, 0.2)
        assert action2.is_zero
        assert st2.own_standing is Standing.GOOD and st2.opp_standing is Standing.GOOD

    def test_state_diagram_transitions(self):
        # from mutual cooperation, each class of action pair moves standings
        # to the matching state at the next step
        rt = Action(0.0, 0.01)
        cases = [
            ((ZERO_ACTION, ZERO_ACTION), (Standing.GOOD, Standing.GOOD)),
            ((ZERO_ACTION, Action(0.05, 0)), (Standing.GOOD, Standing.BAD)),
            ((Action(0.05, 0), ZERO_ACTION), (Standing.BAD, Standing.GOOD)),
            ((Action(0.05, 0), rt), (Standing.BAD, Standing.BAD)),
        ]
        for (own, opp), expected in cases:
            _, st0 = ars_step(initial_state(K), 0.2, 0.2)
            _, st1 = ars_step(st0.with_observed(own, opp), 0.2, 0.2)
            assert (st1.own_standing, st1.opp_standing) == expected


class TestInfiltrationSets:
    def test_no_payoff_deviation_includes_zero(self):
        # the opponent's action changed nothing relative to its prescription:
        # zero retaliation qualifies, so Retaliate can stand down
        s = candidates(AttackKind.FAW, 0.2, 0.2)
        assert 0.0 in s
        r = retaliate(0.2, ZERO_ACTION, 0.2, ZERO_ACTION, ZERO_ACTION, K)
        assert r.is_zero

    def test_skipped_retaliation_keeps_zero(self):
        # opponent was prescribed a profitable retaliation but played nothing
        prescribed = Action(optimal_faw_infiltration(0.2, 0.2), 0.0)
        s = candidates(AttackKind.FAW, 0.2, 0.2, opp_prescribed=prescribed)
        assert s.size and s[0] == 0.0

    def test_faw_set_empty_for_small_victim_large_attacker(self):
        f_star = optimal_faw_infiltration(0.45, 0.05)
        dev = Action(f_star, 0.0)
        assert candidates(AttackKind.FAW, 0.05, 0.45, opp_prev=dev).size == 0
        assert candidates(AttackKind.BWH, 0.05, 0.45, opp_prev=dev).size > 0

    def test_bwh_emptiness_raises_at_undeterrable_corner(self):
        # a 0.37 pool cannot out-damage the gain a half-network opponent grabs
        # by counterattacking mid-punishment; the guarantee violation is loud
        with pytest.raises(EmptySetUnexpected):
            retaliate(0.37, Action(0.37, 0.0), 0.5, Action(0.3176, 0.0), ZERO_ACTION, K)

    def test_members_satisfy_defining_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a_own = rng.uniform(0.05, 0.45)
            a_opp = rng.uniform(0.05, min(0.45, 0.9 - a_own))
            dev = Action(rng.uniform(0, a_opp), 0.0)
            u_actual = payoff_pair(a_own, a_opp, ZERO_ACTION, dev).u_j
            u_presc = payoff_pair(a_own, a_opp, ZERO_ACTION, ZERO_ACTION).u_j
            s = candidates(AttackKind.FAW, a_own, a_opp, opp_prev=dev)
            for f in s[:: max(1, s.size // 10)]:
                u_r = payoff_pair(a_own, a_opp, Action(f, 0), ZERO_ACTION).u_j
                assert u_actual + K * u_r < u_presc
            s = candidates(AttackKind.BWH, a_own, a_opp, opp_prev=dev)
            assert s.size > 0
            for b in s[:: max(1, s.size // 10)]:
                u_r = payoff_pair(a_own, a_opp, Action(0, b), ZERO_ACTION).u_j
                assert u_actual + u_r < u_presc


class TestRetaliate:
    def test_forgives_skipped_retaliation(self):
        prescribed = Action(optimal_faw_infiltration(0.2, 0.2), 0.0)
        r = retaliate(0.2, ZERO_ACTION, 0.2, ZERO_ACTION, prescribed, K)
        assert r.is_zero

    def test_small_pool_faw_retaliation_ratio(self):
        # 10% pool vs a 25% pool's optimal BWH deviation: 47.2% FAW retaliation
        b_star = optimal_bwh_infiltration(0.25, 0.10)
        r = retaliate(0.10, ZERO_ACTION, 0.25, Action(0.0, b_star), ZERO_ACTION, K)
        assert r.kind is AttackKind.FAW
        assert 100 * r.faw / 0.10 == pytest.approx(47.2, abs=0.5)

    def test_tiny_pool_bwh_retaliation_ratio(self):
        # 2% pool vs a 25% pool's optimal FAW deviation: 21% BWH retaliation
        f_star = optimal_faw_infiltration(0.25, 0.02)
        r = retaliate(0.02, ZERO_ACTION, 0.25, Action(f_star, 0.0), ZERO_ACTION, K)
        assert r.kind is AttackKind.BWH
        assert 100 * r.bwh / 0.02 == pytest.approx(21.0, abs=0.5)

    def test_credibility_deviation_plus_punishment_is_a_loss(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            a_own = rng.uniform(0.05, 0.45)
            a_opp = rng.uniform(0.05, min(0.45, 0.9 - a_own))
            x = rng.uniform(1e-3, a_opp)
            dev = Action(x, 0.0) if rng.integers(2) else Action(0.0, x)
            r = retaliate(a_own, ZERO_ACTION, a_opp, dev, ZERO_ACTION, K)
            gain = payoff_pair(a_own, a_opp, ZERO_ACTION, dev).u_j
            punished = payoff_pair(a_own, a_opp, r, ZERO_ACTION).u_j
            if r.is_zero:
                assert gain <= 1e-12  # nothing worth punishing
            else:
                coef = K if r.kind is AttackKind.FAW else 1.0
                assert gain + coef * punished < 0

    @given(
        a_own=st.floats(0.05, 0.45),
        a_opp=st.floats(0.05, 0.45),
        ratio=st.floats(0.01, 1.0),
        bwh=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_is_a_valid_action(self, a_own, a_opp, ratio, bwh):
        if a_own + a_opp > 0.9:
            return
        x = ratio * a_opp
        dev = Action(0.0, x) if bwh else Action(x, 0.0)
        r = retaliate(a_own, ZERO_ACTION, a_opp, dev, ZERO_ACTION, K)
        assert r.faw >= 0.0 and r.bwh >= 0.0 and r.faw * r.bwh == 0.0
        assert r.power <= a_own + 1e-12

    def test_deterministic(self):
        dev = Action(0.08, 0.0)
        r1 = retaliate(0.2, ZERO_ACTION, 0.25, dev, ZERO_ACTION, 0.5)
        r2 = retaliate(0.2, ZERO_ACTION, 0.25, dev, ZERO_ACTION, 0.5)
        assert r1 == r2

    @pytest.mark.parametrize("alpha_own, alpha_opp, dev, kind", FAW_AND_FALLBACK)
    def test_stage_payoffs_priced_once(self, alpha_own, alpha_opp, dev, kind, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return payoff_pair(*args, **kwargs)

        monkeypatch.setattr(ars, "payoff_pair", counting)
        r = retaliate(alpha_own, ZERO_ACTION, alpha_opp, dev, ZERO_ACTION, K)
        assert r.kind is kind
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha_own, alpha_opp, dev, kind", FAW_AND_FALLBACK)
    def test_optimum_computed_once(self, alpha_own, alpha_opp, dev, kind, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return optimal_infiltration(*args)

        monkeypatch.setattr(ars, "optimal_infiltration", counting)
        r = retaliate(alpha_own, ZERO_ACTION, alpha_opp, dev, ZERO_ACTION, K)
        assert r.kind is kind
        assert calls == [(kind, alpha_own, alpha_opp)]

    @pytest.mark.parametrize("alpha_own, alpha_opp, dev, kind", FAW_AND_FALLBACK)
    def test_each_grid_priced_once(self, alpha_own, alpha_opp, dev, kind, monkeypatch):
        # one one_sided_victim call per grid pass: the coarse FAW grid, the
        # coarse BWH grid on the fallback, then the refined grid
        calls = []

        def counting(*args):
            calls.append(args[0])
            return one_sided_victim(*args)

        monkeypatch.setattr(ars, "one_sided_victim", counting)
        r = retaliate(alpha_own, ZERO_ACTION, alpha_opp, dev, ZERO_ACTION, K)
        assert r.kind is kind
        tried = [AttackKind.FAW] if kind is AttackKind.FAW else [AttackKind.FAW, AttackKind.BWH]
        assert calls == [*tried, kind]


@st.composite
def retaliation_cases(draw):
    """(alpha_own, own_prev, alpha_opp, opp_prev, opp_prescribed, k) with
    valid powers and actions; half-network pools and nonzero own_prev
    reach the FAW and BWH sets, zero retaliation and empty BWH sets."""
    power = st.one_of(st.floats(1e-3, 0.5), st.just(0.5))
    alpha_own = draw(power)
    alpha_opp = draw(power.filter(lambda a: alpha_own + a < 1.0))

    def action(alpha):
        x = draw(st.floats(0.0, 1.0)) * alpha
        return Action(x, 0.0) if draw(st.booleans()) else Action(0.0, x)

    def maybe(alpha):
        return action(alpha) if draw(st.booleans()) else ZERO_ACTION

    return (alpha_own, maybe(alpha_own), alpha_opp, action(alpha_opp), maybe(alpha_opp),
            draw(st.floats(0.0, 1.0, exclude_max=True)))


def _result(fn, case):
    try:
        r = fn(*case)
    except PoolGameError as exc:
        return type(exc), str(exc)
    return float(r.faw).hex(), float(r.bwh).hex()


class TestRetaliateAgainstOracle:
    @given(case=retaliation_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_cell_equals_the_scalar_grid_search(self, case):
        assert _result(retaliate, case) == _result(oracle.retaliate, case)


#: preference weights: 0, nearly 0, small or any weight in [0, 1)
WEIGHTS = st.one_of(st.sampled_from([0.0, 1e-12, 1e-3]), st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def stage_rows(draw, weights):
    """(alpha_own, alpha_opp, (actual u_i, actual u_j, prescribed u_i,
    prescribed u_j), k) for ``retaliate_cells``, with a preference weight k
    drawn from ``weights``.
    The stage comes from actions, or is set so that the candidate test,
    equal retaliation's test or both change value where the victim's
    payoff crosses its value at an edge point: within a step and a half of
    the payoff's minimum, an interval of at most four grid points, or anywhere.
    Half-network pools put the windows at the grid's end."""
    k = draw(weights)
    power = st.one_of(st.floats(1e-3, 0.5), st.just(0.5))
    alpha_own = draw(power)
    alpha_opp = draw(power.filter(lambda a: alpha_own + a < 1.0))
    if draw(st.booleans()):
        def action(alpha):
            x = draw(st.floats(0.0, 1.0)) * alpha
            return Action(x, 0.0) if draw(st.booleans()) else Action(0.0, x)

        own_prev = action(alpha_own)
        actual = payoff_pair(alpha_own, alpha_opp, own_prev, action(alpha_opp))
        prescribed = payoff_pair(alpha_own, alpha_opp, own_prev, action(alpha_opp))
        return alpha_own, alpha_opp, (*actual, *prescribed), k
    kind = draw(st.sampled_from(AttackKind))
    step = alpha_own / (ars.GRID_POINTS - 1)
    # where the victim's payoff u(x) is least: the FAW optimum, or where
    # (1 - x)(alpha_opp + x) peaks for BWH
    low = (optimal_faw_infiltration(alpha_own, alpha_opp) if kind is AttackKind.FAW
           else (1.0 - alpha_opp) / 2.0)

    def u_at_edge():
        # near the minimum, or anywhere: with k near 0 the candidate test is
        # flat, and its float value flips wherever rounding takes it
        x = draw(st.one_of(st.floats(-1.5, 1.5).map(lambda d: low + d * step),
                           st.floats(0.0, alpha_own)))
        return float(one_sided_victim(kind, alpha_own, alpha_opp, min(max(x, 0.0), alpha_own)))

    pre_ui, pre_uj = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))
    gain, loss = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    if draw(st.booleans()):  # candidates: coef * u(x) < coef * u(edge)
        gain = -(k if kind is AttackKind.FAW else 1.0) * u_at_edge()
    if draw(st.booleans()):  # equal retaliation: u(x) <= u(edge)
        loss = u_at_edge() - ALGEBRAIC_TOL
    return (alpha_own, alpha_opp, (pre_ui + loss, pre_uj + ALGEBRAIC_TOL + gain, pre_ui, pre_uj),
            k)


@st.composite
def stage_batches(draw):
    """(rows, k): rows of ``stage_rows`` that share one k from WEIGHTS."""
    k = draw(WEIGHTS)
    return [row[:3] for row in draw(st.lists(stage_rows(st.just(k)), min_size=1,
                                             max_size=12))], k


def assert_power_columns(faw, bwh, empty):
    """At most one power per row, and none on a row with an empty set."""
    assert (faw * bwh == 0.0).all()
    assert (faw[empty] == 0.0).all() and (bwh[empty] == 0.0).all()


def assert_rows_equal_the_grid_search(rows, k):
    """``retaliate_cells`` on ``rows`` (see ``stage_rows``) against the
    oracle's grid search, row by row: the bits of both power columns and
    the empty set."""
    own, opp, stage = (np.array(z, float) for z in zip(*rows))
    faw, bwh, empty = ars.retaliate_cells(own, opp, stage.T.copy(), k)
    assert_power_columns(faw, bwh, empty)
    for i, (a_own, a_opp, (act_ui, act_uj, pre_ui, pre_uj)) in enumerate(rows):
        want = oracle.retaliation_on_stage(
            a_own, a_opp, (StagePayoffs(act_ui, act_uj), StagePayoffs(pre_ui, pre_uj)), k)
        assert empty[i] == (want is None)
        if want is not None:
            want = Action.of(*want)
            assert (faw[i].hex(), bwh[i].hex()) == (want.faw.hex(), want.bwh.hex())


#: the least normal double
TINY = np.finfo(float).tiny


class TestPointsAgainstNumpy:
    """``_points`` is numpy's ``linspace`` bit for bit on every point set the
    kernel prices. The domain is normal powers, and a normal width hi - lo:
    numpy divides before it multiplies (its ``step == 0`` branch) only where
    ``(hi - lo) / last`` underflows to zero, which takes a subnormal width,
    so only subnormal powers reach it."""

    @given(own=st.floats(TINY, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_windows_and_whole_grid(self, own):
        last = ars.GRID_POINTS - 1
        want = np.linspace(0.0, own, ars.GRID_POINTS)
        # every window start, one per row, as the located windows ask for them
        starts = np.arange(ars.GRID_POINTS - ars.WINDOW + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            windows = ars._points(starts[None, :] + ars._WINDOW, 0.0, np.full(starts.size, own),
                                  last)
            grid = ars._points(ars._COARSE, 0.0, np.array([own]), last)[:, 0]
        columns = starts.astype(int) + np.arange(ars.WINDOW)[:, None]
        assert windows.tobytes() == want[columns].tobytes()
        assert grid.tobytes() == want.tobytes()

    @given(lo=st.one_of(st.just(0.0), st.floats(TINY, 1.0)), hi=st.floats(TINY, 1.0),
           last=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_refined_grids(self, lo, hi, last):
        lo, hi = min(lo, hi), max(lo, hi)
        assume(hi - lo >= TINY)
        want = np.concatenate([np.linspace(lo, hi, last + 1), np.full(20 - last, hi)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ars._points(ars._FINE, np.array([lo]), np.array([hi]), np.array([float(last)]))
        assert got[:, 0].tobytes() == want.tobytes()


class TestWindowsAgainstOracle:
    """Every row of ``retaliate_cells`` priced on its windows equals the grid
    search of the oracle bit for bit, both power columns and empty set alike."""

    @pytest.fixture
    def refused(self, monkeypatch):
        """Every pass prices windows; the number of rows the certificate
        refused in each pass, which price the whole coarse grid."""
        counts = []
        located = ars._located

        def counting(*args):
            ends, sure = located(*args)
            counts.append(np.count_nonzero(~sure))
            return ends, sure

        monkeypatch.setattr(ars, "WINDOW_ROWS", 1)
        monkeypatch.setattr(ars, "_located", counting)
        return counts

    def test_rows_equal_the_grid_search(self, refused):
        @given(batch=stage_batches())
        @settings(max_examples=300, deadline=None)
        def check(batch):
            assert_rows_equal_the_grid_search(*batch)

        check()
        assert sum(refused)

    # k = 1e-12 and a deviation that gains 1e-12 u(x) at some x: the candidate
    # test is flat, and rounding flips its float value away from the roots of
    # its exact form. Windows without the certificate take the BWH fallback on
    # each.
    FLAT = [(0.0163, 0.219, 0.19700000100000029, 0.197),
            (0.0029, 0.261, -0.023999998999999998, -0.024),
            (0.0082, 0.378, 0.11000000100000003, 0.11),
            (0.0104, 0.371, -0.18499999899999997, -0.185),
            (0.0297, 0.386, 0.13600000100000054, 0.136),
            (0.0149, 0.176, -0.11199999899999971, -0.112)]

    def test_flat_candidate_tests_are_refused(self, refused):
        assert_rows_equal_the_grid_search(
            [(own, opp, (0.05, act_uj, 0.0, pre_uj)) for own, opp, act_uj, pre_uj in self.FLAT],
            1e-12)
        assert sum(refused)


class TestCertificate:
    """Where ``_located`` certifies a row, the float candidate test and the
    float equal-retaliation test hold on a coarse column at least 2.5 steps
    from both ends of the test's interval (every column outside the windows
    is one) exactly when the column lies between the ends."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Every pass prices windows; each pass's kind, rows and what
        ``_located`` returned for them."""
        seen = []
        located = ars._located

        def recording(kind, rows):
            ends, sure = located(kind, rows)
            seen.append((kind, rows.copy(), ends, sure))
            return ends, sure

        monkeypatch.setattr(ars, "WINDOW_ROWS", 1)
        monkeypatch.setattr(ars, "_located", recording)
        return seen

    def test_float_tests_follow_the_intervals(self, passes):
        columns = np.arange(float(ars.GRID_POINTS))[:, None]
        certified = 0

        # rows are priced one by one, so a short batch with one k per row
        # tests as much per row as a long one, at a fraction of the draws
        @given(rows=st.lists(stage_rows(WEIGHTS), min_size=1, max_size=4))
        @settings(max_examples=300, deadline=None)
        def check(rows):
            nonlocal certified
            passes.clear()
            own, opp, stage, ks = (np.array(z, float) for z in zip(*rows))
            ars.retaliate_cells(own, opp, stage.T.copy(), ks)
            for kind, rows, ends, sure in passes:
                own, opp, act_uj, bound_uj, loss_i, _, coef = rows[:, sure]
                u = one_sided_victim(kind, own, opp, np.linspace(0.0, own, ars.GRID_POINTS))
                tests = (act_uj + coef * u < bound_uj, loss_i >= u - ALGEBRAIC_TOL)
                for held, (lo, hi) in zip(tests, ends[:, :, sure]):
                    # NaN ends (a = 0) are far from every column
                    far = ~(np.abs(columns - lo) < 2.5) & ~(np.abs(columns - hi) < 2.5)
                    inside = (lo <= columns) & (columns <= hi)
                    assert (held[far] == inside[far]).all()
                certified += np.count_nonzero(sure)

        check()
        assert certified


def test_windowed_pass_prices_its_coarse_pick_once(monkeypatch):
    # a pass of WINDOW_ROWS copies of a FAW retaliation the certificate holds
    # for: one one_sided_victim call prices the four windows (the candidate
    # interval's ends, equal retaliation's lower end and the optimum), one
    # more the refined grid
    calls, sure = [], []
    located = ars._located

    def counting_located(*args):
        ends, ok = located(*args)
        sure.append(bool(ok.all()))
        return ends, ok

    def counting(*args):
        calls.append((args[0], args[3].shape))
        return one_sided_victim(*args)

    monkeypatch.setattr(ars, "_located", counting_located)
    monkeypatch.setattr(ars, "one_sided_victim", counting)
    alpha_own, alpha_opp, dev, _ = FAW_AND_FALLBACK[0]
    actual = payoff_pair(alpha_own, alpha_opp, ZERO_ACTION, dev)
    prescribed = payoff_pair(alpha_own, alpha_opp, ZERO_ACTION, ZERO_ACTION)
    n = ars.WINDOW_ROWS
    stage = np.repeat([[actual.u_i], [actual.u_j], [prescribed.u_i], [prescribed.u_j]], n, axis=1)
    faw, bwh, empty = ars.retaliate_cells(np.full(n, alpha_own), np.full(n, alpha_opp), stage, K)
    assert sure == [True] and (faw > 0.0).all()
    assert calls == [(AttackKind.FAW, (4 * ars.WINDOW, n)), (AttackKind.FAW, (21, n))]


def test_long_batch_runs_in_equal_passes(monkeypatch):
    # BATCH_ROWS + 1 rows run as two passes of about half each, both priced
    # on windows, not as a full pass and a one-row pass on the whole grid
    passes = []
    retaliation = ars._retaliation

    def counting(kind, rows):
        passes.append(rows.shape[1])
        return retaliation(kind, rows)

    monkeypatch.setattr(ars, "_retaliation", counting)
    alpha_own, alpha_opp, dev, _ = FAW_AND_FALLBACK[0]
    actual = payoff_pair(alpha_own, alpha_opp, ZERO_ACTION, dev)
    prescribed = payoff_pair(alpha_own, alpha_opp, ZERO_ACTION, ZERO_ACTION)
    n = ars.BATCH_ROWS + 1
    stage = np.repeat([[actual.u_i], [actual.u_j], [prescribed.u_i], [prescribed.u_j]], n, axis=1)
    faw, bwh, empty = ars.retaliate_cells(np.full(n, alpha_own), np.full(n, alpha_opp), stage, K)
    assert sorted(passes) == [n // 2, n - n // 2] and min(passes) >= ars.WINDOW_ROWS
    one_row = retaliate(alpha_own, ZERO_ACTION, alpha_opp, dev, ZERO_ACTION, K)
    assert set(faw.tolist()) == {one_row.faw} and not bwh.any() and not empty.any()


BAD_WEIGHTS = [-0.5, 1.0, 1.5, float("nan")]


class TestWeightRefused:
    """Every retaliation refuses a preference weight outside [0, 1), with
    ``model.check_weight``'s message, whatever the rows."""

    @pytest.mark.parametrize("k", [*BAD_WEIGHTS, "0.5", None])
    def test_retaliate(self, k):
        # "0.5" and None raised TypeError from the comparison
        with pytest.raises(InvalidScenario) as err:
            retaliate(0.25, ZERO_ACTION, 0.15, Action(0.05, 0.0), ZERO_ACTION, k)
        assert str(err.value) == f"k must be in [0, 1), got {k!r}"

    @pytest.mark.parametrize("k", BAD_WEIGHTS)
    def test_retaliate_cells_with_one_weight(self, k):
        with pytest.raises(InvalidScenario, match=rf"^k must be in \[0, 1\), got {k}$"):
            ars.retaliate_cells(np.array([0.25, 0.1]), np.array([0.15, 0.2]),
                                np.zeros((4, 2)), k)

    @pytest.mark.parametrize("k", BAD_WEIGHTS)
    def test_retaliate_cells_with_one_bad_row(self, k):
        with pytest.raises(InvalidScenario, match=rf"^k must be in \[0, 1\), got {k}$"):
            ars.retaliate_cells(np.full(3, 0.25), np.full(3, 0.15), np.zeros((4, 3)),
                                np.array([0.5, k, 0.999]))


class TestPerRowWeight:
    @given(rows=st.lists(stage_rows(WEIGHTS), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_one_row_calls(self, rows):
        # retaliate_cells with one k per row, priced on the whole grid and
        # with windows forced, against one-row calls on the whole grid with
        # each row's own k: the bits of both power columns and empty set
        own, opp, stage, ks = (np.array(z, float) for z in zip(*rows))
        stage = stage.T.copy()
        singles = [ars.retaliate_cells(own[i:i + 1], opp[i:i + 1], stage[:, i:i + 1], k)
                   for i, k in enumerate(ks)]
        want = [(f[0].hex(), b[0].hex(), bool(e[0])) for f, b, e in singles]
        saved = ars.WINDOW_ROWS
        for window_rows in (saved, 1):
            ars.WINDOW_ROWS = window_rows
            try:
                faw, bwh, empty = ars.retaliate_cells(own, opp, stage, np.array(ks))
            finally:
                ars.WINDOW_ROWS = saved
            assert_power_columns(faw, bwh, empty)
            assert list(zip(map(float.hex, faw.tolist()), map(float.hex, bwh.tolist()),
                            empty.tolist())) == want


def test_sixty_cell_sweep_prices_few_elements(monkeypatch):
    # the benchmark's 60x60 FAW sweep; pricing every coarse column took 1,200,078
    elements = []

    def counting(*args):
        u = one_sided_victim(*args)
        elements.append(u.size)
        return u

    monkeypatch.setattr(ars, "one_sided_victim", counting)
    two_stage_sweep(np.linspace(0.01, 0.5, 60), AttackKind.FAW)
    assert sum(elements) <= 300_000
