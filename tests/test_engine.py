import hashlib
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ars_oracle
import npool_oracle
import retaliation_oracle as oracle
from poolgame.model import (
    Action,
    AttackKind,
    EmptySetUnexpected,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    NonConvergence,
    PoolGameError,
    ZERO_ACTION,
    check_powers,
)
from poolgame import ars, cli, engine, payoff
from poolgame.payoff import payoff_pair
from poolgame.engine import (
    AlwaysHonest,
    ArsAgent,
    History,
    OptimalOneShotAttacker,
    PairwiseActionMatrix,
    ScriptedDeviator,
    StageRecord,
    _npool_direct_revenue,
    closed_pool_scenario,
    discounted_payoff,
    npool_stage_payoffs,
    npool_stage_payoffs_mc,
    optimal_simultaneous_attack,
    run_npool,
    two_stage_ratio_sweep,
    two_stage_sweep,
)


def config(*powers, **kw):
    return GameConfig(powers, **kw)


def pair(record):
    """The two pools' actions of a two-pool stage record."""
    return record.actions.action(0, 1), record.actions.action(1, 0)


class TestRunRepeated:
    def test_mutual_cooperation_stays_silent(self):
        h = run_npool(config(0.25, 0.15), (ArsAgent(), ArsAgent()), 50)
        assert all(u == 0.0 for r in h.records for u in r.payoffs)
        assert all(a.is_zero for r in h.records for a in pair(r))

    def test_optimal_faw_attacker_loses_against_antpool_sized_victim(self):
        h = run_npool(
            config(0.25, 0.15), (OptimalOneShotAttacker(AttackKind.FAW), ArsAgent()), 2
        )
        total = sum(r.payoffs[0] for r in h.records)
        assert 100 * total == pytest.approx(-1.89, abs=0.1)

    def test_optimal_bwh_attacker_loses_against_viabtc_sized_victim(self):
        h = run_npool(
            config(0.25, 0.10), (OptimalOneShotAttacker(AttackKind.BWH), ArsAgent()), 2
        )
        total = sum(r.payoffs[0] for r in h.records)
        assert 100 * total == pytest.approx(-0.15, abs=0.1)

    def test_recovery_after_injected_deviation(self):
        h = run_npool(
            config(0.2, 0.2),
            (ScriptedDeviator({3: {1: Action(0.05, 0.0)}}), ArsAgent()),
            8,
        )
        assert not pair(h.records[4])[1].is_zero  # retaliation lands at t+1
        for r in h.records[5:]:
            assert all(a.is_zero for a in pair(r))

    def test_always_honest_never_retaliates(self):
        h = run_npool(
            config(0.2, 0.2),
            (ScriptedDeviator({0: {1: Action(0.05, 0.0)}}), AlwaysHonest()),
            3,
        )
        assert all(pair(r)[1].is_zero for r in h.records)

    def test_history_payoffs_match_recorded_actions(self):
        h = run_npool(
            config(0.3, 0.2), (OptimalOneShotAttacker(AttackKind.FAW), ArsAgent()), 4
        )
        for r in h.records:
            again = payoff_pair(0.3, 0.2, *pair(r))
            assert (again.u_i, again.u_j) == r.payoffs


class TestDiscountedPayoff:
    def test_all_zero(self):
        h = run_npool(config(0.2, 0.2), (ArsAgent(), ArsAgent()), 10)
        assert discounted_payoff(h, 0) == 0.0

    def test_first_stage_undiscounted(self):
        h = History((StageRecord(0, PairwiseActionMatrix.zeros(2), (0.42, 0.0)),), 0.3)
        assert discounted_payoff(h, 0) == pytest.approx(0.42)

    @given(u=st.floats(-1, 1), delta=st.floats(0.05, 0.95), stages=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_constant_stream_matches_geometric_sum(self, u, delta, stages):
        recs = tuple(
            StageRecord(t, PairwiseActionMatrix.zeros(2), (u, 0.0)) for t in range(stages)
        )
        expect = u * (1 - delta**stages) / (1 - delta)
        assert discounted_payoff(History(recs, delta), 0) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestSweeps:
    def test_two_stage_sweep_attacker_always_loses(self):
        grid = np.linspace(0.02, 0.5, 12)
        for kind in (AttackKind.FAW, AttackKind.BWH):
            table = two_stage_sweep(grid, kind)
            assert table.error and not any(table.error)
            assert (table.u1_avg < 0).all()

    def test_faw_infeasible_region_covered_by_bwh(self):
        table = two_stage_sweep(np.linspace(0.02, 0.5, 12), AttackKind.FAW)
        empty = table.ip_faw_empty
        assert empty.any(), "some cells must force BWH retaliation"
        assert (table.r2_bwh[empty] > 0).all() and (table.r2_faw[empty] == 0).all()

    def test_victim_loss_monotonicity_sanity_reported(self):
        # sanity scan, not a hard gate: at fixed victim size the victim's
        # stage-0 loss under the attacker's optimal FAW deviation should
        # mostly grow with attacker size; exceptions are printed for review
        from poolgame.payoff import optimal_faw_infiltration

        alpha_2 = 0.15
        losses = []
        for alpha_1 in np.linspace(0.05, 0.5, 15):
            f = optimal_faw_infiltration(alpha_1, alpha_2)
            losses.append(-payoff_pair(alpha_1, alpha_2, Action(f, 0.0), ZERO_ACTION).u_j)
        breaks = [i for i in range(1, len(losses)) if losses[i] < losses[i - 1] - 1e-12]
        if breaks:
            print(f"victim-loss monotonicity exceptions at steps {breaks}: {losses}")
        assert losses[-1] > losses[0]  # grossly increasing even if not monotone

    def test_ratio_sweep_fixed_attacker(self):
        table = two_stage_ratio_sweep(
            np.linspace(0.1, 1.0, 6), np.linspace(0.05, 0.45, 6), AttackKind.FAW
        )
        assert not any(table.error)
        # full-power infiltration is exactly payoff-neutral (no gain, no harm),
        # so nothing to retaliate against; every real attack ratio loses
        full = table.attack_ratio == 1.0
        assert (abs(table.u1_avg[full]) < 1e-12).all()
        assert (table.u1_avg[~full] < 0).all()


# powers every drawn grid contains: with 0 < k < 1 the cells among them
# retaliate with FAW, fall back to BWH and put a pool at half the network;
# 1e-10 makes the error rows of a degenerate stage denominator
ANCHORS = (0.02, 0.25, 0.5)
TINY = 1e-10


def _rows(table):
    """A sweep table's rows as tuples of Python values, in ``SweepCell``'s
    field order; the flag column must have dtype bool."""
    assert table.ip_faw_empty.dtype == bool
    columns = (table.alpha_1, table.alpha_2, table.attack_ratio, table.r2_faw,
               table.r2_bwh, table.u1_avg, table.u2_avg, table.ip_faw_empty)
    return list(zip(*(c.tolist() for c in columns), table.error))


def _bits(rows):
    """Every field of every row, floats by their bits."""
    return [tuple(float(v).hex() if isinstance(v, float) else v for v in row)
            for row in rows]


def _outcome(cell):
    if cell.error:
        return "error"
    if cell.r2_faw > 0:
        return "faw"
    return "bwh" if cell.ip_faw_empty else "zero"


powers = st.lists(st.floats(1e-3, 0.5), max_size=4)
tiny = st.sampled_from([(), (TINY,)])


class TestBatchedSweepsAgainstOracle:
    """The batched sweeps equal the per-cell oracle row for row, bit for bit,
    and the CLI's rows from their columns equal the oracle's per-cell rows."""

    def assert_same(self, table, cells):
        assert cli._sweep_rows(table) == list(oracle.sweep_csv_rows(cells))
        assert _bits(_rows(table)) == _bits(map(astuple, cells))

    @given(grid=powers, extra=tiny, kind=st.sampled_from(AttackKind),
           k=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_size_sweep(self, grid, extra, kind, k):
        grid = np.array(sorted({*grid, *ANCHORS, *extra}))
        self.assert_same(two_stage_sweep(grid, kind, k), oracle.two_stage_sweep(grid, kind, k))

    @given(ratios=st.lists(st.floats(0.0, 1.0), max_size=3), grid=powers, extra=tiny,
           alpha_1=st.one_of(st.floats(1e-3, 0.5), st.sampled_from([0.5, TINY])),
           kind=st.sampled_from(AttackKind), k=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_ratio_sweep(self, ratios, grid, extra, alpha_1, kind, k):
        ratios = np.array([0.0, *ratios, 1.0])
        grid = np.array(sorted({*grid, *ANCHORS, *extra}))
        self.assert_same(two_stage_ratio_sweep(ratios, grid, kind, alpha_1, k),
                         oracle.two_stage_ratio_sweep(ratios, grid, kind, alpha_1, k))

    def test_anchor_cells_reach_every_branch(self):
        grid = np.array([TINY, *ANCHORS])
        seen = set()
        for kind in AttackKind:
            cells = oracle.two_stage_sweep(grid, kind, 0.5)
            cells += oracle.two_stage_ratio_sweep(np.array([0.0, 0.5]), grid, kind, 0.25, 0.5)
            seen |= {_outcome(c) for c in cells}
            assert any(c.alpha_1 == 0.5 or c.alpha_2 == 0.5 for c in cells if not c.error)
        assert seen == {"faw", "bwh", "zero", "error"}

    def test_batches_do_not_change_rows(self, monkeypatch):
        from poolgame import ars

        grid = np.linspace(0.01, 0.5, 12)
        whole = two_stage_sweep(grid, AttackKind.BWH, 0.7)
        monkeypatch.setattr(ars, "BATCH_ROWS", 7)
        assert _bits(_rows(two_stage_sweep(grid, AttackKind.BWH, 0.7))) == _bits(_rows(whole))


class TestSweepInputs:
    def test_invalid_power_raises_the_first_cells_error(self):
        grid = [0.2, 0.6, -0.1]
        with pytest.raises(InvalidPowers) as batched:
            two_stage_sweep(grid, AttackKind.FAW)
        with pytest.raises(InvalidPowers) as per_cell:
            oracle.two_stage_sweep(grid, AttackKind.FAW, 0.999)
        assert str(batched.value) == str(per_cell.value)

    @pytest.mark.parametrize("ratios, alpha_2_grid, alpha_1, error", [
        ([0.5, 1.5], [0.2], 0.2, InvalidAction),
        ([0.5], [0.2, 0.6], 0.2, InvalidPowers),
        ([0.5], [0.2], 0.0, InvalidPowers),
        ([0.5], [0.2], float("nan"), InvalidPowers),
    ])
    def test_ratio_sweep_refuses_invalid_cells(self, ratios, alpha_2_grid, alpha_1, error):
        # the per-cell sweep wrote such cells as error rows (alpha_1 = 0
        # raised ZeroDivisionError); invalid input is now refused whole
        with pytest.raises(error):
            two_stage_ratio_sweep(ratios, alpha_2_grid, AttackKind.FAW, alpha_1)


class TestNPool:
    def test_matrix_budget_validation(self):
        m = PairwiseActionMatrix.zeros(3)
        m.faw[0, 1] = 0.2
        m.faw[0, 2] = 0.15
        with pytest.raises(InvalidAction, match=r"^pool 0's outgoing infiltration 0.35 exceeds "
                                                r"its power 0.3$"):
            m.validate([0.3, 0.3, 0.3])

    def test_matrix_rejects_nan(self):
        m = PairwiseActionMatrix.zeros(3)
        m.faw[0, 1] = np.nan
        with pytest.raises(InvalidAction):
            m.validate([0.3, 0.3, 0.3])

    def test_reduces_to_two_pool_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a1, a2 = rng.uniform(0.05, 0.45, 2)
            if a1 + a2 > 0.9:
                continue
            m = PairwiseActionMatrix.zeros(2)
            x1, x2 = rng.uniform(0, a1 * 0.9), rng.uniform(0, a2 * 0.9)
            if rng.integers(2):
                m.faw[0, 1] = x1
            else:
                m.bwh[0, 1] = x1
            if rng.integers(2):
                m.faw[1, 0] = x2
            else:
                m.bwh[1, 0] = x2
            u = npool_stage_payoffs([a1, a2], m)
            ref = payoff_pair(a1, a2, m.action(0, 1), m.action(1, 0))
            assert u[0] == pytest.approx(ref.u_i, abs=1e-12)
            assert u[1] == pytest.approx(ref.u_j, abs=1e-12)

    def test_two_pool_fast_path_matches_enumeration(self):
        # closed-form attack and payoff_pair against the n-pool route:
        # Newton attack and enumerated stage payoffs
        cfg = config(0.25, 0.15)
        h2 = run_npool(cfg, (OptimalOneShotAttacker(AttackKind.FAW), ArsAgent()), 2)
        xs = optimal_simultaneous_attack(cfg.powers, 0, AttackKind.FAW)
        hn = run_npool(cfg, [ScriptedDeviator({0: {1: Action(xs[1], 0.0)}}), ArsAgent()], 2)
        for r2, rn in zip(h2.records, hn.records):
            enumerated = npool_stage_payoffs(cfg.powers, rn.actions)
            assert r2.payoffs[0] == pytest.approx(enumerated[0], abs=2e-4)
            assert r2.payoffs[1] == pytest.approx(enumerated[1], abs=2e-4)

    def test_all_ars_is_silent(self):
        cfg = config(0.25, 0.15, 0.10, 0.035, 0.02)
        h = run_npool(cfg, [ArsAgent() for _ in range(5)], 3)
        assert all(u == 0.0 for r in h.records for u in r.payoffs)

    def test_scripted_deviation_in_three_pools(self):
        # pool 0 deviates against pool 1 only: pool 1 alone retaliates, once
        t = 2
        cfg = config(0.25, 0.2, 0.15)
        deviator = ScriptedDeviator({t: {1: Action(0.05, 0.0)}})
        h = run_npool(cfg, [deviator, ArsAgent(), ArsAgent()], t + 5)

        def active(r):
            return {(int(i), int(j)) for i, j in zip(*np.nonzero(r.actions.faw + r.actions.bwh))}

        assert all(not active(r) for r in h.records[:t])
        assert active(h.records[t]) == {(0, 1)}
        assert active(h.records[t + 1]) == {(1, 0)}
        assert all(not active(r) for r in h.records[t + 2:])
        assert h.records[t + 1].payoffs[0] < 0.0

    def test_rejects_single_pool(self):
        with pytest.raises(InvalidScenario):
            run_npool(config(0.25), [ArsAgent()], 1)

    def test_mc_agrees_with_exact(self):
        m = PairwiseActionMatrix.zeros(3)
        m.faw[0, 1] = 0.05
        m.faw[0, 2] = 0.03
        m.bwh[1, 0] = 0.02
        alphas = [0.25, 0.2, 0.15]
        exact = npool_stage_payoffs(alphas, m)
        mc, se = npool_stage_payoffs_mc(alphas, m, rounds=400_000, seed=9)
        assert np.all(np.abs(mc - exact) < 3.5 * np.maximum(se, 1e-9))

    def test_mc_accepts_a_pool_infiltrating_all_its_power(self):
        # 0.3 - (0.1 + 0.2) leaves the attacker's home power at -5.6e-17
        m = PairwiseActionMatrix.zeros(3)
        m.faw[0, 1] = 0.1
        m.faw[0, 2] = 0.2
        alphas = [0.3, 0.2, 0.2]
        exact = npool_stage_payoffs(alphas, m)
        mc, se = npool_stage_payoffs_mc(alphas, m, rounds=200_000, seed=4)
        assert np.all(np.abs(mc - exact) < 4 * se)

    def test_table3_faw_attack_reproduction_exact(self):
        cfg = config(0.25, 0.15, 0.10, 0.035, 0.02)
        strategies = [OptimalOneShotAttacker(AttackKind.FAW)] + [
            ArsAgent() for _ in range(4)
        ]
        h = run_npool(cfg, strategies, 2)
        m0 = h.records[0].actions
        ratios = [100 * m0.action(0, j).power / 0.25 for j in range(1, 5)]
        for got, want in zip(ratios, (22.7, 15.1, 5.3, 3.0)):
            assert got == pytest.approx(want, abs=1.0)
        total = 100 * sum(r.payoffs[0] for r in h.records)
        assert total == pytest.approx(-5.4, abs=0.2)


@st.composite
def npool_profiles(draw, n_min=2, n_max=5, max_faw_flags=6):
    """Pool powers (each in [0.01, 0.5], total at most 0.95) and an attack
    matrix within every pool's budget; each ordered pair attacks with FAW,
    BWH or not at all. FAW flags beyond ``max_faw_flags`` become BWH, which
    keeps the exact set-weight sum (2^flags sets) small."""
    n = draw(st.integers(n_min, n_max))
    alphas = np.array(draw(st.lists(st.floats(0.01, 0.5), min_size=n, max_size=n)))
    if alphas.sum() > 0.95:
        alphas *= 0.95 / alphas.sum()
    m = PairwiseActionMatrix.zeros(n)
    flags = 0
    for i in range(n):
        kinds = draw(st.lists(st.sampled_from([None, AttackKind.FAW, AttackKind.BWH]),
                              min_size=n, max_size=n))
        shares = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        total = max(1.0, sum(x for j, x in enumerate(shares) if j != i and kinds[j]))
        for j in range(n):
            if j == i or kinds[j] is None:
                continue
            x = alphas[i] * shares[j] / total
            if kinds[j] is AttackKind.FAW and flags < max_faw_flags:
                m.faw[i, j] = x
                flags += 1
            else:
                m.bwh[i, j] = x
    return alphas, m


@st.composite
def npool_games(draw):
    """(config, strategies, stages, payoff_rounds): n = 2 to 6 pools holding
    at most 0.9 together, each with its own k and one of the four strategy
    classes (at most two one-shot attackers, so that a stage has few FAW
    flags); scripted deviations fit their pool's budget on their own. Stage
    payoffs are exact or 200-round Monte-Carlo estimates."""
    n = draw(st.integers(2, 6))
    powers = [draw(st.floats(0.01, 0.9 / n)) for _ in range(n)]
    stages = draw(st.integers(1, 4))
    strategies = []
    for i, alpha in enumerate(powers):
        k = draw(st.floats(0.0, 1.0, exclude_max=True))
        kind = draw(st.sampled_from(AttackKind))
        attackers = sum(isinstance(s, OptimalOneShotAttacker) for s in strategies)
        choice = draw(st.sampled_from(["ars", "scripted", "honest"]
                                      + ["one-shot"] * (attackers < 2)))
        if choice == "scripted":
            overrides = {}
            for _ in range(draw(st.integers(1, 3))):
                victim = draw(st.sampled_from([j for j in range(n) if j != i]))
                x = draw(st.floats(0.0, 1.0)) * alpha / (n - 1)
                overrides.setdefault(draw(st.integers(0, stages - 1)), {})[victim] = (
                    Action.of(draw(st.sampled_from(AttackKind)), x))
            strategies.append(ScriptedDeviator(overrides, k=k))
        else:
            strategies.append({"ars": ArsAgent(k), "honest": AlwaysHonest(k),
                               "one-shot": OptimalOneShotAttacker(kind, k)}[choice])
    game = config(*powers, seed=draw(st.integers(0, 1000)))
    return game, strategies, stages, draw(st.sampled_from([None, 200]))


def history_bits(run, game):
    """A run's ``History`` as exact bits, or its error's class and message."""
    try:
        h = run(*game)
    except PoolGameError as exc:
        return type(exc), str(exc)
    return h.discount, [(r.stage, r.actions.faw.tobytes(), r.actions.bwh.tobytes(),
                         [u.hex() for u in r.payoffs]) for r in h.records]


class TestRunnerAgainstOracle:
    """``run_npool`` against the per-pair runner of ``ars_oracle``."""

    @given(game=npool_games())
    @settings(max_examples=300, deadline=None)
    def test_same_history_bits(self, game):
        assert history_bits(run_npool, game) == history_bits(ars_oracle.run_npool, game)

    @pytest.mark.parametrize("k", [-0.2, 1.0, 1.5, float("nan")])
    def test_preference_weight_outside_unit_interval_rejected(self, k):
        game = (config(0.2, 0.2, 0.1), [ArsAgent(), ArsAgent(k), ArsAgent(2.0)], 2)
        with pytest.raises(InvalidScenario, match=r"^k must be in \[0, 1\), got "):
            run_npool(*game)
        assert history_bits(run_npool, game) == history_bits(ars_oracle.run_npool, game)

    def test_first_empty_set_in_pair_order_raises(self, monkeypatch):
        # the retaliations of the pool with power 0.15 come out empty; the
        # first in the per-pair loop's order is pool 0's judgement of pool
        # 2's retaliation, before pool 2's own rows
        cells = ars.retaliate_cells

        def emptied(alpha_own, *args):
            faw, power, empty = cells(alpha_own, *args)
            return faw, power, empty | (alpha_own == 0.15)

        monkeypatch.setattr(ars, "retaliate_cells", emptied)
        monkeypatch.setattr(engine, "retaliate_cells", emptied)
        game = (config(0.25, 0.2, 0.15),
                [OptimalOneShotAttacker(AttackKind.FAW), ArsAgent(), ArsAgent()], 2)
        error = history_bits(run_npool, game)
        assert error == history_bits(ars_oracle.run_npool, game)
        assert error[0] is EmptySetUnexpected
        assert error[1].startswith("BWH candidate set empty for alpha_own=0.15, alpha_opp=0.25,")

    def test_one_retaliation_batch_per_stage(self, monkeypatch):
        # 16 equal pools, one BWH attacker: 15 retaliations and the attacker's
        # 15 judgements of them share one call at stage 1
        rows = []
        cells = engine.retaliate_cells

        def counting(alpha_own, *args):
            rows.append(alpha_own.size)
            return cells(alpha_own, *args)

        monkeypatch.setattr(engine, "retaliate_cells", counting)
        strategies = [OptimalOneShotAttacker(AttackKind.BWH)] + [ArsAgent() for _ in range(15)]
        run_npool(config(*[0.06] * 16), strategies, 10)
        assert rows == [30]


class TestNPoolProperties:
    """Exact invariants of the n-pool stage payoffs. The tolerance is 1e-12;
    over 20,000 random profiles the largest deviation measured was 4.4e-16
    for conservation and 1.3e-14 against payoff_pair."""

    @given(npool_profiles())
    @settings(max_examples=150, deadline=None)
    def test_revenue_is_conserved(self, profile):
        # every block reward ends up with some pool's members:
        # sum_i alpha_i (U_i + 1) = sum_i R_i
        alphas, m = profile
        u = npool_stage_payoffs(alphas, m)
        revenue = _npool_direct_revenue(alphas, m)
        assert np.sum(alphas * (u + 1.0)) == pytest.approx(revenue.sum(), abs=1e-12)

    @given(npool_profiles())
    @settings(max_examples=150, deadline=None)
    def test_no_pool_earns_below_nothing(self, profile):
        alphas, m = profile
        assert np.all(npool_stage_payoffs(alphas, m) >= -1.0)

    @given(npool_profiles(n_min=2, n_max=2))
    @settings(max_examples=200, deadline=None)
    def test_two_pools_match_the_closed_form(self, profile):
        alphas, m = profile
        u = npool_stage_payoffs(alphas, m)
        ref = payoff_pair(alphas[0], alphas[1], m.action(0, 1), m.action(1, 0))
        assert u[0] == pytest.approx(ref.u_i, abs=1e-12)
        assert u[1] == pytest.approx(ref.u_j, abs=1e-12)


TABLE3_POWERS = [0.25, 0.15, 0.10, 0.035, 0.02]


def _flags_into_few_victims():
    # three flags into pool 0, two into pool 1, and a BWH detachment
    m = PairwiseActionMatrix.zeros(4)
    m.faw[1, 0], m.faw[2, 0], m.faw[3, 0] = 0.05, 0.04, 0.03
    m.faw[2, 1], m.faw[3, 1], m.bwh[0, 1] = 0.02, 0.01, 0.06
    return np.array([0.3, 0.25, 0.2, 0.1]), m


def _every_pair(alphas, n_flags):
    """Pool powers and the FAW flags of the first ``n_flags`` ordered pairs
    of distinct pools, row-major, each a share of the attacker's power that
    grows with the host."""
    alphas = np.array(alphas)
    m = PairwiseActionMatrix.zeros(alphas.size)
    pairs = [(i, j) for i in range(alphas.size) for j in range(alphas.size) if i != j]
    for i, j in pairs[:n_flags]:
        m.faw[i, j] = alphas[i] * (0.05 + 0.02 * j)
    return alphas, m


class TestArrayRevenueAgainstOracle:
    """The set-weight sum of the exact revenue against the loop enumeration
    it replaced and against a quadrature of the same revenue
    (tests/npool_oracle.py), within 1e-13 of both. At twelve flags the loop
    itself is 1.0e-13 from the quadrature and the sum 2.4e-15, so the
    larger cases take the quadrature."""

    @given(npool_profiles(n_min=3, max_faw_flags=8))
    @example(_flags_into_few_victims())
    @settings(max_examples=300, deadline=None)
    def test_within_1e13_of_the_loop(self, profile):
        alphas, m = profile
        np.testing.assert_allclose(_npool_direct_revenue(alphas, m),
                                   npool_oracle.npool_direct_revenue(alphas, m),
                                   rtol=0, atol=1e-13)

    def test_every_pair_of_four_pools(self):
        alphas, m = _every_pair([0.3, 0.25, 0.2, 0.15], 12)
        np.testing.assert_allclose(_npool_direct_revenue(alphas, m),
                                   npool_oracle.npool_direct_revenue_quadrature(alphas, m),
                                   rtol=0, atol=1e-13)

    def test_sixteen_flags(self):
        # FAW_FLAG_CAP flags, too many for the loop
        alphas, m = _every_pair([0.25, 0.2, 0.15, 0.1, 0.05], engine.FAW_FLAG_CAP)
        np.testing.assert_allclose(_npool_direct_revenue(alphas, m),
                                   npool_oracle.npool_direct_revenue_quadrature(alphas, m),
                                   rtol=0, atol=1e-13)

    def test_seventeen_flags_refused_before_any_table(self, monkeypatch):
        def no_tables(n_flags):
            raise AssertionError(f"tables built for {n_flags} flags")

        monkeypatch.setattr(engine, "_victim_sets", no_tables)
        m = PairwiseActionMatrix.zeros(5)
        off_diagonal = [(i, j) for i in range(5) for j in range(5) if i != j]
        for i, j in off_diagonal[:17]:
            m.faw[i, j] = 0.01
        alphas = [0.25, 0.2, 0.15, 0.1, 0.05]
        for fn in (_npool_direct_revenue, npool_stage_payoffs):
            with pytest.raises(InvalidScenario) as err:
                fn(alphas, m)
            assert str(err.value) == (
                "too many simultaneous FAW infiltrations for the exact payoffs (at most 16)")


class TestTable3AttackSearch:
    """The five-pool attack search of Table 3: its bits, pinned, and its call
    structure (the closed form prices no stage matrix; the golden-section
    search it replaced made 841 npool_stage_payoffs calls per attack)."""

    # float.hex of optimal_simultaneous_attack(TABLE3_POWERS, 0, kind),
    # recorded from the converged Newton search; the golden-section oracle
    # lands within 4.2e-9 of each entry
    PINNED = {
        AttackKind.FAW: ["0x0.0p+0", "0x1.d04b331fb63d4p-5", "0x1.35bcf9686a177p-5",
                         "0x1.b2048a78d0203p-7", "0x1.f01f4e2e483e5p-8"],
        AttackKind.BWH: ["0x0.0p+0", "0x1.8721f283602a6p-6", "0x1.04c14c579571ap-6",
                         "0x1.6d0e9e14379f0p-8", "0x1.a13546f288b60p-9"],
    }

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_attack_bits_and_calls(self, kind, monkeypatch):
        calls = []
        priced = engine.npool_stage_payoffs

        def counting(alphas, matrix):
            calls.append(matrix)
            return priced(alphas, matrix)

        monkeypatch.setattr(engine, "npool_stage_payoffs", counting)
        xs = optimal_simultaneous_attack(TABLE3_POWERS, 0, kind)
        assert [float(v).hex() for v in xs] == self.PINNED[kind]
        assert len(calls) == 0
        monkeypatch.undo()
        oracle = npool_oracle.optimal_simultaneous_attack(TABLE3_POWERS, 0, kind)
        assert np.abs(xs - oracle).max() <= 4.2e-9


@st.composite
def attack_profiles(draw, n_min=3, n_max=7):
    """(powers, attacker, kind): each power in (0, 0.5] and their total at
    most just below 1, with powers of 0.5 or just below it and victims of
    equal power drawn often."""
    n = draw(st.integers(n_min, n_max))
    power = st.one_of(st.floats(0.01, 0.5), st.floats(0.45, 0.5), st.just(0.5))
    alphas = np.array(draw(st.lists(power, min_size=n, max_size=n)))
    attacker = draw(st.integers(0, n - 1))
    twins = draw(st.lists(st.integers(0, n - 1), max_size=n))
    alphas[[j for j in twins if j != attacker]] = alphas[(attacker + 1) % n]
    cap = draw(st.sampled_from([1.0 - 1e-9, 0.9]))
    if alphas.sum() > cap:  # shrink all but the largest power
        big = np.argmax(alphas)
        rest = np.arange(n) != big
        alphas[rest] *= (cap - alphas[big]) / alphas[rest].sum()
        assume(alphas.min() > 1e-3)
    return alphas, attacker, draw(st.sampled_from(list(AttackKind)))


def _closed_form(alphas, attacker, kind, x):
    """engine._attack_payoff at the attacker's row x (x[attacker] is 0)."""
    return engine._attack_payoff(alphas[attacker], np.delete(alphas, attacker),
                                 1.0 - alphas.sum(), np.delete(x, attacker),
                                 kind is AttackKind.FAW)


def _stage_payoff(alphas, attacker, kind, x):
    m = PairwiseActionMatrix.zeros(alphas.size)
    (m.faw if kind is AttackKind.FAW else m.bwh)[attacker] = x
    return float(npool_stage_payoffs(alphas, m)[attacker])


class TestNewtonAttackSearch:
    """The closed-form attacker payoff against the exact stage payoff, and
    the Newton search against the golden-section oracle
    (tests/npool_oracle.py)."""

    @pytest.mark.parametrize("f", range(1, 9))
    def test_weights_are_the_alternating_sums(self, f):
        _, _, weight = engine._victim_sets(f)
        for row, members in enumerate(weight):
            t = bin(row).count("1")
            for j, w in enumerate(members):
                if row >> j & 1:
                    sums = [math.comb(t - 1, i) * (-1) ** (t - i) / (f - i) for i in range(t)]
                else:
                    sums = [math.comb(t, i) * (-1) ** (t - i) / (f - i) for i in range(t + 1)]
                assert w == pytest.approx(math.fsum(sums), rel=0, abs=1e-15)

    @given(attack_profiles(), st.lists(st.integers(0, 100), min_size=7, max_size=7),
           st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_is_the_stage_payoff(self, profile, shares, spend):
        alphas, attacker, kind = profile
        x = np.array(shares[: alphas.size], float)
        x[attacker] = 0.0
        if x.sum() > 0.0:
            x *= spend * alphas[attacker] / x.sum()
        u, grad, hess = _closed_form(alphas, attacker, kind, x)
        assert u == pytest.approx(_stage_payoff(alphas, attacker, kind, x), rel=0, abs=1e-13)
        # central differences of the payoff and of the gradient, in steps
        # small against the smallest victim (the curvature grows as 1/v^2);
        # over 4,000 draws they stayed within 7e-8 of the largest entry
        h = 1e-5 * np.delete(alphas, attacker).min()
        victims = np.eye(alphas.size)[np.arange(alphas.size) != attacker]
        up = [_closed_form(alphas, attacker, kind, x + h * e) for e in victims]
        down = [_closed_form(alphas, attacker, kind, x - h * e) for e in victims]
        np.testing.assert_allclose([(a[0] - b[0]) / (2 * h) for a, b in zip(up, down)],
                                   grad, rtol=0, atol=1e-6 * np.abs(grad).max())
        np.testing.assert_allclose([(a[1] - b[1]) / (2 * h) for a, b in zip(up, down)],
                                   hess, rtol=0, atol=1e-6 * np.abs(hess).max())

    @given(attack_profiles())
    @example((np.array([0.3, 0.3, 0.3]), 0, AttackKind.BWH))
    @settings(max_examples=60, deadline=None)
    def test_converges_to_the_best_attack(self, profile):
        alphas, attacker, kind = profile
        xs = optimal_simultaneous_attack(alphas, attacker, kind)
        assert xs[attacker] == 0.0 and (xs >= 0.0).all() and xs.sum() <= alphas[attacker]
        _, grad, _ = _closed_form(alphas, attacker, kind, xs)
        assert np.abs(grad).max() <= 1e-10
        oracle = npool_oracle.optimal_simultaneous_attack(alphas, attacker, kind)
        assert (_stage_payoff(alphas, attacker, kind, xs)
                >= _stage_payoff(alphas, attacker, kind, oracle) - 1e-13)
        # victims of equal power get equal attacks
        for j in range(alphas.size):
            twins = (alphas == alphas[j]) & (np.arange(alphas.size) != attacker)
            if j != attacker:
                np.testing.assert_allclose(xs[twins], xs[j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, digest", [
        (AttackKind.FAW, "53f40aca25f345c964807c6f4385199789e11cd5383a8f55291af0c975eddb96"),
        (AttackKind.BWH, "b2e340c070c6440e10719e72c2bbfd8a635a84d26989668446f2fe7b5ba5dac4"),
    ])
    def test_oracle_start_prints_the_same_npool_output(self, kind, digest, capsys,
                                                        monkeypatch):
        # the five-pool npool run of TestGoldenOutputs, its attack searched
        # from the oracle's vector instead of the one-sided optima
        def from_oracle(alphas, attacker, kind):
            alphas = np.asarray(alphas, float)
            start = npool_oracle.optimal_simultaneous_attack(alphas, attacker, kind)
            x = engine._ascend(alphas[attacker], np.delete(alphas, attacker),
                               1.0 - alphas.sum(), np.delete(start, attacker),
                               kind is AttackKind.FAW)
            return np.insert(x, attacker, 0.0)

        monkeypatch.setattr(engine, "optimal_simultaneous_attack", from_oracle)
        assert cli.main(["npool", "--powers", *map(str, TABLE3_POWERS),
                         "--attack", kind.value]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAttackSearchInputs:
    @pytest.mark.parametrize("alphas, attacker, error, message", [
        ([0.2, 0.3, 0.1], 5, InvalidScenario, "not a pool index"),
        ([0.2, 0.3, 0.1], -1, InvalidScenario, "not a pool index"),
        ([0.6, 0.3, 0.05], 0, InvalidPowers, "no pool may hold more than half the network"),
        ([0.5, 0.4, 0.3], 0, InvalidPowers, "sum to"),
        pytest.param([0.2, np.nan, 0.1], 0, InvalidPowers,
                     "powers must be positive numbers, got 0.2, nan, 0.1",
                     id="alphas4-0-InvalidPowers-power nan"),
        pytest.param([0.2, 0.0, 0.1], 0, InvalidPowers,
                     "powers must be positive numbers, got 0.2, 0.0, 0.1",
                     id="alphas5-0-InvalidPowers-power 0.0"),
        ([0.2], 0, InvalidScenario, "at least two pools"),
    ])
    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_refused(self, alphas, attacker, error, message, kind):
        with pytest.raises(error, match=message):
            optimal_simultaneous_attack(alphas, attacker, kind)

    def test_faw_flag_cap(self):
        alphas = [0.05] * 18  # 17 victims
        with pytest.raises(InvalidScenario, match="too many simultaneous FAW"):
            optimal_simultaneous_attack(alphas, 0, AttackKind.FAW)
        xs = optimal_simultaneous_attack(alphas, 0, AttackKind.BWH)
        assert np.ptp(xs[1:]) <= 1e-12 and 0.0 < xs.sum() <= 0.05

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "ATTACK_MAX_STEPS", 2)
        with pytest.raises(NonConvergence, match="took 2 steps") as caught:
            optimal_simultaneous_attack(TABLE3_POWERS, 0, AttackKind.FAW)
        assert caught.value.last_iterate.sum() <= TABLE3_POWERS[0]

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_pair_holding_all_power(self, kind):
        # a closed network is outside the model: FAW needs a third party
        # to find the blocks that fork
        with pytest.raises(InvalidPowers, match="powers sum to 1.0 >= 1"):
            optimal_simultaneous_attack([0.5, 0.5], 0, kind)

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_pair_an_ulp_short_of_all_power(self, kind):
        # the one-sided optimum rounds to 0 here; the search still converges
        alphas = np.array([0.5, 0.5 - 2**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = optimal_simultaneous_attack(alphas, 0, kind)
        _, grad, _ = _closed_form(alphas, 0, kind, xs)
        assert np.abs(grad).max() <= 1e-10


_DEFECTS = ("nan", "negative", "inf", "diagonal", "both", "budget", "nan-power")


@st.composite
def checked_matrices(draw):
    """A valid profile with up to three defects, each of a kind
    PairwiseActionMatrix.validate refuses or must let through."""
    alphas, m = draw(npool_profiles(n_min=1, max_faw_flags=20))
    alphas = alphas.copy()
    n = alphas.size
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=3)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        side = draw(st.sampled_from([m.faw, m.bwh]))
        if defect == "nan":
            side[i, j] = np.nan
        elif defect == "negative":
            side[i, j] = -draw(st.floats(5e-324, 0.5))
        elif defect == "inf":
            side[i, j] = np.inf
        elif defect == "diagonal":
            side[i, i] = draw(st.floats(5e-324, 0.5))
        elif defect == "both":
            m.faw[i, j] = m.bwh[i, j] = draw(st.floats(5e-324, 0.2))
        elif defect == "budget":
            side[i, j] += alphas[i] * draw(st.floats(1e-9, 1.0))
        else:
            alphas[i] = np.nan
    return list(alphas) if draw(st.booleans()) else alphas, m


class TestValidateAgainstOracle:
    """``PairwiseActionMatrix.validate`` against ``npool_oracle.validate``,
    its rules one entry at a time, after ``check_powers``, which it runs
    first: the same exception class with the same message, or a pass where
    they pass."""

    @given(checked_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_message(self, case):
        alphas, m = case
        try:
            check_powers(*alphas)
            npool_oracle.validate(m, alphas)
        except Exception as want:
            with pytest.raises(type(want)) as got:
                m.validate(alphas)
            assert type(got.value) is type(want) and str(got.value) == str(want)
        else:
            assert m.validate(alphas) is m

    @pytest.mark.parametrize("faw, bwh, message", [
        (np.nan, 0.0, "non-negative"), (0.0, np.nan, "non-negative"),
        (-0.01, 0.02, "non-negative"), (0.02, -0.01, "non-negative"),
        (np.nan, 0.01, "non-negative"), (0.01, 0.02, "mutually exclusive"),
    ])
    def test_one_pair(self, faw, bwh, message):
        m = PairwiseActionMatrix.zeros(2)
        m.faw[0, 1], m.bwh[0, 1] = faw, bwh
        with pytest.raises(InvalidAction, match=message):
            m.validate([0.3, 0.3])
        with pytest.raises(InvalidAction, match=message):
            npool_oracle.validate(m, [0.3, 0.3])

    @pytest.mark.parametrize("faw, bwh", [
        ([[0.0, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros((3, 3)), np.zeros((3, 3))),
        (np.zeros((2, 2)), np.zeros((3, 3))),
    ], ids=["lists", "2x3", "3x3", "mixed"])
    def test_malformed_matrices_refused(self, faw, bwh):
        m = PairwiseActionMatrix(faw, bwh)
        with pytest.raises(InvalidScenario, match=r"must be \(2, 2\) arrays for 2 pools"):
            npool_stage_payoffs([0.2, 0.3], m)


def action_matrix(n, faw=(), bwh=()):
    """A PairwiseActionMatrix from (attacker, victim, power) triples."""
    m = PairwiseActionMatrix.zeros(n)
    for i, j, x in faw:
        m.faw[i, j] = x
    for i, j, x in bwh:
        m.bwh[i, j] = x
    return m


# six FAW flags with one mutual-fork pair (0 and 1), and a BWH detachment
FIVE_POOLS = ([0.25, 0.15, 0.10, 0.035, 0.02], action_matrix(
    5, faw=[(0, 1, 0.04), (1, 0, 0.03), (0, 2, 0.02), (0, 3, 0.01), (2, 4, 0.01),
            (3, 1, 0.005)], bwh=[(4, 0, 0.005)]))
# most power forks, so rounds where both flags fire are common
MUTUAL_FORK = ([0.4, 0.3], action_matrix(2, faw=[(0, 1, 0.3), (1, 0, 0.25)]))
NO_FAW = ([0.25, 0.2, 0.1], action_matrix(3, bwh=[(0, 1, 0.03), (2, 0, 0.02)]))
# every ordered pair of four pools forks: twelve flags
EVERY_PAIR = _every_pair([0.3, 0.25, 0.2, 0.15], 12)


class TestMonteCarloSampler:
    """The sampler against the exact stage payoffs over many seeds, so that its
    correctness rests on no single pinned stream: per pool, the z-scores
    (estimate - exact) / stderr of the independent runs must have a mean
    within 4 standard errors of 0 and a standard deviation in [0.8, 1.2]."""

    SEEDS = 300
    ROUNDS = 50_000

    @pytest.mark.parametrize("profile, chunk", [
        (FIVE_POOLS, None),
        (MUTUAL_FORK, None),
        (NO_FAW, None),
        (EVERY_PAIR, None),
        # 64 flag-first rounds per batch (6 flags): a run spans about 46 batches
        (FIVE_POOLS, 6 * 64),
    ], ids=["five-pools", "mutual-fork", "no-faw", "every-pair", "five-pools-small-batches"])
    def test_z_scores_are_standard_normal(self, profile, chunk, monkeypatch):
        alphas, m = profile
        if chunk is not None:
            monkeypatch.setattr(payoff, "_CHUNK", chunk)
        exact = npool_stage_payoffs(alphas, m)
        z = []
        for seed in range(self.SEEDS):
            mc, se = npool_stage_payoffs_mc(alphas, m, rounds=self.ROUNDS, seed=seed)
            z.append((mc - exact) / se)
        z = np.array(z)
        assert np.all(np.abs(z.mean(axis=0)) < 4 / np.sqrt(self.SEEDS))
        sd = z.std(axis=0, ddof=1)
        assert np.all((sd >= 0.8) & (sd <= 1.2))


class TestClosedPools:
    def test_published_scenario(self):
        rows = closed_pool_scenario()
        assert 100 * rows[0].attacker_gain == pytest.approx(0.74, abs=0.02)
        assert 100 * rows[0].victim_loss == pytest.approx(0.09, abs=0.02)
        assert 100 * rows[1].attacker_gain == pytest.approx(0.32, abs=0.02)
        assert 100 * rows[1].victim_loss == pytest.approx(0.016, abs=0.02)

    def test_zero_power_attacker(self):
        (row,) = closed_pool_scenario(attacker_powers=(0.0,))
        assert row.attacker_gain == 0.0 and row.victim_loss == 0.0


BAD_WEIGHTS = [-0.5, 1.0, 1.5, float("nan")]


class TestOneRulePerInput:
    """The preference weight is checked where retaliation uses it, and an
    n-pool stage is checked once, with its powers."""

    @pytest.mark.parametrize("k", BAD_WEIGHTS)
    def test_sweeps_refuse_the_weight(self, k):
        message = rf"^k must be in \[0, 1\), got {k}$"
        with pytest.raises(InvalidScenario, match=message):
            two_stage_sweep([0.1, 0.2], AttackKind.FAW, k)
        with pytest.raises(InvalidScenario, match=message):
            two_stage_ratio_sweep([0.5, 1.0], [0.1, 0.2], AttackKind.BWH, 0.2, k)

    @pytest.mark.parametrize("k", BAD_WEIGHTS)
    def test_a_game_without_retaliation_refuses_the_weight(self, k):
        # one stage: every standing is good, so no one retaliates
        with pytest.raises(InvalidScenario, match=rf"^k must be in \[0, 1\), got {k}$"):
            run_npool(config(0.25, 0.15), [ArsAgent(), ArsAgent(k)], 1)

    @pytest.mark.parametrize("alphas", [[0.6, 0.5], [0.9, 0.9, 0.9]])
    def test_stage_payoffs_refuse_the_powers(self, alphas):
        m = PairwiseActionMatrix.zeros(len(alphas))
        with pytest.raises(InvalidPowers, match="more than half"):
            npool_stage_payoffs(alphas, m)
        with pytest.raises(InvalidPowers, match="more than half"):
            npool_stage_payoffs_mc(alphas, m, rounds=100)

    @pytest.mark.parametrize("powers", [(0.2, 0.3), (0.2, 0.3, 0.1)])
    def test_an_overdraft_is_refused_alike_for_any_number_of_pools(self, powers):
        # 0.2 + 5e-13 from a pool of 0.2 passed a budget slack of 1e-12 with
        # three pools, and only payoff_pair refused it with two
        over = {0: {1: Action(0.2 + 5e-13, 0.0)}}
        strategies = [ScriptedDeviator(over)] + [ArsAgent() for _ in powers[1:]]
        with pytest.raises(InvalidAction,
                           match=r"^infiltration power 0.2000000000005 exceeds owner power 0.2$"):
            run_npool(config(*powers), strategies, 1)

    @pytest.mark.parametrize("powers, rounds", [
        ((0.25, 0.15), None),
        ((0.25, 0.15, 0.10, 0.035, 0.02), None),
        ((0.25, 0.15, 0.10, 0.035, 0.02), 1000),
    ], ids=["two-pools", "five-pools", "five-pools-monte-carlo"])
    def test_each_stage_validated_once(self, powers, rounds, monkeypatch):
        calls = []
        validate = PairwiseActionMatrix.validate

        def counting(matrix, alphas):
            calls.append(len(alphas))
            return validate(matrix, alphas)

        monkeypatch.setattr(PairwiseActionMatrix, "validate", counting)
        strategies = [OptimalOneShotAttacker(AttackKind.FAW)]
        strategies += [ArsAgent() for _ in powers[1:]]
        run_npool(config(*powers), strategies, 3, payoff_rounds=rounds)
        assert calls == [len(powers)] * 3
