import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import audit_oracle
import retaliation_oracle as oracle
from poolgame import ars, cli, equilibrium
from poolgame.model import (
    Action,
    AttackKind,
    DegenerateDenominator,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    PoolGameError,
)
from poolgame.payoff import payoff_pair, payoff_pair_raw
from poolgame.equilibrium import (
    _subgame_cases,
    audit_ipbwh_nonempty,
    delta_bound,
    deviation_outcome,
    stage_nash,
)


class TestStageNash:
    def test_symmetric_pools_earn_nothing(self):
        for alpha in (0.1, 0.2, 0.3, 0.4):
            eq = stage_nash(alpha, alpha)
            assert eq.converged
            assert abs(eq.payoffs.u_i) < 1e-4 and abs(eq.payoffs.u_j) < 1e-4

    def test_larger_pool_wins(self):
        eq = stage_nash(0.25, 0.15)
        assert eq.payoffs.u_i > 0 > eq.payoffs.u_j
        a1, a2 = eq.actions
        assert a1.kind is AttackKind.FAW and a2.kind is AttackKind.FAW

    def test_no_profitable_grid_deviation(self):
        # brute-force check on a 200x200 action grid
        eq = stage_nash(0.25, 0.15)
        f1, f2 = eq.actions[0].faw, eq.actions[1].faw
        u1_star, u2_star = eq.payoffs
        g1 = np.linspace(0, 0.25, 200)
        g2 = np.linspace(0, 0.15, 200)
        dev1 = payoff_pair_raw(0.25, 0.15, g1, 0.0, f2, 0.0)[0]
        dev2 = payoff_pair_raw(0.25, 0.15, f1, 0.0, g2, 0.0)[1]
        assert dev1.max() <= u1_star + 1e-6
        assert dev2.max() <= u2_star + 1e-6

    def test_unique_fixed_point_from_random_starts(self):
        rng = np.random.default_rng(3)
        ref = stage_nash(0.3, 0.2)
        for _ in range(20):
            eq = stage_nash(
                0.3, 0.2,
                initial=(rng.uniform(0, 0.3), rng.uniform(0, 0.2)),
            )
            assert eq.actions[0].faw == pytest.approx(ref.actions[0].faw, abs=1e-3)
            assert eq.actions[1].faw == pytest.approx(ref.actions[1].faw, abs=1e-3)

    def test_bwh_swap_strictly_worse_at_equilibrium(self):
        eq = stage_nash(0.25, 0.15)
        f1, f2 = eq.actions[0].faw, eq.actions[1].faw
        swapped1 = payoff_pair(0.25, 0.15, Action(0.0, f1), Action(f2, 0.0)).u_i
        swapped2 = payoff_pair(0.25, 0.15, Action(f1, 0.0), Action(0.0, f2)).u_j
        assert swapped1 < eq.payoffs.u_i
        assert swapped2 < eq.payoffs.u_j

    def test_invalid_powers_refused_before_iterating(self, monkeypatch):
        def best_response(*args):
            raise AssertionError("best response computed for invalid powers")

        monkeypatch.setattr(equilibrium, "_best_response", best_response)
        with pytest.raises(InvalidPowers, match="more than half the network"):
            stage_nash(0.6, 0.2)

    @pytest.mark.parametrize("initial, message", [
        ((5.0, 5.0), "infiltration power 5.0 exceeds owner power 0.25"),
        ((0.0, 0.2), "infiltration power 0.2 exceeds owner power 0.15"),
        ((float("nan"), 0.0), "non-negative numbers, got nan, 0.0"),
        ((0.0, -0.01), "non-negative numbers, got -0.01, 0.0"),
    ])
    def test_invalid_start_refused_before_iterating(self, initial, message, monkeypatch):
        # (5, 5) raised DegenerateDenominator inside a best response; NaN passed
        def best_response(*args):
            raise AssertionError("best response computed from an invalid start")

        monkeypatch.setattr(equilibrium, "_best_response", best_response)
        with pytest.raises(InvalidAction, match=message):
            stage_nash(0.25, 0.15, initial)


class TestDeltaBound:
    def test_bound_below_one(self):
        for k in (0.0, 0.5, 0.999):
            b = delta_bound(0.25, 0.15, k, deviation_resolution=20)
            assert 0.0 < b.bound < 1.0

    @pytest.mark.parametrize("k", [-0.5, 1.0, 1.5, float("nan")])
    def test_weight_outside_unit_interval_rejected(self, k):
        # k = 1.5 gave a bound of 1.4998, above the 1 the construction promises
        with pytest.raises(InvalidScenario, match=rf"^k must be in \[0, 1\), got {k}$"):
            delta_bound(0.25, 0.15, k)

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_deviation_grid_below_two_points_rejected(self, n):
        # 0 and 1 gave a bound of -inf, -5 numpy's ValueError
        with pytest.raises(InvalidScenario,
                           match=rf"^deviation_resolution must be an integer of at least 2, "
                                 rf"got {n}$"):
            delta_bound(0.25, 0.15, 0.5, deviation_resolution=n)

    def test_duplicate_cases_noted(self):
        b = delta_bound(0.3, 0.2, 0.5, deviation_resolution=10)
        assert ("cooperating", "mutual-bad") in b.duplicate_cases
        for side in (1, 2):
            assert b.case_maxima[f"pool{side}:cooperating"] == pytest.approx(
                b.case_maxima[f"pool{side}:mutual-bad"], abs=1e-12
            )

    def test_each_stage0_profile_evaluated_once(self, monkeypatch):
        # classes sharing (punisher stage-0 action, deviator prescription)
        # share their outcomes, so each side prices each such profile once,
        # all of them in one batch over the whole deviation grid
        alpha_1, alpha_2, k, n = 0.25, 0.15, 0.5, 10
        expected = []
        for alpha_pun, alpha_dev in ((alpha_1, alpha_2), (alpha_2, alpha_1)):
            profiles = {
                (c.punisher_stage0, c.deviator_prescribed)
                for prior in (AttackKind.FAW, AttackKind.BWH)
                for c in _subgame_cases(alpha_pun, alpha_dev, k, prior)
            }
            expected += [(*p, alpha_pun, alpha_dev) for p in profiles]
        calls, batches = [], []
        batched = equilibrium._deviation_outcomes

        def counting(profiles, alpha_pun, alpha_dev, deviations, k):
            assert len(deviations) == 2 * (n - 1)
            batches.append(len(profiles))
            calls.extend((*p, alpha_pun, alpha_dev) for p in profiles)
            return batched(profiles, alpha_pun, alpha_dev, deviations, k)

        monkeypatch.setattr(equilibrium, "_deviation_outcomes", counting)
        delta_bound(alpha_1, alpha_2, k, deviation_resolution=n)
        assert len(batches) == 2
        assert len(calls) == len(expected)
        assert set(calls) == set(expected)

    def test_one_retaliation_batch_per_side(self, monkeypatch):
        # all of a side's stage-0 profiles share one retaliate_cells call
        rows = []
        batched = equilibrium.retaliate_cells

        def counting(alpha_own, *args):
            rows.append(alpha_own.size)
            return batched(alpha_own, *args)

        monkeypatch.setattr(equilibrium, "retaliate_cells", counting)
        delta_bound(0.25, 0.15, 0.5)
        assert len(rows) == 2 and min(rows) >= ars.WINDOW_ROWS

    def test_one_stage_deviations_unprofitable_above_bound(self):
        k = 0.5
        b = delta_bound(0.25, 0.15, k, deviation_resolution=25)
        assert b.bound + 0.01 < 1.0
        delta = b.bound + 0.01
        rng = np.random.default_rng(17)
        for alpha_pun, alpha_dev in ((0.25, 0.15), (0.15, 0.25)):
            for case in _subgame_cases(alpha_pun, alpha_dev, k, AttackKind.FAW):
                for _ in range(25):
                    x = rng.uniform(1e-4, alpha_dev)
                    d = Action(x, 0.0) if rng.integers(2) else Action(0.0, x)
                    gain, pun, comp = deviation_outcome(
                        case, alpha_pun, alpha_dev, d, k
                    )
                    assert gain + delta * pun <= comp + 1e-9


class TestDeviationBatchAgainstOracle:
    @given(
        alpha_pun=st.one_of(st.floats(0.01, 0.5), st.just(0.5)),
        alpha_dev=st.floats(0.01, 0.49),
        k=st.floats(0.0, 1.0, exclude_max=True),
        prior=st.sampled_from(AttackKind),
        which=st.integers(0, 3),
        n=st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_deviation_calls(self, alpha_pun, alpha_dev, k, prior,
                                              which, n):
        # delta_bound's batch over a class's deviation grid against the
        # per-deviation path it replaced, bit for bit
        try:
            case = _subgame_cases(alpha_pun, alpha_dev, k, prior)[which]
        except PoolGameError:
            return  # no stage-0 retaliation exists for this prior
        deviations = equilibrium._deviation_grid(alpha_dev, n)

        def outcome(fn, *args):
            try:
                return fn(case, alpha_pun, alpha_dev, *args, k)
            except PoolGameError as exc:
                return type(exc), str(exc)

        def per_deviation(case, alpha_pun, alpha_dev, deviations, k):
            return [tuple(float(v).hex() for v in
                          oracle.deviation_outcome(case, alpha_pun, alpha_dev, d, k))
                    for d in deviations]

        def batched(case, alpha_pun, alpha_dev, deviations, k):
            gain, punishment, comp = equilibrium._deviation_outcomes(
                [(case.punisher_stage0, case.deviator_prescribed)], alpha_pun, alpha_dev,
                deviations, k)
            return [(g.hex(), p.hex(), comp[0].hex())
                    for g, p in zip(gain[0].tolist(), punishment[0].tolist())]

        def worst_ratio(case, alpha_pun, alpha_dev, deviations, k):
            gain, punishment, comp = equilibrium._deviation_outcomes(
                [(case.punisher_stage0, case.deviator_prescribed)], alpha_pun, alpha_dev,
                deviations, k)
            return equilibrium._worst_ratio(gain[0], punishment[0], comp[0])

        assert outcome(batched, deviations) == outcome(per_deviation, deviations)
        assert outcome(worst_ratio, deviations) == outcome(oracle._worst_ratio, deviations)


class TestAudit:
    def test_default_grid_has_no_failures(self):
        report = audit_ipbwh_nonempty(power_grid_resolution=12, infiltration_resolution=80)
        assert report.passed.all()

    def test_boundary_cell_passes(self):
        report = audit_ipbwh_nonempty(
            power_grid_resolution=2, infiltration_resolution=100,
            power_lo=0.01, power_hi=0.45,
        )
        # grid {0.01, 0.45}^2: includes the extreme (0.45, 0.01) cell
        assert report.passed.size == 4
        assert report.passed.all()

    def test_symmetric_cell_positive(self):
        report = audit_ipbwh_nonempty(
            power_grid_resolution=1, infiltration_resolution=120,
            power_lo=0.2, power_hi=0.2,
        )
        (passed,), (k_chosen,) = report.passed, report.k_chosen
        assert passed and np.isfinite(k_chosen)

    def test_csv_rows_schema(self):
        report = audit_ipbwh_nonempty(power_grid_resolution=2, infiltration_resolution=50)
        rows = cli._audit_rows(report)
        assert rows[0] == "alpha1,alpha2,f_value,k_chosen,passed"
        assert len(rows) == report.passed.size + 1

    def test_half_network_opponent_sliver_is_reported_not_hidden(self):
        # pushing the opponent to exactly half the network exposes genuine
        # failures: no BWH power of a ~0.37 pool out-damages the worst-case
        # counterattack gain of a 0.5 pool; the audit must report, not mask
        report = audit_ipbwh_nonempty(
            power_grid_resolution=2, infiltration_resolution=100,
            power_lo=0.37, power_hi=0.5, power_cap=0.87,
        )
        failed = ~report.passed
        failing = {(round(a1, 2), round(a2, 2)) for a1, a2
                   in zip(report.alpha_1[failed].tolist(), report.alpha_2[failed].tolist())}
        assert (0.37, 0.5) in failing


def audit_bits(audit, **kw):
    """Every cell's fields, floats as their uint64 bits, and the CSV rows, or
    the error. ``audit`` returns the package's columns, whose ``passed`` must
    have dtype bool and whose rows the CLI formats, or the oracle's cells,
    whose ``passed`` must be a bool and whose rows the oracle formats."""
    try:
        report = audit(**kw)
    except PoolGameError as exc:
        return type(exc), str(exc)
    if isinstance(report, tuple):
        assert all(type(c.passed) is bool for c in report)
        floats = [(c.alpha_1, c.alpha_2, c.f_value, c.k_chosen) for c in report]
        passed = [c.passed for c in report]
        rows = list(audit_oracle.audit_csv_rows(report))
    else:
        assert report.passed.dtype == bool
        floats = list(zip(report.alpha_1, report.alpha_2, report.f_value, report.k_chosen))
        passed = report.passed.tolist()
        rows = cli._audit_rows(report)
    return np.array(floats, float).reshape(-1, 4).view(np.uint64).tolist(), passed, rows


class TestBatchedAuditAgainstOracle:
    """The batched audit against the per-cell full-grid audit it replaced,
    and the CLI's rows from its columns against the oracle's per-cell rows."""

    @given(
        lo=st.floats(0.001, 0.5),
        # opponents at half the network reach the cells where no power deters
        hi=st.one_of(st.floats(0.001, 0.5), st.just(0.5)),
        cells=st.integers(1, 4),
        n=st.integers(2, 150),
        # caps below 2 * max(lo, hi) drop cells
        cap=st.one_of(st.just(0.99), st.floats(0.2, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle_bit_for_bit(self, lo, hi, cells, n, cap):
        kw = dict(power_grid_resolution=cells, infiltration_resolution=n,
                  power_lo=lo, power_hi=hi, power_cap=cap)
        assert audit_bits(audit_ipbwh_nonempty, **kw) == audit_bits(
            audit_oracle.audit_ipbwh_nonempty, **kw)

    @pytest.mark.parametrize("kw", [
        # the acceptance suite's extended grid, opponents up to half the network
        dict(power_grid_resolution=8, infiltration_resolution=100,
             power_lo=0.3, power_hi=0.5),
        # the sliver of genuine failures: every fallback power priced fresh
        dict(power_grid_resolution=2, infiltration_resolution=100,
             power_lo=0.37, power_hi=0.5, power_cap=0.87),
        dict(power_grid_resolution=12, infiltration_resolution=80),
    ])
    def test_pinned_grids(self, kw):
        bits = audit_bits(audit_ipbwh_nonempty, **kw)
        assert bits == audit_bits(audit_oracle.audit_ipbwh_nonempty, **kw)

    def test_fallback_with_fresh_family1_minima(self):
        # (0.01, 0.45) passes only at its 28th fallback power above f_cap,
        # each with a fresh family-1 minimum
        kw = dict(power_grid_resolution=2, infiltration_resolution=120,
                  power_lo=0.01, power_hi=0.45)
        report = audit_ipbwh_nonempty(**kw)
        assert (report.alpha_1[1], report.alpha_2[1], report.passed[1]) == (0.01, 0.45, True)
        assert report.f_value[1].hex() == "-0x1.59d906c8870e0p-8"
        assert report.k_chosen[1].hex() == "0x1.ba7eac2b78e48p-8"
        assert audit_bits(audit_ipbwh_nonempty, **kw) == audit_bits(
            audit_oracle.audit_ipbwh_nonempty, **kw)

    def test_row_chunks_do_not_change_cells(self, monkeypatch):
        kw = dict(power_grid_resolution=4, infiltration_resolution=37)
        want = audit_bits(audit_oracle.audit_ipbwh_nonempty, **kw)
        monkeypatch.setattr(equilibrium, "AUDIT_ROW_CHUNK", 7)
        monkeypatch.setattr(equilibrium, "AUDIT_FALLBACK_POWERS", 1)
        assert audit_bits(audit_ipbwh_nonempty, **kw) == want

    @pytest.mark.parametrize("anchor_step", [1, 3, 500])
    def test_anchor_steps_do_not_change_cells(self, monkeypatch, anchor_step):
        # every row its own anchor (the bisection of every row), a step that
        # does not divide n - 1, and only the first and last rows as anchors,
        # whose interpolated starts miss and send rows to full pricing
        kw = dict(power_grid_resolution=4, infiltration_resolution=37)
        want = audit_bits(audit_oracle.audit_ipbwh_nonempty, **kw)
        full_rows = []

        def pricing(alpha_i, alpha_j, f_i, b_i, f_j, b_j):
            full_rows.append(np.shape(f_j)[:1] == (37,))
            return payoff_pair_raw(alpha_i, alpha_j, f_i, b_i, f_j, b_j)

        monkeypatch.setattr(equilibrium, "payoff_pair_raw", pricing)
        monkeypatch.setattr(equilibrium, "AUDIT_ANCHOR_STEP", anchor_step)
        assert audit_bits(audit_ipbwh_nonempty, **kw) == want
        if anchor_step == 500:
            assert any(full_rows)

    def test_thirty_cell_audit_prices_few_elements(self, monkeypatch, capsys):
        # anchors bisected, every other row windowed: about 1.08M kernel
        # elements; bisecting every row priced 2.32M
        elements = []

        def pricing(alpha_i, alpha_j, f_i, b_i, f_j, b_j):
            elements.append(np.broadcast(*map(np.asarray, (f_i, b_i, f_j, b_j))).size)
            return payoff_pair_raw(alpha_i, alpha_j, f_i, b_i, f_j, b_j)

        monkeypatch.setattr(equilibrium, "payoff_pair_raw", pricing)
        assert cli.main(["audit-ipbwh", "--cells", "30"]) == 0
        assert "# failures: 0" in capsys.readouterr().out
        assert sum(elements) <= 1_200_000


def weakly_unimodal_rows(data):
    """Rows that never rise after a fall, with ties (plateaus) on both sides
    of the peak, and the pricer ``u`` of the row-maximum searches."""
    n = data.draw(st.integers(2, 40))
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        peak = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
        row = np.zeros(n)
        row[peak + 1:] = -np.cumsum(steps[peak:])
        row[:peak] = -np.cumsum(steps[:peak][::-1])[::-1]
        rows.append(row)
    grid = np.array(rows)

    def u(j, r=slice(None)):
        return grid[np.arange(len(rows))[r], j]

    return grid, u


def row_maxima(u, size, n):
    """Maximum of each of ``size`` rows of n grid values: the window around
    each row's own bisection bracket."""
    return equilibrium._window_maxima(u, equilibrium._brackets(u, size, n), n)


class TestRowMaxima:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_weakly_unimodal_rows(self, data):
        # the bracketed search returns each row's maximum
        grid, u = weakly_unimodal_rows(data)
        rows, n = grid.shape
        top = row_maxima(u, rows, n)
        assert top.tolist() == grid.max(axis=1).tolist()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_window_from_any_start(self, data):
        # a window started anywhere, as an interpolated start can be, still
        # returns each row's maximum: its guard prices the missed rows in full
        grid, u = weakly_unimodal_rows(data)
        rows, n = grid.shape
        lo = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
        top = equilibrium._window_maxima(u, lo, n)
        assert top.tolist() == grid.max(axis=1).tolist()

    def test_plateau_before_the_peak_takes_the_full_row(self):
        # the bisection steps left on the tie at the midpoint and brackets
        # the plateau; the window's edge equals its maximum, so the row is
        # priced in full and the later peak is found
        row = np.array([0.0] + [1.0] * 10 + [2.0, 0.0])
        priced = []

        def u(j, r=slice(None)):
            priced.append(np.size(j))
            return row[j]

        assert row_maxima(u, 1, row.size).tolist() == [2.0]
        assert priced[-1] == row.size


class TestAuditInputs:
    @pytest.mark.parametrize("kw, message", [
        pytest.param(dict(infiltration_resolution=1),
                     "^infiltration_resolution must be an integer of at least 2, got 1$",
                     id="kw0-at least 2 points, got 1"),
        pytest.param(dict(infiltration_resolution=0),
                     "^infiltration_resolution must be an integer of at least 2, got 0$",
                     id="kw1-at least 2 points, got 0"),
        pytest.param(dict(power_grid_resolution=0),
                     "^power_grid_resolution must be an integer of at least 1, got 0$",
                     id="kw2-at least 1 cell per axis, got 0"),
        pytest.param(dict(power_grid_resolution=-2),
                     "^power_grid_resolution must be an integer of at least 1, got -2$",
                     id="kw3-at least 1 cell per axis, got -2"),
    ])
    def test_empty_grids_rejected(self, kw, message):
        with pytest.raises(InvalidScenario, match=message):
            audit_ipbwh_nonempty(**kw)

    @pytest.mark.parametrize("kw, message", [
        # the third cell (0.01, 0.6) is the first invalid one in row order
        (dict(power_grid_resolution=3, power_hi=0.6),
         "no pool may hold more than half the network"),
        (dict(power_grid_resolution=3, power_lo=0.0),
         "powers must be positive numbers, got 0.0, 0.0"),
        (dict(power_grid_resolution=2, power_lo=0.5, power_hi=0.5, power_cap=1.0),
         "powers sum to 1.0 >= 1"),
        (dict(power_grid_resolution=2, power_lo=float("nan")),
         "powers must be positive numbers, got nan, nan"),
    ])
    def test_first_invalid_cell_raises_its_power_error(self, kw, message):
        with pytest.raises(InvalidPowers) as exc:
            audit_ipbwh_nonempty(**kw)
        assert str(exc.value) == message
        assert audit_bits(audit_oracle.audit_ipbwh_nonempty, **kw) == (InvalidPowers, message)

    def test_cells_before_the_invalid_one_raise_first(self):
        # (0.4999999999, 0.4999999999) leaves no live power on its fallback
        # grid and comes before the invalid (0.5, 0.5)
        kw = dict(power_grid_resolution=2, infiltration_resolution=50,
                  power_lo=0.4999999999, power_hi=0.5, power_cap=1.0)
        with pytest.raises(DegenerateDenominator):
            audit_ipbwh_nonempty(**kw)
        assert audit_bits(audit_oracle.audit_ipbwh_nonempty, **kw)[0] is DegenerateDenominator
