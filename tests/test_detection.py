import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import sampler_oracle

from poolgame import payoff
from poolgame.model import (
    Action,
    AttackKind,
    InvalidPowers,
    InvalidScenario,
    PoolGameError,
    check_powers,
)
from poolgame.detection import (
    DetectionScenario,
    NonMonotoneTimestamp,
    NonPositiveRate,
    ParseError,
    RewardDensitySeries,
    detect_bwh_block_ratio,
    detect_unlucky_miners,
    evasion_partial_sharing,
    evasion_smoothing,
    generate_synthetic_hashrates,
    geometric_param,
    ingest_hashrate_csv,
    load_bundled_hashrates,
    simulate_reward_density,
    variance_ratio,
)


def chisquare_pvalue(samples: np.ndarray, p: float) -> float:
    """Goodness of fit of integer samples against the geometric law with
    known parameter p (support 0,1,2,...), tail bins pooled to expected>=5."""
    kmax = int(samples.max())
    obs = np.bincount(samples, minlength=kmax + 1).astype(float)
    exp = np.array([(1 - p) ** i * p for i in range(kmax + 1)]) * samples.size
    exp[-1] = samples.size - exp[:-1].sum()
    while exp.size > 2 and exp[-1] < 5:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    return stats.chisquare(obs, exp).pvalue


class TestGeometricParam:
    def test_no_infiltration_reduces_to_block_race(self):
        for kind in AttackKind:
            assert geometric_param(0.1, 0.2, 0.0, kind) == pytest.approx(0.1 / 0.3)

    @pytest.mark.parametrize("alpha, beta", [
        (0.7, 0.2), (0.2, 0.7), (0.5, 0.5), (0.0, 0.2), (float("nan"), 0.2),
        (0.2, -0.1), (0.2, float("nan")),
        (0.3, 0.0),  # no victim: check_powers refuses it, as every detector input
    ])
    def test_sizes_outside_a_pool_refused(self, alpha, beta):
        with pytest.raises(InvalidPowers) as want:
            check_powers(alpha, beta)
        with pytest.raises(InvalidPowers) as got:
            geometric_param(alpha, beta, 0.05, AttackKind.FAW)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("make", [
        lambda gamma: geometric_param(0.2, 0.2, gamma, AttackKind.FAW),
        lambda gamma: DetectionScenario(0.2, 0.2, gamma, AttackKind.FAW),
    ], ids=["geometric_param", "DetectionScenario"])
    def test_share_outside_the_rule_refused(self, make, gamma):
        # at gamma = 1 the attacker keeps no home power, so no period ends
        with pytest.raises(InvalidScenario, match=rf"^gamma must be in \[0, 1\), got {gamma}$"):
            make(gamma)

    def test_faw_parameter_smaller_than_bwh(self):
        # withheld releases add victim blocks, stretching the periods
        p_faw = geometric_param(0.1, 0.2, 0.05, AttackKind.FAW)
        p_bwh = geometric_param(0.1, 0.2, 0.05, AttackKind.BWH)
        assert p_faw < p_bwh

    @pytest.mark.parametrize(
        "alpha,beta,gamma,kind",
        [
            (0.10, 0.20, 0.05, AttackKind.FAW),
            (0.25, 0.20, 0.02, AttackKind.BWH),
        ],
    )
    def test_event_simulation_matches_geometric(self, alpha, beta, gamma, kind):
        p = geometric_param(alpha, beta, gamma, kind)
        n = sampler_oracle.simulate_victim_blocks(alpha, beta, gamma, kind, periods=100_000, seed=12)
        assert chisquare_pvalue(n, p) > 0.01
        se = math.sqrt((1 - p) / p**2 / n.size)
        assert n.mean() == pytest.approx((1 - p) / p, abs=3 * se)

    def test_negative_simulation_seed_rejected(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidScenario,
                               match=f"^seed must be a non-negative integer, got {seed}$"):
                sampler_oracle.simulate_victim_blocks(0.1, 0.2, 0.05, AttackKind.FAW, 10, seed=seed)


class TestRewardDensity:
    def test_negative_seed_rejected(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidScenario,
                               match=f"seed must be a non-negative integer, got {seed}"):
                DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=100, seed=seed)

    def test_honest_constant_baseline_is_flat(self):
        sc = DetectionScenario(0.1, 0.2, 0.0, AttackKind.FAW, periods=100, seed=0)
        series = simulate_reward_density(sc, 0.1)
        assert np.allclose(series.samples, 10.0)
        assert series.variance() == 0.0

    def test_attack_variance_entirely_from_victim_term(self):
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=500, seed=1)
        series = simulate_reward_density(sc, 0.1)
        assert np.allclose(series.base, 10.0)
        assert series.variance() == pytest.approx(float(np.var(series.extra, ddof=1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, bad):
        # smoothing [1, nan] returned [nan, nan]
        with pytest.raises(InvalidScenario, match=f"^reward densities must be finite, got {bad}$"):
            RewardDensitySeries(np.array([1.0, bad]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_variance_of_fewer_than_two_samples_refused(self, n):
        # one sample warned of a zero ddof divisor and returned nan
        series = RewardDensitySeries(np.ones(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidScenario,
                               match=f"^a sample variance needs at least 2 periods, got {n}$"):
                series.variance()

    def test_variance_increases_with_infiltration(self):
        hr = load_bundled_hashrates()
        var = []
        for gamma in (0.1, 0.3, 0.5):
            sc = DetectionScenario(0.1, 0.2, gamma * 0.5, AttackKind.FAW,
                                   periods=720, seed=3)
            var.append(simulate_reward_density(sc, hr, pool="pool_a").variance())
        assert var[0] < var[1] < var[2]

    def test_variance_ratio_bands_on_bundled_fixture(self):
        hr = load_bundled_hashrates()
        for alpha, pool in ((0.10, "pool_a"), (0.25, "pool_b")):
            for kind in AttackKind:
                attack = simulate_reward_density(
                    DetectionScenario(alpha, 0.2, 0.005 / alpha, kind, 720, seed=2),
                    hr, pool=pool,
                )
                honest = simulate_reward_density(
                    DetectionScenario(alpha, 0.2, 0.0, kind, 720, seed=2), hr, pool=pool
                )
                assert variance_ratio(attack, honest) > 10.0

    def test_variance_ratio_identical_series_and_flat_baseline(self):
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=100, seed=0)
        s = simulate_reward_density(sc, 0.1)
        assert variance_ratio(s, s) == 1.0
        flat = simulate_reward_density(
            DetectionScenario(0.1, 0.2, 0.0, AttackKind.FAW, periods=100, seed=0), 0.1
        )
        assert variance_ratio(s, flat) == math.inf

    def test_periods_beyond_the_baseline_rejected(self):
        # a baseline shorter than the run is refused, not silently repeated
        hr = load_bundled_hashrates()
        n = hr.rates["pool_a"].size
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=n + 1, seed=0)
        with pytest.raises(InvalidScenario, match=f"only {n}"):
            simulate_reward_density(sc, hr, pool="pool_a")
        with pytest.raises(InvalidScenario, match="only 50"):
            simulate_reward_density(sc, np.full(50, 0.1))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_invalid_period_sizes_refused_with_and_without_infiltration(self, gamma):
        # a size of 0 or below, or one leaving the victim no room, is refused
        # whether or not the pool infiltrates, never priced as inf or negative
        sc = DetectionScenario(0.1, 0.2, gamma, AttackKind.FAW, periods=3)
        for sizes, bad in (([0.1, 0.0, -0.2], "0.0"), ([0.1, 0.85, 0.1], "0.85"),
                           ([0.1, np.nan, 0.1], "nan")):
            with pytest.raises(InvalidScenario, match=f"alpha={bad}, beta=0.2"):
                simulate_reward_density(sc, np.array(sizes))

    BASELINE_REFUSED = ("^the honest baseline must be a real number, a 1-D array of real "
                        "numbers or a HashrateSeries")

    @pytest.mark.parametrize("baseline, shape", [
        (np.array([[0.1, 0.1], [0.1, 0.1]]), r"\(2, 2\)"),  # not 4 samples for 2 periods
        (np.array([0.1 + 0.5j, 0.1]), r"\(2,\)"),  # not numpy's ComplexWarning
        (np.array(["0.1", "0.1"]), r"\(2,\)"),  # not a ValueError from astype
    ], ids=["2-D", "complex", "strings"])
    def test_array_other_than_real_one_dimensional_refused(self, baseline, shape):
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=2)
        with pytest.raises(InvalidScenario,
                           match=self.BASELINE_REFUSED + f", got ndarray of shape {shape}$"):
            simulate_reward_density(sc, baseline)

    def test_list_baseline_refused(self):
        # not a TypeError from float()
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=2)
        with pytest.raises(InvalidScenario, match=self.BASELINE_REFUSED + r", got list of "
                                                  r"shape \(2,\)$"):
            simulate_reward_density(sc, [0.1, 0.1])

    def test_variance_ratio_needs_enough_periods(self):
        sc = DetectionScenario(0.1, 0.2, 0.0, AttackKind.FAW, periods=10, seed=0)
        s = simulate_reward_density(sc, 0.1)
        from poolgame.detection import DegenerateVariance
        with pytest.raises(DegenerateVariance):
            variance_ratio(s, s)


class TestBlockRatioDetector:
    def test_published_numbers(self):
        expected, p = detect_bwh_block_ratio(0.2, 0.005, 2000)
        assert expected == pytest.approx(0.2 / 0.995, abs=1e-12)
        # exact tail is reported alongside the published 35.82% figure; the
        # tail convention there is not pinned down, so no equality assert
        assert 0.25 < p < 0.45

    def test_null_case(self):
        expected, p = detect_bwh_block_ratio(0.2, 0.0, 2000)
        assert expected == 0.2
        assert p == pytest.approx(0.5, abs=0.02)

    def test_larger_infiltration(self):
        expected, _ = detect_bwh_block_ratio(0.2, 0.05, 2000)
        assert expected == pytest.approx(0.2 / 0.95, abs=1e-12)

    # a victim power check_powers refuses raises its class; a bad
    # infiltration the detector's own
    @pytest.mark.parametrize("victim_power, infiltration, error", [
        pytest.param(victim, infiltration, error, id=f"{victim}-{infiltration}")
        for victim, infiltration, error in [
            (0.2, math.nan, InvalidScenario), (math.nan, 0.01, InvalidPowers),
            (0.2, -0.01, InvalidScenario), (0.2, 0.8, InvalidScenario),
            (0.0, 0.01, InvalidPowers), (0.7, 0.1, InvalidPowers)]
    ])
    def test_invalid_powers_rejected(self, victim_power, infiltration, error):
        with pytest.raises(error):
            detect_bwh_block_ratio(victim_power, infiltration, 2000)


class TestUnluckyMiners:
    def test_published_number(self):
        p = detect_unlucky_miners(0.005, 2000)
        assert p == pytest.approx(0.995**2000, abs=0.0)
        assert p == pytest.approx(4.5e-5, rel=0.05)

    def test_zero_power(self):
        assert detect_unlucky_miners(0.0, 2000) == 1.0

    def test_direct_evaluation(self):
        assert detect_unlucky_miners(0.01, 1000) == pytest.approx(0.99**1000)


class TestEvasion:
    def _attack_series(self, seed=5):
        hr = load_bundled_hashrates()
        sc = DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=720, seed=seed)
        honest = simulate_reward_density(
            DetectionScenario(0.1, 0.2, 0.0, AttackKind.FAW, periods=720, seed=seed),
            hr, pool="pool_a",
        )
        return simulate_reward_density(sc, hr, pool="pool_a"), honest

    def test_window_one_is_identity(self):
        attack, _ = self._attack_series()
        out = evasion_smoothing(attack, 1)
        assert np.allclose(out.samples, attack.samples)

    def test_variance_nonincreasing_in_window(self):
        attack, _ = self._attack_series()
        variances = [evasion_smoothing(attack, w).variance() for w in (1, 2, 3, 5, 8)]
        assert all(a >= b for a, b in zip(variances, variances[1:]))

    def test_small_windows_remain_detectable(self):
        attack, honest = self._attack_series()
        for w in (1, 2, 3, 4, 5):
            assert variance_ratio(evasion_smoothing(attack, w), honest) > 10.0

    def test_negative_random_phase_seed_rejected(self):
        # refused at the boundary, also where a window of 1 draws nothing
        attack, _ = self._attack_series()
        for window in (1, 5):
            for seed in (-1, 1.5):
                with pytest.raises(InvalidScenario, match=(
                        f"^random_phase_seed must be a non-negative integer, got {seed}$")):
                    evasion_smoothing(attack, window, random_phase_seed=seed)

    @pytest.mark.parametrize("window", [1, 2])
    def test_empty_series_refused(self, window):
        # not the mean of an empty slice, then numpy's "a cannot be empty"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidScenario, match="^cannot smooth an empty reward-density "
                                                      "series$"):
                evasion_smoothing(RewardDensitySeries(np.ones(0)), window)

    def test_random_phase_variant_still_detectable(self):
        attack, honest = self._attack_series()
        out = evasion_smoothing(attack, 5, random_phase_seed=7)
        assert variance_ratio(out, honest) > 10.0

    def test_partial_sharing_published_configuration(self):
        rep = evasion_partial_sharing(0.2, 0.2, 0.005)
        assert 100 * rep.attacker_gain == pytest.approx(0.48, abs=0.05)
        assert 100 * rep.loyal_loss == pytest.approx(2.01, abs=0.05)
        assert 100 * rep.min_share_fraction == pytest.approx(80.7, abs=1.0)

    def test_partial_sharing_zero_infiltration(self):
        rep = evasion_partial_sharing(0.2, 0.2, 0.0)
        assert rep.min_share_fraction == 0.0

    @pytest.mark.parametrize("power", [1e-17, 1e-16])
    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_partial_sharing_at_tiny_infiltration(self, power, kind):
        # the share tends to 1 - alpha; 1e-17 divided by zero and 1e-16
        # returned 1.0, the loss and the gain each cancelling to rounding noise
        rep = evasion_partial_sharing(0.2, 0.01, power, kind)
        assert rep.loyal_loss == pytest.approx(4.0 * power, rel=1e-12)
        assert rep.attacker_gain == pytest.approx(power, rel=1e-12)
        assert rep.min_share_fraction == pytest.approx(0.8, rel=1e-12)

    def test_partial_sharing_refuses_a_losing_attack(self):
        # it returned attacker_gain -0.074 and min_share_fraction 1.2
        with pytest.raises(InvalidScenario,
                           match=r"^the BWH attack loses: attacker_gain -0\.07407407407407407 < 0$"):
            evasion_partial_sharing(0.2, 0.2, 0.1, AttackKind.BWH)

    @given(alpha=st.floats(1e-6, 0.5), beta=st.floats(1e-6, 0.49),
           share=st.floats(0.0, 0.99), kind=st.sampled_from(AttackKind))
    @settings(max_examples=100, deadline=None)
    def test_partial_sharing_share_is_a_fraction(self, alpha, beta, share, kind):
        # an accepted attack gains, so the share it must pass through is in [0, 1]
        try:
            rep = evasion_partial_sharing(alpha, beta, share * alpha, kind)
        except InvalidScenario as exc:
            assert kind is AttackKind.BWH and "attack loses" in str(exc)
            return
        assert rep.attacker_gain >= 0.0 and 0.0 <= rep.min_share_fraction <= 1.0

    def test_partial_sharing_cross_checked_against_round_simulation(self):
        rep = evasion_partial_sharing(0.25, 0.15, 0.01)
        m = sampler_oracle.pair_matrix(Action(0.01, 0.0), Action())
        u, se, share, inv = payoff._sample_rounds([0.25, 0.15], m.faw, m.bwh, 400_000, 21)
        # loyal loss is the shortfall of home-derived density (the attacker's
        # own blocks through its own pot); gain adds the victim-pot cut back in
        assert 1.0 - inv[0, 0] * share[0] == pytest.approx(rep.loyal_loss, abs=3 * se[0])
        assert u[0] == pytest.approx(rep.attacker_gain, abs=3 * se[0])

    @pytest.mark.parametrize("alpha, beta, power, error, message", [
        (0.2, 0.2, 0.5, InvalidScenario, r"infiltration_power / alpha must be in \[0, 1\), "
                                         r"got 2\.5"),
        (0.2, 0.2, -0.1, InvalidScenario, r"infiltration_power / alpha must be in \[0, 1\), "
                                          r"got -0\.5"),
        (float("nan"), 0.2, 0.1, InvalidPowers, "powers must be positive numbers, got nan, 0.2"),
        (0.0, 0.2, 0.1, InvalidPowers, "powers must be positive numbers, got 0.0, 0.2"),
    ])
    def test_partial_sharing_follows_the_detector_rule(self, alpha, beta, power, error,
                                                       message):
        # an infiltration beyond the attacker's power returned a share above 1,
        # a NaN pool a NaN report, and a pool of 0 divided by zero
        with pytest.raises(error, match=f"^{message}$"):
            evasion_partial_sharing(alpha, beta, power)


class TestHashrateIngestion:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text(
            "timestamp,pool,hashrate\n"
            "2019-01-21T00:00:00,p,35.0\n"
            "2019-01-21T01:00:00,p,35.5\n"
        )
        hs = ingest_hashrate_csv(f)
        assert hs.pools() == ["p"]
        assert hs.rates["p"].size == 2

    def test_zero_rate_rejected(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("timestamp,pool,hashrate\n2019-01-21T00:00:00,p,0.0\n")
        with pytest.raises(NonPositiveRate):
            ingest_hashrate_csv(f)

    def test_non_monotone_timestamp_rejected(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text(
            "timestamp,pool,hashrate\n"
            "2019-01-21T01:00:00,p,35.0\n"
            "2019-01-21T00:00:00,p,35.5\n"
        )
        with pytest.raises(NonMonotoneTimestamp):
            ingest_hashrate_csv(f)

    def test_malformed_rows_rejected(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("timestamp,pool,hashrate\nnot-a-time,p,35.0\n")
        with pytest.raises(ParseError):
            ingest_hashrate_csv(f)
        f.write_text("bad,header,here,x\n")
        with pytest.raises(ParseError):
            ingest_hashrate_csv(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PoolGameError, match="cannot read hash-rate file"):
            ingest_hashrate_csv(tmp_path / "missing.csv")

    def test_bundled_fixture_matches_documented_calibration(self):
        hs = load_bundled_hashrates()
        assert hs.pools() == ["pool_a", "pool_b"]
        for pool, mean_rate in (("pool_a", 35.0), ("pool_b", 87.5)):
            r = hs.rates[pool]
            assert r.size == 720
            assert r.mean() == pytest.approx(mean_rate, rel=0.01)
            assert np.std(r / r.mean()) == pytest.approx(0.006, rel=0.35)

    def test_timestamps_are_a_time_axis_per_pool(self):
        hs = load_bundled_hashrates()
        assert set(hs.timestamps) == set(hs.rates)
        for pool, rates in hs.rates.items():
            times = hs.timestamps[pool]
            assert len(times) == rates.size == 720
            assert all(a < b for a, b in zip(times, times[1:]))

    def test_generator_round_trips_through_ingestion(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("\n".join(generate_synthetic_hashrates(hours=48)) + "\n")
        hs = ingest_hashrate_csv(f)
        assert all(r.size == 48 for r in hs.rates.values())

    def test_negative_generator_seed_rejected(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidScenario,
                               match=f"^seed must be a non-negative integer, got {seed}$"):
                generate_synthetic_hashrates(hours=2, seed=seed)

    def test_bundled_fixture_is_exactly_the_default_generation(self):
        from poolgame.detection import FIXTURE_PATH

        regenerated = "\n".join(generate_synthetic_hashrates()) + "\n"
        assert FIXTURE_PATH.read_text() == regenerated

    def test_normalization_targets_mean_power(self):
        hs = load_bundled_hashrates()
        a = hs.normalized("pool_a", 0.1)
        assert a.mean() == pytest.approx(0.1, rel=1e-12)

    def test_unknown_pool_names_the_pools(self):
        with pytest.raises(InvalidScenario, match="'nosuch'.*pool_a, pool_b"):
            load_bundled_hashrates().normalized("nosuch", 0.1)
