import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import sampler_oracle
from sampler_oracle import pair_matrix
from poolgame import payoff
from poolgame.model import (
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    DegenerateDenominator,
    InvalidScenario,
    PoolGameError,
    check_actions,
    check_count,
    check_powers,
    check_seed,
)
from poolgame.engine import npool_stage_payoffs_mc
from poolgame.payoff import (
    one_sided_attacker,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair,
    payoff_pair_raw,
)


def closure_residuals(a1, a2, act1: Action, act2: Action, u1, u2):
    """Substitute payoffs back into the four per-case reward-density equations,
    written out longhand as the independent check of the linear-system solve."""
    ext = 1.0 - a1 - a2

    def rhs(alpha_own, own, alpha_opp, opp, u_opp):
        f_i, b_i = own.faw, own.bwh
        f_o, b_o = opp.faw, opp.bwh
        den = alpha_own + f_o + b_o
        if b_i == 0.0 and b_o == 0.0:  # both FAW (covers no-attack)
            d = (alpha_own - f_i) / ((1 - f_i - f_o) * den)
            if f_o > 0:
                d += f_o * ext / ((1 - f_o) * den)
            if f_i > 0 and f_o > 0:
                d += (f_i * f_o / 2) * (1 / (1 - f_i) + 1 / (1 - f_o)) * ext / (
                    (1 - f_i - f_o) * den
                )
            return d + (u_opp + 1) * f_i / den - 1
        if b_i == 0.0 and f_o == 0.0:  # own FAW vs opponent BWH
            return (alpha_own - f_i) / ((1 - f_i - b_o) * den) + (u_opp + 1) * f_i / den - 1
        if f_i == 0.0 and b_o == 0.0:  # own BWH vs opponent FAW
            d = (alpha_own - b_i) / ((1 - b_i - f_o) * den)
            d += (f_o / (1 - b_i)) * ext / ((1 - b_i - f_o) * den)
            return d + (u_opp + 1) * b_i / den - 1
        return (alpha_own - b_i) / ((1 - b_i - b_o) * den) + (u_opp + 1) * b_i / den - 1

    return u1 - rhs(a1, act1, a2, act2, u2), u2 - rhs(a2, act2, a1, act1, u1)


def random_profile(rng):
    a1 = rng.uniform(0.02, 0.5)
    a2 = rng.uniform(0.02, min(0.5, 0.9 - a1))
    acts = []
    for alpha in (a1, a2):
        kind = rng.integers(3)
        x = rng.uniform(0, alpha * 0.95)
        acts.append(
            Action() if kind == 0 else Action(x, 0.0) if kind == 1 else Action(0.0, x)
        )
    return a1, a2, acts[0], acts[1]


class TestPayoffPair:
    def test_no_attack_is_zero(self):
        u = payoff_pair(0.2, 0.2, Action(), Action())
        assert u.u_i == 0.0 and u.u_j == 0.0

    def test_closed_pool_like_one_sided_attack(self):
        # small pool optimally FAW-attacks a 25% pool: +0.74% vs -0.09%
        f = optimal_faw_infiltration(0.031, 0.25)
        u = payoff_pair(0.031, 0.25, Action(f, 0.0), Action())
        assert u.u_i == pytest.approx(0.0074, abs=2e-4)
        assert u.u_j == pytest.approx(-0.0009, abs=2e-4)

    def test_closure_on_random_profiles(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a1, a2, act1, act2 = random_profile(rng)
            u = payoff_pair(a1, a2, act1, act2)
            r1, r2 = closure_residuals(a1, a2, act1, act2, u.u_i, u.u_j)
            assert abs(r1) < 1e-9 and abs(r2) < 1e-9

    def test_symmetry_under_equal_faw(self):
        for x in np.linspace(0.0, 0.19, 8):
            u = payoff_pair(0.2, 0.2, Action(x, 0.0), Action(x, 0.0))
            assert u.u_i == pytest.approx(u.u_j, abs=1e-12)

    def test_faw_dominates_bwh_for_attacker(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a1 = rng.uniform(0.02, 0.5)
            a2 = rng.uniform(0.02, min(0.5, 0.9 - a1))
            x = rng.uniform(0.0, a1)
            u_faw = payoff_pair(a1, a2, Action(x, 0.0), Action()).u_i
            u_bwh = payoff_pair(a1, a2, Action(0.0, x), Action()).u_i
            assert u_faw >= u_bwh - 1e-12

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            payoff_pair_raw(0.5, 0.5, 0.5, 0.0, 0.5, 0.0)

    def test_one_sided_helpers_match_pair(self):
        for kind, act in ((AttackKind.FAW, Action(0.06, 0)), (AttackKind.BWH, Action(0, 0.06))):
            u = payoff_pair(0.22, 0.18, act, Action())
            assert one_sided_attacker(kind, 0.22, 0.18, 0.06) == pytest.approx(u.u_i, abs=1e-12)
            assert one_sided_victim(kind, 0.22, 0.18, 0.06) == pytest.approx(u.u_j, abs=1e-12)


def two_branch_payoff_pair_raw(alpha_i, alpha_j, f_i, b_i, f_j, b_j, tolerance=ALGEBRAIC_TOL):
    """The batched kernel as it was before its fork term became branch-free:
    every operand broadcast to the full shape and both ``np.where`` branches
    evaluated. Kept as the bitwise oracle of ``payoff_pair_raw``."""
    f_i, b_i, f_j, b_j = np.broadcast_arrays(
        np.asarray(f_i, float), np.asarray(b_i, float),
        np.asarray(f_j, float), np.asarray(b_j, float),
    )
    x_i = f_i + b_i
    x_j = f_j + b_j
    ext = 1.0 - alpha_i - alpha_j

    def direct(alpha_own, own_f, own_b, opp_f, opp_b):
        own_x = own_f + own_b
        opp_x = opp_f + opp_b
        d = (alpha_own - own_x) / (1.0 - own_x - opp_x)
        both = (own_f > 0) & (opp_f > 0)
        d = d + np.where(
            both,
            opp_f * ext / (1.0 - opp_f)
            + (own_f * opp_f / 2.0)
            * (1.0 / (1.0 - own_f) + 1.0 / (1.0 - opp_f))
            * ext
            / (1.0 - own_f - opp_f),
            np.where(
                opp_f > 0,
                opp_f / (1.0 - own_b) * ext / (1.0 - own_b - opp_f),
                0.0,
            ),
        )
        return d

    den_i = alpha_i + x_j
    den_j = alpha_j + x_i
    live = 1.0 - x_i - x_j
    if np.any(live <= tolerance) or np.any(den_i <= tolerance) or np.any(den_j <= tolerance):
        raise DegenerateDenominator("actions leave no live block-finding power")

    d_i = direct(alpha_i, f_i, b_i, f_j, b_j) / den_i
    d_j = direct(alpha_j, f_j, b_j, f_i, b_i) / den_j
    k_i = x_i / den_i
    k_j = x_j / den_j
    c_i = d_i - 1.0 + k_i
    c_j = d_j - 1.0 + k_j
    det = 1.0 - k_i * k_j
    return (c_i + k_i * c_j) / det, (c_j + k_j * c_i) / det


@st.composite
def pool_components(draw, alpha, shapes):
    """One pool's (faw, bwh) arguments: each element honest, FAW or BWH, on a
    scalar, 1-D or 2-D grid; an all-zero component may be passed as 0.0."""
    shape = draw(st.sampled_from(shapes))
    fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    power = alpha * draw(arrays(np.float64, shape, elements=fraction))
    kind = draw(arrays(np.int8, shape, elements=st.integers(0, 2)))
    faw = np.where(kind == 1, power, 0.0)
    bwh = np.where(kind == 2, power, 0.0)
    if draw(st.booleans()):
        faw, bwh = (0.0 if not np.any(c) else c for c in (faw, bwh))
    if shape == () and draw(st.booleans()):
        faw, bwh = float(faw), float(bwh)
    return faw, bwh


@st.composite
def kernel_inputs(draw):
    alpha_i = draw(st.floats(0.01, 0.5))
    alpha_j = draw(st.floats(0.01, min(0.5, 0.95 - alpha_i)))
    k, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shapes = [(), (m,), (k, 1), (k, m)]
    f_i, b_i = draw(pool_components(alpha_i, shapes))
    f_j, b_j = draw(pool_components(alpha_j, shapes))
    return alpha_i, alpha_j, f_i, b_i, f_j, b_j


def float_bits(a):
    return np.asarray(a, np.float64).view(np.uint64)


class TestBranchFreeKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_bitwise_equal_to_two_branch_oracle(self, inputs):
        got = payoff_pair_raw(*inputs)
        want = two_branch_payoff_pair_raw(*inputs)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            np.testing.assert_array_equal(float_bits(g), float_bits(w))


POOL_KINDS = ("honest", "faw", "bwh")


def pool_action(kind, power):
    """(faw, bwh) floats of one pool playing ``kind`` with ``power``."""
    return {"honest": (0.0, 0.0), "faw": (power, 0.0), "bwh": (0.0, power)}[kind]


@st.composite
def scalar_profiles(draw, kind_i, kind_j):
    alpha_i = draw(st.floats(0.01, 0.5))
    alpha_j = draw(st.floats(0.01, min(0.5, 0.95 - alpha_i)))
    fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    a_i = pool_action(kind_i, alpha_i * draw(fraction))
    a_j = pool_action(kind_j, alpha_j * draw(fraction))
    return alpha_i, alpha_j, *a_i, *a_j


class TestFloatPath:
    """Python-float arguments skip the 0-d arrays; the bits must not move."""

    @pytest.mark.parametrize("kind_i", POOL_KINDS)
    @pytest.mark.parametrize("kind_j", POOL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_array_path(self, kind_i, kind_j, data):
        alpha_i, alpha_j, *parts = data.draw(scalar_profiles(kind_i, kind_j))
        got = payoff_pair_raw(alpha_i, alpha_j, *parts)
        want = payoff_pair_raw(alpha_i, alpha_j, *(np.asarray(p) for p in parts))
        assert all(type(g) is float for g in got)
        assert all(type(w) is np.float64 for w in want)
        for g, w in zip(got, want):
            assert float_bits(g) == float_bits(w)

    @pytest.mark.parametrize("args", [
        (0.5, 0.5, 0.5, 0.0, 0.5, 0.0),  # no live power left
        (0.0, 0.2, 0.0, 0.0, 0.0, 0.0),  # nothing to divide pool i's pot by
        (0.2, 0.0, 0.0, 0.0, 0.0, 0.0),  # nor pool j's
    ])
    def test_degenerate_inputs_raise_on_both_paths(self, args):
        alpha_i, alpha_j, *parts = args
        with pytest.raises(DegenerateDenominator):
            payoff_pair_raw(alpha_i, alpha_j, *parts)
        with pytest.raises(DegenerateDenominator):
            payoff_pair_raw(alpha_i, alpha_j, *(np.asarray(p) for p in parts))

    def test_numpy_scalar_inputs_still_work(self):
        parts = (0.05, 0.0, 0.0, 0.02)
        got = payoff_pair_raw(0.2, 0.2, *(np.float64(p) for p in parts))
        want = payoff_pair_raw(0.2, 0.2, *parts)
        for g, w in zip(got, want):
            assert float_bits(g) == float_bits(w)
        u = payoff_pair(np.float64(0.2), np.float64(0.2),
                        Action(np.float64(0.05), 0.0), Action(0.0, np.float64(0.02)))
        assert (u.u_i, u.u_j) == want


class TestOptimalInfiltration:
    def test_grid_argmax_agreement(self):
        # closed forms vs a dense grid argmax over a power grid
        powers = np.linspace(0.03, 0.45, 20)
        grid_err_f = grid_err_b = 0.0
        for a1 in powers:
            for a2 in powers:
                if a1 + a2 > 0.9:
                    continue
                fg = np.linspace(0.0, a1, 4001)
                best_f = fg[np.argmax(one_sided_attacker(AttackKind.FAW, a1, a2, fg))]
                best_b = fg[np.argmax(one_sided_attacker(AttackKind.BWH, a1, a2, fg))]
                grid_err_f = max(grid_err_f, abs(optimal_faw_infiltration(a1, a2) - best_f))
                grid_err_b = max(grid_err_b, abs(optimal_bwh_infiltration(a1, a2) - best_b))
        assert grid_err_f < 1e-3 and grid_err_b < 1e-3

    def test_symmetric_bwh_optimum_matches_across_roles(self):
        assert optimal_bwh_infiltration(0.2, 0.2) == pytest.approx(
            optimal_bwh_infiltration(0.2, 0.2)
        )

    def test_small_victim_continuity(self):
        m = optimal_faw_infiltration(0.2, 0.001)
        fg = np.linspace(0.0, 0.2, 200001)
        best = fg[np.argmax(one_sided_attacker(AttackKind.FAW, 0.2, 0.001, fg))]
        assert m == pytest.approx(best, abs=1e-3)
        assert m < 0.02  # shrinks with the victim

    def test_table_setup_interior(self):
        # frozen from an independent 400k-point grid argmax of the one-sided payoffs
        assert optimal_faw_infiltration(0.25, 0.15) == pytest.approx(0.10355, abs=1e-5)
        assert optimal_bwh_infiltration(0.25, 0.15) == pytest.approx(0.02352, abs=1e-5)
        for fn in (optimal_faw_infiltration, optimal_bwh_infiltration):
            assert 0.0 < fn(0.25, 0.15) < 0.25


NAN = float("nan")


class TestSimulateRounds:
    """The two-pool round simulation that ``simulate`` prints: the engine's
    ``npool_stage_payoffs_mc`` on a 2x2 action matrix."""

    def test_no_attack_near_zero(self):
        u, se = npool_stage_payoffs_mc([0.2, 0.2], pair_matrix(Action(), Action()),
                                       rounds=200_000, seed=0)
        assert abs(u[0]) <= 3 * max(se[0], 1e-12)
        assert abs(u[1]) <= 3 * max(se[1], 1e-12)

    def test_bwh_victim_block_share(self):
        # 20% victim hosting 0.5% withholding power finds 0.2/0.995 of blocks
        m = pair_matrix(Action(0.0, 0.005), Action())
        _, _, share, _ = payoff._sample_rounds([0.2, 0.2], m.faw, m.bwh, 500_000, 3)
        expected = 0.2 / 0.995
        se = np.sqrt(expected * (1 - expected) / 500_000)
        assert share[1] == pytest.approx(expected, abs=4 * se)

    def test_agrees_with_exact_payoffs(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            a1, a2, act1, act2 = random_profile(rng)
            u = payoff_pair(a1, a2, act1, act2)
            sim, se = npool_stage_payoffs_mc([a1, a2], pair_matrix(act1, act2), rounds=150_000,
                                             seed=int(rng.integers(1 << 31)))
            assert abs(sim[0] - u.u_i) < 3 * max(se[0], 1e-9)
            assert abs(sim[1] - u.u_j) < 3 * max(se[1], 1e-9)

    def test_deterministic_for_seed(self):
        m = pair_matrix(Action(0.1, 0), Action(0, 0.05))
        r1 = npool_stage_payoffs_mc([0.3, 0.2], m, rounds=50_000, seed=11)
        r2 = npool_stage_payoffs_mc([0.3, 0.2], m, rounds=50_000, seed=11)
        assert all(np.array_equal(a, b) for a, b in zip(r1, r2, strict=True))

    def test_negative_seed_rejected(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidScenario,
                               match=f"seed must be a non-negative integer, got {seed}"):
                npool_stage_payoffs_mc([0.2, 0.2], pair_matrix(Action(0.05, 0), Action()),
                                       rounds=100, seed=seed)

    @pytest.mark.parametrize("alphas, a1, a2, rounds, seed", [
        ((0.6, 0.2), Action(), Action(), 100, 0),
        ((NAN, 0.2), Action(0.05, 0.0), Action(), 100, 0),
        ((0.2, 0.2), Action(0.3, 0.0), Action(), 100, 0),
        ((0.2, 0.2), Action(-0.1, 0.0), Action(), 100, 0),
        ((0.2, 0.2), Action(NAN, 0.0), Action(), 100, 0),
        ((0.2, 0.2), Action(), Action(0.0, NAN), 100, 0),
        ((0.2, 0.2), Action(0.05, 0.02), Action(), 100, 0),
        ((0.2, 0.2), Action(0.0, 0.3), Action(-0.1, 0.0), 100, 0),  # both: pool 0's is named
        ((0.2, 0.2), Action(0.05, 0.0), Action(), 0, 0),
        ((0.2, 0.2), Action(0.05, 0.0), Action(), 100, -1),
    ], ids=["power 0.6", "power nan", "over its power", "negative", "nan in pool 0",
            "nan in pool 1", "faw and bwh", "both pools", "rounds 0", "seed -1"])
    def test_refused_as_the_rules_refuse(self, alphas, a1, a2, rounds, seed):
        # the rules in the order a two-pool simulation applies them
        with pytest.raises(PoolGameError) as want:
            check_powers(*alphas)
            check_actions(alphas[0], a1.faw, a1.bwh)
            check_actions(alphas[1], a2.faw, a2.bwh)
            check_count(rounds, "Monte-Carlo rounds")
            check_seed(seed, "Monte-Carlo seed")
        with pytest.raises(PoolGameError) as got:
            npool_stage_payoffs_mc(alphas, pair_matrix(a1, a2), rounds, seed)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def _scenario(alphas, faw=(), bwh=()):
    """Pool powers and (FAW, BWH) matrices from (attacker, host, power) triples."""
    n = len(alphas)
    m = {"faw": np.zeros((n, n)), "bwh": np.zeros((n, n))}
    for key, triples in (("faw", faw), ("bwh", bwh)):
        for i, j, x in triples:
            m[key][i, j] = x
    return np.array(alphas), m["faw"], m["bwh"]


# simulate's profile (pool 0 forks in pool 1, pool 1 withholds in pool 0) and
# Table 3's stages: the FAW scenario's attack, one flag in each of four
# hosts, and the BWH scenario's retaliation, everything against pool 0
TABLE3_POWERS = [0.25, 0.15, 0.1, 0.035, 0.02]
SIMULATE_STAGE = _scenario([0.2, 0.2], [(0, 1, 0.05)], [(1, 0, 0.02)])
TABLE3_FAW_STAGE = _scenario(TABLE3_POWERS, [(0, 1, 0.0567), (0, 2, 0.0378),
                                             (0, 3, 0.0132), (0, 4, 0.0076)])
TABLE3_RETALIATION = _scenario(TABLE3_POWERS, [(1, 0, 0.0692), (2, 0, 0.0471)],
                               [(3, 0, 0.0045), (4, 0, 0.0025)])


class RecordingGenerator:
    """A numpy generator that records the name of each method it is asked for."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        self._draws.append(name)
        return getattr(self._rng, name)


@st.composite
def sampler_scenarios(draw):
    """n = 2-5 pools; 1-8 FAW flags and some BWH detachments on distinct
    pairs, each pool spending at most its power; and either the package's
    batch size or one small enough that a run spans many batches. No flag
    and a single round are the explicit examples."""
    n = draw(st.integers(2, 5))
    alphas = np.array(draw(st.lists(st.floats(0.02, 0.3), min_size=n, max_size=n)))
    alphas *= min(1.0, 0.95 / alphas.sum())
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    n_faw = draw(st.integers(1, min(8, len(pairs))))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=n_faw, unique=True,
                           max_size=len(pairs)))
    faw, bwh = [], []
    for k, (i, j) in enumerate(chosen):
        x = alphas[i] / (n - 1) * draw(st.floats(0.05, 1.0))
        (faw if k < n_faw else bwh).append((i, j, x))
    rounds = draw(st.integers(2, 50_000))
    chunk = draw(st.one_of(st.none(), st.integers(1, 256)))
    return (*_scenario(alphas, faw, bwh), rounds, chunk)


class TestSamplerAgainstOracle:
    """The sampler settles flag-first rounds one flag row at a time; the
    oracle (``tests/sampler_oracle.py``) is the (F, m) cumsum/argmax version
    it replaced. Both draw the same numbers, except that the sampler skips
    the per-round draws where every flag has one host, so all four returns
    must be equal bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(sampler_scenarios(), st.integers(0, 2**32 - 1))
    # no FAW flag: every round settles by its multinomial category
    @example((*_scenario([0.25, 0.2, 0.1], bwh=[(0, 1, 0.03)]), 10_000, None), 1)
    # a mutual fork where most power forks, one round only, and 8 flags
    @example((*_scenario([0.4, 0.3], [(0, 1, 0.3), (1, 0, 0.25)]), 1, None), 2)
    @example((*_scenario([0.4, 0.3], [(0, 1, 0.3), (1, 0, 0.25)]), 5_000, None), 3)
    @example((*_scenario([0.2, 0.2, 0.15, 0.1, 0.1],
                         [(i, j, 0.02) for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0),
                                                    (2, 1), (3, 0), (4, 0))]),
              5_000, None), 4)
    # one pool hosts four flags, in batches of 2 rounds whose boundaries fall
    # inside the flags' spans
    @example((*_scenario([0.3, 0.1, 0.1, 0.1, 0.05],
                         [(1, 0, 0.05), (2, 0, 0.04), (3, 0, 0.06), (4, 0, 0.03)]),
              5_000, 9), 5)
    # simulate's profile: one flag, and BWH back into its attacker
    @example((*SIMULATE_STAGE, 50_000, None), 6)
    # Table 3's BWH-scenario retaliation stage: every flag and BWH power in pool 0
    @example((*TABLE3_RETALIATION, 50_000, None), 7)
    def test_bit_identical_to_oracle(self, scenario, seed):
        alphas, faw, bwh, rounds, chunk = scenario
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(payoff, "_CHUNK", chunk)
            got = payoff._sample_rounds(alphas, faw, bwh, rounds, seed)
            want = sampler_oracle.sample_rounds(alphas, faw, bwh, rounds, seed)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("scenario, one_host", [
        (SIMULATE_STAGE, True),
        (TABLE3_RETALIATION, True),
        (TABLE3_FAW_STAGE, False),
        (_scenario([0.4, 0.3], [(0, 1, 0.3), (1, 0, 0.25)]), False),
    ], ids=["simulate", "table 3 retaliation", "table 3 faw", "mutual fork"])
    def test_one_host_stage_draws_only_the_multinomial(self, monkeypatch, scenario, one_host):
        # the host of every flag wins every flag-first round, so no per-round
        # draw is made for them; flags in two hosts still draw round by round
        draws = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: RecordingGenerator(make(seed), draws))
        payoff._sample_rounds(*scenario, 20_000, 5)
        assert draws[0] == "multinomial"
        assert (draws == ["multinomial"]) is one_host
