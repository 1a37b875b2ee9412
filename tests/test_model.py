import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolgame.model import (
    Action,
    AttackKind,
    EmptyInput,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    NonPositiveEntry,
    PoolProfile,
    normalize_powers,
    validate_action,
)


class TestAction:
    def test_no_attack_ok(self):
        a = validate_action(Action(0.0, 0.0), PoolProfile(0, 0.2))
        assert a.is_zero and a.kind is None

    def test_one_sided_ok(self):
        a = validate_action(Action(0.1, 0.0), PoolProfile(0, 0.2))
        assert a.kind is AttackKind.FAW and a.power == 0.1

    def test_exclusivity_violated(self):
        with pytest.raises(InvalidAction):
            validate_action(Action(0.1, 0.05), PoolProfile(0, 0.2))

    def test_bounds(self):
        with pytest.raises(InvalidAction):
            validate_action(Action(0.25, 0.0), PoolProfile(0, 0.2))
        with pytest.raises(InvalidAction):
            validate_action(Action(-0.01, 0.0), PoolProfile(0, 0.2))

    @given(
        f=st.floats(0, 0.5, allow_nan=False),
        b=st.floats(0, 0.5, allow_nan=False),
        alpha=st.floats(0.01, 0.5, allow_nan=False),
    )
    def test_accepted_actions_satisfy_invariants(self, f, b, alpha):
        try:
            a = validate_action(Action(f, b), alpha)
        except InvalidAction:
            assert (f > 0 and b > 0) or f > alpha or b > alpha
        else:
            assert a.faw * a.bwh == 0.0
            assert 0.0 <= a.faw <= alpha and 0.0 <= a.bwh <= alpha


class TestPoolProfile:
    @pytest.mark.parametrize("power", [0.0, -0.1, 0.51, 1.0])
    def test_rejects_out_of_range(self, power):
        with pytest.raises(InvalidPowers):
            PoolProfile(0, power)

    def test_half_is_allowed(self):
        assert PoolProfile(0, 0.5).power == 0.5


class TestNormalizePowers:
    def test_symmetric(self):
        assert normalize_powers([2, 2]) == [0.5, 0.5]

    def test_published_power_distribution(self):
        got = normalize_powers([25, 15, 10, 3.5, 2, 44.5])
        assert np.allclose(got, [0.25, 0.15, 0.10, 0.035, 0.02, 0.445])

    def test_hand_arithmetic(self):
        assert normalize_powers([1, 3]) == [0.25, 0.75]

    def test_errors(self):
        with pytest.raises(EmptyInput):
            normalize_powers([])
        with pytest.raises(NonPositiveEntry):
            normalize_powers([1.0, 0.0])

    @given(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8))
    def test_idempotent_and_order_preserving(self, raw):
        once = normalize_powers(raw)
        assert abs(sum(once) - 1.0) < 1e-9
        twice = normalize_powers(once)
        assert np.allclose(once, twice)
        assert np.allclose(np.argsort(raw), np.argsort(once))


class TestGameConfig:
    def _pools(self):
        return (PoolProfile(0, 0.25), PoolProfile(1, 0.15))

    def test_valid(self):
        cfg = GameConfig(pools=self._pools(), discount=0.9)
        assert cfg.powers == (0.25, 0.15)

    @pytest.mark.parametrize("discount", [0.0, 1.0, 1.5])
    def test_discount_range(self, discount):
        with pytest.raises(InvalidScenario):
            GameConfig(pools=self._pools(), discount=discount)

    def test_duplicate_ids(self):
        with pytest.raises(InvalidScenario):
            GameConfig(pools=(PoolProfile(0, 0.2), PoolProfile(0, 0.2)))

    def test_powers_sum(self):
        pools = tuple(PoolProfile(i, 0.4) for i in range(3))
        with pytest.raises(InvalidPowers):
            GameConfig(pools=pools)
