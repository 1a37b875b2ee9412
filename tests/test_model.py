import pytest
from hypothesis import given, strategies as st

from poolgame.model import (
    Action,
    AttackKind,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    PoolProfile,
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
