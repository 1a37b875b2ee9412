import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolgame import model
from poolgame.model import (
    Action,
    AttackKind,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    check_powers,
    check_weight,
    validate_action,
)


class TestAction:
    def test_no_attack_ok(self):
        a = validate_action(Action(0.0, 0.0), 0.2)
        assert a.is_zero and a.kind is None

    def test_one_sided_ok(self):
        a = validate_action(Action(0.1, 0.0), 0.2)
        assert a.kind is AttackKind.FAW and a.power == 0.1

    def test_exclusivity_violated(self):
        with pytest.raises(InvalidAction):
            validate_action(Action(0.1, 0.05), 0.2)

    def test_bounds(self):
        with pytest.raises(InvalidAction):
            validate_action(Action(0.25, 0.0), 0.2)
        with pytest.raises(InvalidAction):
            validate_action(Action(-0.01, 0.0), 0.2)

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
    """A single pool's power, as ``GameConfig`` checks it."""

    @pytest.mark.parametrize("power", [0.0, -0.1, 0.51, 1.0])
    def test_rejects_out_of_range(self, power):
        with pytest.raises(InvalidPowers):
            GameConfig(powers=(power,))

    def test_half_is_allowed(self):
        assert GameConfig(powers=(0.5,)).powers == (0.5,)


class TestGameConfig:
    def test_valid(self):
        cfg = GameConfig(powers=(0.25, 0.15), discount=0.9)
        assert cfg.powers == (0.25, 0.15)

    @pytest.mark.parametrize("discount", [0.0, 1.0, 1.5])
    def test_discount_range(self, discount):
        with pytest.raises(InvalidScenario):
            GameConfig(powers=(0.25, 0.15), discount=discount)

    def test_powers_sum(self):
        with pytest.raises(InvalidPowers, match="powers sum to 1.2000000000000002 >= 1"):
            GameConfig(powers=(0.4, 0.4, 0.4))


def scalar_rule(cell):
    """The power rule on one cell of floats, a pool at a time: None if the
    cell passes, else the message ``check_powers`` raises for it."""
    for p in cell:
        if not p > 0.0:  # NaN fails too
            return f"powers must be positive numbers, got {', '.join(map(str, cell))}"
    for p in cell:
        if not p <= 0.5:
            return "no pool may hold more than half the network"
    total = 0.0
    for p in cell:
        total += p
    if not total < 1.0:
        return f"powers sum to {total} >= 1"
    return None


# values at and past every edge of a pool's power
EDGE_POWERS = [math.nan, 0.0, -0.0, 5e-324, 0.25, 0.5, math.nextafter(0.5, 1.0), 1.0, -0.1,
               math.inf, -math.inf]
POWER = st.one_of(st.sampled_from(EDGE_POWERS), st.floats(0.0, 0.5), st.floats())


@st.composite
def near_one_cell(draw, n):
    """n powers summing to 1 - 2^-53, 1 or 1 + 2^-52: dyadic pools, then the
    last one making up the rest."""
    head = draw(st.lists(st.integers(1, 512).map(lambda k: k / 1024),
                         min_size=n - 1, max_size=n - 1))
    return [*head, (1.0 - sum(head)) + draw(st.sampled_from([-2**-53, 0.0, 2**-52]))]


@st.composite
def power_arguments(draw):
    """``check_powers`` arguments for 1-7 pools on a grid of cells, each a
    float or an array that broadcasts to the grid."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    size = math.prod(shape)
    cell = st.lists(POWER, min_size=n, max_size=n)
    if n > 1:
        cell = st.one_of(cell, near_one_cell(n))
    grid = np.array(draw(st.lists(cell, min_size=size, max_size=size)), float)
    grid = grid.T.reshape(n, *shape)
    # a float broadcasts everywhere; a row or a column along one axis of two
    forms = ["float", "array", "row", "column"][:(1, 2, 4)[len(shape)]]
    args = []
    for values in grid:
        form = draw(st.sampled_from(forms))
        if form == "float":
            args.append(float(np.ravel(values)[0]))
        elif form == "row":
            args.append(values[0])
        elif form == "column":
            args.append(values[:, :1])
        else:
            args.append(values)
    return args


class TestCheckPowers:
    @given(power_arguments())
    @settings(max_examples=300, deadline=None)
    def test_cells_follow_the_scalar_rule(self, args):
        # the cells of the arguments' broadcast, in row order
        shape = np.broadcast_shapes(*map(np.shape, args))
        cells = [tuple(float(np.broadcast_to(a, shape)[i]) for a in args)
                 for i in np.ndindex(shape)]
        verdicts = [scalar_rule(cell) for cell in cells]
        first = next((i for i, v in enumerate(verdicts) if v is not None), None)
        if first is None:
            assert check_powers(*args) is None
            return
        with pytest.raises(InvalidPowers) as err:
            check_powers(*args)
        assert str(err.value) == verdicts[first]
        assert err.value.index == first

    def test_floats_that_pass_make_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(model, "np", None)
        assert check_powers(0.25, 0.15, 0.5) is None

    def test_a_float_refusal_is_cell_zero(self):
        with pytest.raises(InvalidPowers, match="powers sum to 1.0 >= 1") as err:
            check_powers(0.5, 0.5)
        assert err.value.index == 0


class TestCheckWeight:
    @pytest.mark.parametrize("k", [0.0, 0.5, 0.999, 1.0 - 2**-53])
    def test_floats_in_the_interval_pass_unchanged(self, k):
        assert check_weight(k) is k

    def test_floats_that_pass_make_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(model, "np", None)
        assert check_weight(0.5) == 0.5

    @pytest.mark.parametrize("k", [-0.5, -0.0 - 5e-324, 1.0, 1.5, math.inf, math.nan])
    def test_floats_outside_refused(self, k):
        with pytest.raises(InvalidScenario) as err:
            check_weight(k)
        assert str(err.value) == f"k must be in [0, 1), got {k}"

    def test_the_name_is_the_callers(self):
        with pytest.raises(InvalidScenario, match=r"^--k must be in \[0, 1\), got 1.5$"):
            check_weight(1.5, "--k")

    def test_an_array_passes_unchanged(self):
        k = np.array([0.0, 0.3, 0.999])
        assert check_weight(k) is k
        assert check_weight(np.array([])).size == 0

    @pytest.mark.parametrize("bad", [-0.5, 1.0, 1.5, math.nan])
    def test_an_array_names_its_first_offending_entry(self, bad):
        k = np.array([0.2, bad, 0.3, 2.0])
        with pytest.raises(InvalidScenario) as err:
            check_weight(k)
        assert str(err.value) == f"k must be in [0, 1), got {bad}"
