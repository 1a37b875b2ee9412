import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sampler_oracle import pair_matrix
from poolgame import model
from poolgame.detection import (
    DetectionScenario,
    RewardDensitySeries,
    detect_bwh_block_ratio,
    detect_unlucky_miners,
    evasion_partial_sharing,
    evasion_smoothing,
    generate_synthetic_hashrates,
    geometric_param,
)
from poolgame.engine import (
    ArsAgent,
    OptimalOneShotAttacker,
    PairwiseActionMatrix,
    npool_stage_payoffs_mc,
    optimal_simultaneous_attack,
    run_npool,
    two_stage_ratio_sweep,
    two_stage_sweep,
)
from poolgame.equilibrium import audit_ipbwh_nonempty, delta_bound
from poolgame.model import (
    Action,
    AttackKind,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    InvalidScenario,
    PoolGameError,
    check_actions,
    check_count,
    check_kind,
    check_pool,
    check_powers,
    check_weight,
)


class TestAction:
    def test_no_attack_ok(self):
        a = Action(0.0, 0.0)
        assert check_actions(0.2, a.faw, a.bwh) is None
        assert a.is_zero and a.kind is None

    def test_one_sided_ok(self):
        a = Action(0.1, 0.0)
        assert check_actions(0.2, a.faw, a.bwh) is None
        assert a.kind is AttackKind.FAW and a.power == 0.1

    def test_exclusivity_violated(self):
        with pytest.raises(InvalidAction,
                           match=r"^FAW and BWH are mutually exclusive, got 0.1, 0.05$"):
            check_actions(0.2, 0.1, 0.05)

    def test_bounds(self):
        with pytest.raises(InvalidAction,
                           match=r"^infiltration power 0.25 exceeds owner power 0.2$"):
            check_actions(0.2, 0.25, 0.0)
        with pytest.raises(InvalidAction, match="non-negative numbers, got -0.01, 0.0$"):
            check_actions(0.2, -0.01, 0.0)

    @given(
        f=st.floats(0, 0.5, allow_nan=False),
        b=st.floats(0, 0.5, allow_nan=False),
        alpha=st.floats(0.01, 0.5, allow_nan=False),
    )
    def test_accepted_actions_satisfy_invariants(self, f, b, alpha):
        try:
            check_actions(alpha, f, b)
        except InvalidAction:
            assert (f > 0 and b > 0) or f > alpha or b > alpha
        else:
            assert f * b == 0.0
            assert 0.0 <= f <= alpha and 0.0 <= b <= alpha


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

    @pytest.mark.parametrize("k", ["0.5", None, [0.5], 0.5j])
    def test_non_numbers_refused(self, k):
        # each raised TypeError from the comparison
        with pytest.raises(InvalidScenario) as err:
            check_weight(k)
        assert str(err.value) == f"k must be in [0, 1), got {k!r}"

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


def action_rule(alpha, f, b):
    """The action rule on one entry of floats, a test at a time: None if the
    entry passes, else the message ``check_actions`` raises for it."""
    if not (f >= 0.0 and b >= 0.0):  # NaN fails too
        return f"infiltration powers must be non-negative numbers, got {f}, {b}"
    if f > 0.0 and b > 0.0:
        return f"FAW and BWH are mutually exclusive, got {f}, {b}"
    if not (f <= alpha and b <= alpha):
        return f"infiltration power {max(f, b)} exceeds owner power {alpha}"
    return None


# values at and past every edge of an infiltration power; zeros, small powers
# and valid owners are common, so that whole sweeps and matrices pass too
EDGE_ACTIONS = [math.nan, 0.0, -0.0, 5e-324, -5e-324, 0.1, 0.25, math.nextafter(0.25, 1.0),
                0.5, 1.0, -0.1, math.inf, -math.inf]
ACTION = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.floats(0.0, 0.01),
                   st.sampled_from(EDGE_ACTIONS), st.floats())
OWNER = st.one_of(st.floats(0.01, 0.5), st.floats(0.01, 0.5), POWER)


@st.composite
def action_arguments(draw):
    """``check_actions`` arguments in the three forms its callers use: three
    floats; a sweep of one-sided attacks, with the owner's power an array or
    a float; or (n, n) FAW and BWH matrices with ``alpha[:, None]``."""
    form = draw(st.sampled_from(["floats", "sweep", "matrix"]))
    if form == "floats":
        return [draw(OWNER), draw(ACTION), draw(ACTION)]
    if form == "sweep":
        m = draw(st.integers(0, 6))
        power = np.array(draw(st.lists(ACTION, min_size=m, max_size=m)), float)
        alpha = (np.array(draw(st.lists(OWNER, min_size=m, max_size=m)), float)
                 if draw(st.booleans()) else draw(OWNER))
        return [alpha, power, 0.0] if draw(st.booleans()) else [alpha, 0.0, power]
    n = draw(st.integers(1, 4))
    alpha = np.array(draw(st.lists(OWNER, min_size=n, max_size=n)), float)
    faw, bwh = (np.array(draw(st.lists(ACTION, min_size=n * n, max_size=n * n)),
                         float).reshape(n, n) for _ in range(2))
    return [alpha[:, None], faw, bwh]


class TestCheckActions:
    @given(action_arguments())
    @settings(max_examples=300, deadline=None)
    def test_entries_follow_the_scalar_rule(self, args):
        # the entries of the arguments' broadcast, in row order
        shape = np.broadcast_shapes(*map(np.shape, args))
        entries = [tuple(float(np.broadcast_to(a, shape)[i]) for a in args)
                   for i in np.ndindex(shape)]
        first = next((v for v in (action_rule(*e) for e in entries) if v is not None), None)
        if first is None:
            assert check_actions(*args) is None
            return
        with pytest.raises(InvalidAction) as err:
            check_actions(*args)
        assert str(err.value) == first

    def test_floats_that_pass_make_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(model, "np", None)
        assert check_actions(0.25, 0.25, 0.0) is None
        assert check_actions(0.25, 0.0, 0.1) is None
        assert check_actions(0.25, 0, 0) is None

    def test_the_overdraft_is_exact(self):
        check_actions(0.2, 0.2, 0.0)
        with pytest.raises(InvalidAction, match="exceeds owner power 0.2$"):
            check_actions(0.2, 0.0, math.nextafter(0.2, 1.0))


COUNTS = st.one_of(st.integers(-3, 5), st.sampled_from([2.5, 3.0, math.nan, math.inf, -math.inf,
                                                        "3", None]),
                   st.integers(-3, 5).map(np.int64), st.floats())


class TestCheckPool:
    @pytest.mark.parametrize("i", [0, 2, np.int64(1)])
    def test_indices_pass(self, i):
        check_pool(i, 3)

    @pytest.mark.parametrize("i", [3, -1, 1.5, 1.0, True, math.nan, "1", None])
    def test_others_refused(self, i):
        with pytest.raises(InvalidScenario) as err:
            check_pool(i, 3, "victim")
        assert str(err.value) == f"victim {i} is not a pool index in [0, 3)"


class TestCheckKind:
    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_members_pass(self, kind):
        assert check_kind(kind) is kind

    # a string or None ran as BWH: two_stage_sweep([0.1], "faw") gave the BWH
    # attack ratio 0.0542, geometric_param(0.2, 0.2, 0.1, "faw") the BWH
    # 0.4737, and Action.of("faw", 0.1) was Action(0.0, 0.1)
    @pytest.mark.parametrize("kind", ["faw", None])
    @pytest.mark.parametrize("call", [
        lambda kind: Action.of(kind, 0.1),
        lambda kind: two_stage_sweep([0.1], kind),
        lambda kind: two_stage_ratio_sweep([0.5], [0.2], kind),
        lambda kind: optimal_simultaneous_attack([0.2, 0.2, 0.1], 0, kind),
        lambda kind: OptimalOneShotAttacker(kind),
        lambda kind: DetectionScenario(0.1, 0.2, 0.05, kind),
        lambda kind: geometric_param(0.2, 0.2, 0.1, kind),
        lambda kind: evasion_partial_sharing(0.2, 0.2, 0.01, kind),
    ], ids=["Action.of", "two_stage_sweep", "two_stage_ratio_sweep",
            "optimal_simultaneous_attack", "OptimalOneShotAttacker", "DetectionScenario",
            "geometric_param", "evasion_partial_sharing"])
    def test_entries_refuse_other_values(self, call, kind):
        with pytest.raises(InvalidScenario) as err:
            call(kind)
        assert str(err.value) == f"attack kind must be an AttackKind, got {kind!r}"


class TestCheckCount:
    @given(n=COUNTS, least=st.integers(0, 3))
    def test_integers_of_at_least_least_pass(self, n, least):
        if isinstance(n, (int, np.integer)) and n >= least:
            assert check_count(n, "n", least) is n
            return
        with pytest.raises(InvalidScenario) as err:
            check_count(n, "n", least)
        assert str(err.value) == f"n must be an integer of at least {least}, got {n}"

    def test_integers_that_pass_make_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(model, "np", None)
        assert check_count(1, "n") == 1
        assert check_count(2, "n", least=2) == 2

    @pytest.mark.parametrize("n", [0, -1, 2.5, 1.0, math.nan])
    def test_the_name_is_the_callers(self, n):
        with pytest.raises(InvalidScenario, match=rf"^--cells must be an integer of at least 1, "
                                                  rf"got {n}$"):
            check_count(n, "--cells")


# every count a library function takes: (call with the count, its name, least)
COUNT_CALLERS = {
    "run_npool": (lambda n: run_npool(GameConfig((0.25, 0.15)), [ArsAgent(), ArsAgent()], n),
                  "stages", 1),
    # the two-pool simulation `simulate` prints, on an attacking profile
    "simulate_rounds": (
        lambda n: npool_stage_payoffs_mc([0.2, 0.1], pair_matrix(Action(0.05, 0.0),
                                                                 Action(0.0, 0.02)), rounds=n),
        "Monte-Carlo rounds", 1),
    "npool_stage_payoffs_mc": (
        lambda n: npool_stage_payoffs_mc([0.2, 0.1], PairwiseActionMatrix.zeros(2), rounds=n),
        "Monte-Carlo rounds", 1),
    "DetectionScenario": (lambda n: DetectionScenario(0.1, 0.2, 0.05, AttackKind.FAW, periods=n),
                          "periods", 1),
    "detect_bwh_block_ratio": (lambda n: detect_bwh_block_ratio(0.2, 0.01, n), "blocks", 1),
    "detect_unlucky_miners": (lambda n: detect_unlucky_miners(0.1, n), "blocks", 1),
    "evasion_smoothing": (lambda n: evasion_smoothing(RewardDensitySeries(np.ones(40)), n),
                          "window", 1),
    "generate_synthetic_hashrates": (lambda n: generate_synthetic_hashrates(hours=n), "hours", 1),
    "delta_bound": (lambda n: delta_bound(0.25, 0.15, 0.5, n), "deviation_resolution", 2),
    "audit_ipbwh_nonempty:power": (lambda n: audit_ipbwh_nonempty(n),
                                   "power_grid_resolution", 1),
}


class TestCountCallers:
    """Each count a library function takes goes through ``check_count``: a
    non-integer, NaN or a count one too small is refused with the rule's
    message, never with numpy's TypeError, ValueError or IndexError, and
    never answered."""

    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    @pytest.mark.parametrize("bad", ["2.5", "nan", "least - 1"])
    def test_refused_by_the_rule(self, caller, bad):
        call, name, least = COUNT_CALLERS[caller]
        n = {"2.5": 2.5, "nan": math.nan, "least - 1": least - 1}[bad]
        with pytest.raises(PoolGameError) as err:
            call(n)
        assert str(err.value) == f"{name} must be an integer of at least {least}, got {n}"
