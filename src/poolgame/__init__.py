"""Simulation and analysis toolkit for the repeated FAW-BWH game between
proof-of-work mining pools: exact stage payoffs, Nash-equilibrium solving,
the adaptive retaliation strategy family, multi-pool tournaments, and
statistical attacker identification."""

from .model import (
    Action,
    AttackKind,
    GameConfig,
    InvalidAction,
    InvalidPowers,
    PoolGameError,
    ZERO_ACTION,
    check_actions,
    check_powers,
)
from .payoff import (
    StagePayoffs,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair,
)
from .ars import retaliate
from .equilibrium import (
    DeltaBound,
    StageEquilibrium,
    audit_ipbwh_nonempty,
    delta_bound,
    stage_nash,
)
from .engine import (
    ArsAgent,
    AlwaysHonest,
    History,
    OptimalOneShotAttacker,
    PairwiseActionMatrix,
    ScriptedDeviator,
    StageRecord,
    closed_pool_scenario,
    discounted_payoff,
    npool_stage_payoffs,
    npool_stage_payoffs_mc,
    optimal_simultaneous_attack,
    run_npool,
    two_stage_ratio_sweep,
    two_stage_sweep,
)
from .detection import (
    DetectionScenario,
    HashrateSeries,
    RewardDensitySeries,
    detect_bwh_block_ratio,
    detect_unlucky_miners,
    evasion_partial_sharing,
    evasion_smoothing,
    geometric_param,
    ingest_hashrate_csv,
    load_bundled_hashrates,
    simulate_reward_density,
    variance_ratio,
)

__version__ = "0.1.0"
