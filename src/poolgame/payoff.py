"""Stage-game payoff functions for the two-pool FAW/BWH game.

Reward model. Each round, every hash-power component races to find the next
full proof-of-work: the two pools' home miners, their infiltration detachments
inside each other, and the external honest rest. BWH infiltrators discard any
full solution they find; FAW infiltrators withhold it and submit it to the
victim pool's manager the moment an *external* miner publishes, forcing a fork
that the withheld block always wins (best-case network capability). When both
infiltrators hold withheld blocks, the resulting three-branch fork is won by
either pool block with equal probability.

A pool's revenue per round is divided per unit of share-submitting power: the
pool's own power alpha (home miners and loyal infiltrators are both credited
by their manager) plus the opponent's infiltration inside it. The infiltrator's
cut flows back to its home pool's pot, which couples the two pools' reward
densities. ``payoff_pair`` resolves that coupling exactly as a 2x2 linear
system. ``_sample_rounds`` is the one Monte-Carlo sampler of the round race,
for any number of pools; ``simulate_rounds`` (two pools) and the engine's
``npool_stage_payoffs_mc`` are result builders over it and serve as the
independent oracle of the exact models. It draws how all rounds end as one
multinomial over the input rates and draws round by round only the rounds
in which a FAW flag fires first, so its cost follows those rounds; it
settles those rounds one flag row at a time, with a running count of fired
flags picking each round's winner. It never reads a probability the exact
models compute.

``U_i`` is pool i's extra reward density: member reward per unit power minus
the honest baseline 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ALGEBRAIC_TOL,
    Action,
    AttackKind,
    DegenerateDenominator,
    InvalidScenario,
    check_actions,
    check_count,
    check_powers,
    check_seed,
)


#: the error of a profile whose stage payoffs have a degenerate denominator
NO_LIVE_POWER = "actions leave no live block-finding power"


class StagePayoffs(NamedTuple):
    """Per-pool extra reward densities for one stage."""

    u_i: float
    u_j: float


def payoff_pair_raw(alpha_i, alpha_j, f_i, b_i, f_j, b_j):
    """Vectorized (U_i, U_j) for raw action components.

    Any of the four infiltration arguments may be numpy arrays or scalars;
    they broadcast against each other and the results take the broadcast
    shape. Exclusivity (f*b == 0 per pool) is not checked here, and the fork
    term relies on it: it is one branch-free expression that equals the
    two-case formula bit for bit only because a forking pool's BWH power is
    exactly 0.0. The implicit cross-pool reward terms are resolved by solving
    the induced 2x2 linear system in (U_i, U_j) exactly.

    When all four infiltration arguments are Python floats (the scalar
    ``payoff_pair`` path) they are not wrapped in 0-d arrays: the same
    expressions run on floats and the degeneracy test uses plain comparisons,
    returning two floats. The result is bit-identical to the array path,
    because both evaluate the same IEEE-754 double operations in the same
    order; only numpy's per-operation overhead is skipped. Arrays and numpy
    scalars take the array path.
    """
    scalar = (type(f_i) is float and type(b_i) is float
              and type(f_j) is float and type(b_j) is float)
    if not scalar:
        f_i, b_i = np.asarray(f_i, float), np.asarray(b_i, float)
        f_j, b_j = np.asarray(f_j, float), np.asarray(b_j, float)
    x_i = f_i + b_i
    x_j = f_j + b_j
    ext = 1.0 - alpha_i - alpha_j
    den_i = alpha_i + x_j
    den_j = alpha_j + x_i
    live = 1.0 - x_i - x_j
    if scalar:
        degenerate = live <= ALGEBRAIC_TOL or den_i <= ALGEBRAIC_TOL or den_j <= ALGEBRAIC_TOL
    else:
        degenerate = (np.any(live <= ALGEBRAIC_TOL) or np.any(den_i <= ALGEBRAIC_TOL)
                      or np.any(den_j <= ALGEBRAIC_TOL))
    if degenerate:
        raise DegenerateDenominator(NO_LIVE_POWER)

    # Each pool's expected direct block revenue, before pot division, plus
    # its fork wins: the opponent's withheld blocks are this pool's blocks.
    # The first fork term is +0.0 where the opponent does not fork and the
    # second where either pool does not; where both fork, the own BWH power
    # is 0.0 and the first term is exactly opp_f * ext / (1 - opp_f). The
    # three-branch fork's numerator is shared: IEEE * and + commute, so
    # pool j's operand order gives the same bits. The differences
    # (1 - x_j) - x_i and (1 - f_j) - f_i can differ from pool i's in the
    # last bit and stay apart.
    keep_i = 1.0 - b_i
    keep_j = 1.0 - b_j
    fork = (f_i * f_j / 2.0) * (1.0 / (1.0 - f_i) + 1.0 / (1.0 - f_j)) * ext
    d_i = ((alpha_i - x_i) / live
           + (f_j / keep_i * ext / (keep_i - f_j) + fork / (1.0 - f_i - f_j))) / den_i
    d_j = ((alpha_j - x_j) / (1.0 - x_j - x_i)
           + (f_i / keep_j * ext / (keep_j - f_i) + fork / (1.0 - f_j - f_i))) / den_j
    k_i = x_i / den_i
    k_j = x_j / den_j
    c_i = d_i - 1.0 + k_i
    c_j = d_j - 1.0 + k_j
    det = 1.0 - k_i * k_j
    return (c_i + k_i * c_j) / det, (c_j + k_j * c_i) / det


def payoff_pair(
    alpha_i: float,
    alpha_j: float,
    a_i: Action,
    a_j: Action,
) -> StagePayoffs:
    """Exact per-stage extra reward densities for an action profile."""
    check_powers(alpha_i, alpha_j)
    # Python floats throughout, so the checks and the kernel take their float paths
    f_i, b_i, f_j, b_j = float(a_i.faw), float(a_i.bwh), float(a_j.faw), float(a_j.bwh)
    check_actions(alpha_i, f_i, b_i)
    check_actions(alpha_j, f_j, b_j)
    return StagePayoffs(*payoff_pair_raw(float(alpha_i), float(alpha_j), f_i, b_i, f_j, b_j))


def one_sided_attacker(kind: AttackKind, alpha_att, alpha_vic, x):
    """Attacker's payoff when attacking an otherwise honest pool (vectorized).

    This is the diagonal two-pool payoff with the victim playing no-attack,
    reduced to closed form; used heavily on infiltration grids.
    """
    x = np.asarray(x, float)
    a, v = alpha_att, alpha_vic
    if kind is AttackKind.FAW:
        num = a * v + a * x - (a + v) * x**2
    else:
        num = a * v + a * x - x**2
    return num / (a * (1.0 - x) * (v + x)) - 1.0


def one_sided_victim(kind: AttackKind, alpha_att, alpha_vic, x):
    """Victim's payoff when hosting infiltration x from an honest-otherwise attacker."""
    x = np.asarray(x, float)
    a, v = alpha_att, alpha_vic
    if kind is AttackKind.FAW:
        num = v + x * (1.0 - a - v)
    else:
        num = v
    return num / ((1.0 - x) * (v + x)) - 1.0


def optimal_infiltration(kind: AttackKind, alpha_i, alpha_j):
    """Infiltration power maximizing the one-sided ``kind`` payoff, clamped to
    [0, alpha_i] (vectorized; the powers are not checked).

    Closed form root of the payoff derivative; the FAW optimum also
    maximizes the damage inflicted on the host pool.
    """
    a, v = alpha_i, alpha_j
    if kind is AttackKind.FAW:
        m = (np.sqrt(v * (1.0 - a) * (a + v)) - v) / (1.0 - a - v)
    else:
        m = v * (np.sqrt(1.0 - a - a * v) - (1.0 - a)) / (1.0 - a - v)
    return np.minimum(np.maximum(m, 0.0), a)


def optimal_faw_infiltration(alpha_i: float, alpha_j: float) -> float:
    """The one-sided FAW optimum of pool i against pool j, powers checked."""
    check_powers(alpha_i, alpha_j)
    return float(optimal_infiltration(AttackKind.FAW, alpha_i, alpha_j))


def optimal_bwh_infiltration(alpha_i: float, alpha_j: float) -> float:
    """The one-sided BWH optimum of pool i against pool j, powers checked."""
    check_powers(alpha_i, alpha_j)
    return float(optimal_infiltration(AttackKind.BWH, alpha_i, alpha_j))


@dataclass(frozen=True)
class RoundSimResult:
    """Monte-Carlo estimates of per-stage extra reward densities."""

    u_i: float
    u_j: float
    stderr_i: float
    stderr_j: float
    rounds: int
    # fraction of all published blocks won by each pool
    block_share_i: float = 0.0
    block_share_j: float = 0.0
    # mean member reward density split into home-mining-derived and
    # opponent-pot-derived components (u + 1 == home + cross)
    home_density_i: float = 0.0
    cross_density_i: float = 0.0
    home_density_j: float = 0.0
    cross_density_j: float = 0.0

    @property
    def stderr(self) -> float:
        return max(self.stderr_i, self.stderr_j)


def _pot_matrix(alphas, faw, bwh) -> np.ndarray:
    """Pot-split system M with M @ q = R: each pool divides its revenue R over
    its own power plus the infiltration it hosts, and its infiltrators' cuts
    flow back to their home pots."""
    x = faw + bwh
    basis = np.asarray(alphas, float) + x.sum(axis=0)
    # a pot divided over (next to) no power, refused as payoff_pair_raw does
    if not (basis > ALGEBRAIC_TOL).all():
        raise DegenerateDenominator(NO_LIVE_POWER)
    return np.diag(basis) - x


_CHUNK = 2_000_000  # per-round FAW-flag uniforms drawn per batch; bounds the batch arrays


def _sample_rounds(alphas, faw, bwh, rounds: int, seed: int):
    """Monte-Carlo round race among the live hash power of n pools.

    ``faw[i, j]`` (``bwh[i, j]``) is pool i's FAW (BWH) power inside pool j.
    Per round the first find of the live terminal power (external miners and
    every pool's home miners, total rate theta) ends it; BWH detachments
    never publish. A FAW detachment's withheld block (its flag, rate phi)
    exists if its first find lands before the round ends, and external
    endings are claimed by a uniformly chosen released branch.

    Draws, from the input rates only:

    * one multinomial over n + F + 1 categories for all rounds: an external
      round whose end comes before every flag, ``ext / (theta + Phi)``; an
      external round in which FAW flag f fires first,
      ``ext / theta * phi_f / (theta + Phi)``; a home ending of pool i,
      ``home_i / theta`` (Phi is the sum of the F flag rates, flags in
      row-major (i, j) order). Rounds of the first and last kinds are
      settled by their category;
    * for the flag-first rounds only, in batches sorted by first flag: the
      remaining round length tau ~ Exp(theta), restarted by memorylessness
      when the first flag fires; one uniform per flag, a flag other than the
      first firing iff it is below 1 - exp(-phi * tau); and one uniform
      picking the fired flag whose host wins the round.

    A batch is settled one flag row at a time: each row's threshold is
    computed in one reused buffer, and the first flag is forced on its
    slice of the sorted rounds. The pick walks the rows with a running count
    of the flags fired so far: flag f wins the rounds where it fires with
    that count equal to the pick, so no per-round cumulative sum or
    ``argmax`` over the flag axis is formed.

    Returns the mean extra reward densities, their standard errors, the win
    frequencies and the inverse pot-split matrix.
    """
    if check_count(rounds, "Monte-Carlo rounds") >= 2**63:  # numpy's draws count in int64
        raise InvalidScenario(f"Monte-Carlo rounds must be below 2**63, got {rounds}")
    check_seed(seed, "Monte-Carlo seed")
    alphas = np.asarray(alphas, float)
    # a pool that infiltrates with all its power can leave -1e-17 by rounding
    home = np.maximum(alphas - (faw + bwh).sum(axis=1), 0.0)
    ext = 1.0 - alphas.sum()
    theta = ext + home.sum()
    src, hosts = np.nonzero(faw)
    phi = faw[src, hosts]
    n_flags = phi.size
    race = theta + phi.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rounds, np.concatenate(
        ([ext / race], ext / theta * phi / race, home / theta)))
    wins = counts[1 + n_flags:]  # blocks won per pool, home endings so far
    # flag-first rounds laid out sorted by first flag; a batch covers [start, stop)
    edges = np.cumsum(np.concatenate(([0], counts[1:1 + n_flags])))
    flag_first = int(edges[-1])
    batch = max(1, _CHUNK // max(n_flags, 1))
    for start in range(0, flag_first, batch):
        stop = min(start + batch, flag_first)
        m = stop - start
        span = np.clip(edges, start, stop) - start  # flag f fired first in [span[f], span[f+1])
        tau = rng.exponential(1.0 / theta, m)
        u = rng.random((n_flags, m))
        fired = np.empty((n_flags, m), bool)
        cut = np.empty(m)
        for f in range(n_flags):
            # u < -expm1(-phi * tau) in one reused row buffer; negation is exact
            np.negative(np.expm1(np.multiply(tau, -phi[f], out=cut), out=cut), out=cut)
            np.less(u[f], cut, out=fired[f])
            fired[f, span[f]:span[f + 1]] = True
        pick = (rng.random(m) * fired.sum(axis=0)).astype(np.int64)
        seen = np.zeros(m, np.int64)  # fired flags before f
        for f in range(n_flags):
            # flag f wins where it is the (pick + 1)-th fired flag
            wins[hosts[f]] += np.count_nonzero(fired[f] & (seen == pick))
            seen += fired[f]
    p_hat = wins / rounds
    inv = np.linalg.inv(_pot_matrix(alphas, faw, bwh))
    q_mean = inv @ p_hat
    # a round's density vector is a column of inv (or zero): categorical variance
    var = (inv**2) @ p_hat - q_mean**2
    return q_mean - 1.0, np.sqrt(np.maximum(var, 0.0) / rounds), p_hat, inv


def simulate_rounds(
    alpha_i: float,
    alpha_j: float,
    a_i: Action,
    a_j: Action,
    rounds: int = 100_000,
    seed: int = 0,
) -> RoundSimResult:
    """Round-level Monte-Carlo estimate of the two-pool stage game.

    Samples the n-pool round race of ``_sample_rounds`` with n=2, so it is
    independent of the closed form. Deterministic for a given seed.
    """
    check_powers(alpha_i, alpha_j)
    check_actions(alpha_i, a_i.faw, a_i.bwh)
    check_actions(alpha_j, a_j.faw, a_j.bwh)
    faw = np.array([[0.0, a_i.faw], [a_j.faw, 0.0]])
    bwh = np.array([[0.0, a_i.bwh], [a_j.bwh, 0.0]])
    u, se, p, inv = _sample_rounds((alpha_i, alpha_j), faw, bwh, rounds, seed)
    return RoundSimResult(
        u_i=float(u[0]),
        u_j=float(u[1]),
        stderr_i=float(se[0]),
        stderr_j=float(se[1]),
        rounds=rounds,
        block_share_i=float(p[0]),
        block_share_j=float(p[1]),
        # own-direct-derived vs routed through the other pot
        home_density_i=float(inv[0, 0] * p[0]),
        cross_density_i=float(inv[0, 1] * p[1]),
        home_density_j=float(inv[1, 1] * p[1]),
        cross_density_j=float(inv[1, 0] * p[0]),
    )
