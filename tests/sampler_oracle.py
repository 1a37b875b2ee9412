"""The Monte-Carlo round sampler as the package had it before flag-first
rounds were settled one flag row at a time, kept as the oracle of
``payoff._sample_rounds``, and the event-level sampler of the victim's
blocks per attacker period, the oracle of the detector's geometric model.

``sample_rounds`` is that code, unchanged apart from its imports and the
batch size, which it reads from ``payoff._CHUNK`` at call time so that a test
that shrinks the package's batches shrinks the oracle's too. It thresholds
every flag at once with (F, m) temporaries, forces each round's first flag
with a fancy-index store, and picks the winning flag with a cumulative sum
and an ``argmax`` over the flag axis, and it draws the flag-first rounds
even where every flag has one host, who wins them whatever the draws. The
package's sampler must draw the same numbers in the same order wherever it
draws, and return the same four arrays bit for bit.

``simulate_victim_blocks`` is the code ``poolgame.detection`` had, unchanged
apart from its imports; ``geometric_param`` must match its counts.

``pot_matrix`` is the pot-split system the sampler's densities solve,
built entry by entry.

``pair_matrix`` is the 2x2 action matrix of a two-pool profile, as the
``simulate`` command builds it for ``npool_stage_payoffs_mc``.
"""

from __future__ import annotations

import numpy as np

from poolgame import payoff
from poolgame.detection import _rng
from poolgame.engine import PairwiseActionMatrix
from poolgame.model import ALGEBRAIC_TOL, Action, AttackKind, DegenerateDenominator, InvalidScenario


def pair_matrix(a_i: Action, a_j: Action) -> PairwiseActionMatrix:
    """Pool 0 plays ``a_i`` inside pool 1, and pool 1 plays ``a_j`` inside pool 0."""
    return PairwiseActionMatrix(np.array([[0.0, a_i.faw], [a_j.faw, 0.0]]),
                                np.array([[0.0, a_i.bwh], [a_j.bwh, 0.0]]))


def pot_matrix(alphas, faw, bwh) -> np.ndarray:
    """M with M @ q = R, entry by entry: pool j divides its revenue over its
    own power plus every infiltration it hosts, and pool i's cut of pool j's
    pot, (faw + bwh)[i, j] q_j, flows back to pool i's pot."""
    n = len(alphas)
    m = np.empty((n, n))
    for j in range(n):
        hosted = 0.0
        for i in range(n):
            hosted += faw[i, j] + bwh[i, j]
        basis = alphas[j] + hosted
        if not basis > ALGEBRAIC_TOL:
            raise DegenerateDenominator("actions leave no live block-finding power")
        for i in range(n):
            m[i, j] = (basis if i == j else 0.0) - (faw[i, j] + bwh[i, j])
    return m


def sample_rounds(alphas, faw, bwh, rounds: int, seed: int):
    if not rounds >= 1:
        raise InvalidScenario(f"Monte-Carlo rounds must be at least 1, got {rounds}")
    alphas = np.asarray(alphas, float)
    n = alphas.size
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
    batch = max(1, payoff._CHUNK // max(n_flags, 1))
    for start in range(0, flag_first, batch):
        stop = min(start + batch, flag_first)
        m = stop - start
        first = np.repeat(np.arange(n_flags), np.diff(np.clip(edges, start, stop)))
        tau = rng.exponential(1.0 / theta, m)
        fired = rng.random((n_flags, m)) < -np.expm1(-phi[:, None] * tau)
        fired[first, np.arange(m)] = True
        pick = (rng.random(m) * fired.sum(axis=0)).astype(np.int64)
        sel = np.argmax(np.cumsum(fired, axis=0) > pick, axis=0)
        wins += np.bincount(hosts[sel], minlength=n)
    p_hat = wins / rounds
    inv = np.linalg.inv(pot_matrix(alphas, faw, bwh))
    q_mean = inv @ p_hat
    # a round's density vector is a column of inv (or zero): categorical variance
    var = (inv**2) @ p_hat - q_mean**2
    return q_mean - 1.0, np.sqrt(np.maximum(var, 0.0) / rounds), p_hat, inv


def simulate_victim_blocks(
    alpha: float, beta: float, gamma: float, kind: AttackKind,
    periods: int, seed: int = 0,
) -> np.ndarray:
    """Event-level oracle for N: simulate round winners and count victim blocks
    between consecutive attacker-pool blocks.

    Rounds are independent races between the attacker's home power, the victim
    pool, and external miners; a FAW detachment's withheld block converts an
    external win into a victim-pool win. Used to validate the geometric model.
    """
    rng = _rng(seed)
    infl = gamma * alpha
    live = 1.0 - infl
    ext = 1.0 - alpha - beta
    p_att = (1.0 - gamma) * alpha / live
    if kind is AttackKind.FAW:
        # external win preceded by a detachment find becomes a victim block
        p_vic = (beta + infl * ext) / live
    else:
        p_vic = beta / live
    # draw rounds until enough attacker blocks delimit the requested periods
    need = int((periods + 10) / p_att * 1.3) + 1000
    wins = rng.choice(3, size=need, p=[p_att, p_vic, 1.0 - p_att - p_vic])
    att_idx = np.flatnonzero(wins == 0)
    while att_idx.size < periods + 1:
        more = rng.choice(3, size=need, p=[p_att, p_vic, 1.0 - p_att - p_vic])
        wins = np.concatenate([wins, more])
        att_idx = np.flatnonzero(wins == 0)
    vic_cum = np.cumsum(wins == 1)
    start = att_idx[:periods]
    end = att_idx[1 : periods + 1]
    return vic_cum[end] - vic_cum[start]
