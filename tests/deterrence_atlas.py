"""Deterrence atlas of the n-pool game: in how many random pool profiles a
one-shot optimal attacker comes out ahead over two stages against ARS
retaliation.

Pool 0 attacks every other pool once at stage 0 with the payoff-maximizing
attack (``OptimalOneShotAttacker``, FAW or BWH); every pool, pool 0
included, then plays ARS with k = 0.999, as ``poolgame npool`` plays it.
A profile draws n = 2 to 5 pools and splits the network over them and the
external miners with uniform (Dirichlet(1)) shares; profiles with a pool
above half the network or below 1% are drawn again. A run counts as valid
when the runner plays it without refusing it, and the attack pays when the
attacker's two-stage total stage payoff is positive.

Run: PYTHONPATH=src python tests/deterrence_atlas.py [--profiles N] [--seed S]
"""

from __future__ import annotations

import argparse

import numpy as np

from poolgame.engine import ArsAgent, OptimalOneShotAttacker, run_npool
from poolgame.model import AttackKind, GameConfig, PoolGameError

K = 0.999


def random_profile(rng) -> tuple[float, ...]:
    while True:
        n = int(rng.integers(2, 6))
        shares = rng.dirichlet(np.ones(n + 1))[:n]
        if shares.max() <= 0.5 and shares.min() >= 0.01:
            return tuple(float(p) for p in shares)


def attacker_total(powers, kind) -> float:
    """The attacker's total stage payoff over the two stages."""
    config = GameConfig(tuple(powers))
    strategies = [OptimalOneShotAttacker(kind, K)] + [ArsAgent(K) for _ in powers[1:]]
    return sum(r.payoffs[0] for r in run_npool(config, strategies, 2).records)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--profiles", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    profiles = [random_profile(rng) for _ in range(args.profiles)]
    for kind in AttackKind:
        valid, paying = 0, []
        for powers in profiles:
            try:
                total = attacker_total(powers, kind)
            except PoolGameError:
                continue
            valid += 1
            if total > 0.0:
                paying.append((powers, total))
        print(f"{kind.value}: the attack pays in {len(paying)} of {valid} valid runs "
              f"({args.profiles} profiles)")
        for powers, total in paying:
            print(f"  powers {', '.join(f'{p:.4f}' for p in powers)}: total {total:+.6f}")


if __name__ == "__main__":
    main()
