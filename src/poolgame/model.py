"""Shared domain types and validation for the mining-pool game toolkit.

Conventions used throughout the package:

* The total network hash rate is normalized to 1. A pool's ``power`` is its
  fraction of that total; miners not belonging to any modeled pool are
  implicit with power ``1 - sum(powers)``. Pools are identified by their
  position in the tuple of powers. :func:`check_powers` is the game's one
  domain: every power in (0, 0.5], and their sum below 1. :func:`check_weight`
  is the one rule for the ARS preference weight ``k``: in [0, 1), and
  :func:`check_count` the one rule for stages, rounds, periods, blocks and
  grid points: an integer of at least 1 (or 2).
* An :class:`Action` is one stage's attack choice: the hash power a pool
  diverts into the opponent pool, either as FAW (fork-after-withholding) or
  BWH (block-withholding) infiltration. At most one of the two components is
  positive; ``Action(0, 0)`` is honest mining (no attack). :func:`check_actions`
  is the one rule for an action's powers.
* Payoffs are *extra reward densities*: reward earned per unit of own power,
  minus the honest-mining baseline of 1. Zero means "as good as honest".
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

#: comparison margin for exact algebraic identities
ALGEBRAIC_TOL = 1e-9
#: acceptance margin for optimizer / grid-search outputs
OPTIMIZER_TOL = 1e-4
#: margin within which two actions count as the same play
ACTION_TOL = 1e-12


class PoolGameError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidAction(PoolGameError):
    pass


class InvalidPowers(PoolGameError):
    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index  # the offending cell's, in row order (0 for floats)


class DegenerateDenominator(PoolGameError):
    pass


class InvalidScenario(PoolGameError):
    pass


class EmptySetUnexpected(PoolGameError):
    """The BWH infiltration set came out empty, contradicting its guarantee."""


class NonConvergence(PoolGameError):
    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class AttackKind(enum.Enum):
    FAW = "faw"
    BWH = "bwh"


@dataclass(frozen=True)
class Action:
    """One stage's (FAW, BWH) infiltration pair for a single pool.

    ``faw`` and ``bwh`` are absolute hash-power fractions (not ratios of the
    owner's power). Attack homogeneity requires ``faw * bwh == 0``.
    """

    faw: float = 0.0
    bwh: float = 0.0

    @classmethod
    def of(cls, kind: AttackKind, power: float) -> "Action":
        if kind is AttackKind.FAW:
            return cls(float(power), 0.0)
        return cls(0.0, float(power))

    @property
    def power(self) -> float:
        return self.faw + self.bwh

    @property
    def is_zero(self) -> bool:
        return self.faw == 0.0 and self.bwh == 0.0

    @property
    def kind(self) -> AttackKind | None:
        """Attack kind, or None for the no-attack action."""
        if self.faw > 0.0:
            return AttackKind.FAW
        if self.bwh > 0.0:
            return AttackKind.BWH
        return None

    def approx_eq(self, other: "Action") -> bool:
        return abs(self.faw - other.faw) <= ACTION_TOL and abs(self.bwh - other.bwh) <= ACTION_TOL


ZERO_ACTION = Action(0.0, 0.0)


def check_powers(*powers) -> None:
    """Refuse pool powers outside the game: each in (0, 0.5], their sum
    below 1. One argument per pool, a float or an array; arrays broadcast,
    and the first offending cell in row order raises ``InvalidPowers`` with
    its index. Plain operators serve floats and arrays alike, so floats that
    pass make no numpy call."""
    # written so that NaN fails every test
    ok = True
    for p in powers:
        ok = ok & (p > 0.0) & (p <= 0.5)
    if _all(ok) and _all(sum(powers) < 1.0):  # powers in range sum to a finite number
        return
    with np.errstate(invalid="ignore", over="ignore"):  # others may not
        ok = ok & (sum(powers) < 1.0)
    index = int(np.argmin(ok))  # the first False
    cell = list(map(float, np.reshape(np.broadcast_arrays(*powers), (len(powers), -1))[:, index]))
    if not all(p > 0.0 for p in cell):
        raise InvalidPowers(f"powers must be positive numbers, got {', '.join(map(str, cell))}",
                            index)
    if not all(p <= 0.5 for p in cell):
        raise InvalidPowers("no pool may hold more than half the network", index)
    raise InvalidPowers(f"powers sum to {sum(cell)} >= 1", index)


def check_weight(k, name: str = "k"):
    """Refuse a preference weight outside [0, 1), or the first such entry of
    an array, and return ``k``; a float that passes makes no numpy call."""
    ok = (k >= 0.0) & (k < 1.0)  # written so that NaN fails the test
    if _all(ok):
        return k
    raise InvalidScenario(f"{name} must be in [0, 1), got {np.asarray(k).flat[np.argmin(ok)]}")


def check_actions(alpha, faw, bwh) -> None:
    """Refuse infiltration powers the game does not allow: each must be a
    non-negative number, a pair may not use both FAW and BWH, and each is at
    most its owner's power ``alpha``. Floats or arrays that broadcast; the
    first offending entry in row order raises ``InvalidAction``. Plain
    operators serve both, so floats that pass make no numpy call."""
    # comparisons only, which never warn; written so that NaN fails every test
    ok = (((faw == 0.0) | (bwh == 0.0)) & (faw >= 0.0) & (bwh >= 0.0)
          & (faw <= alpha) & (bwh <= alpha))
    if ok is True or _all(ok):
        return
    index = int(np.argmin(ok))  # the first False
    a, f, b = map(float, np.reshape(np.broadcast_arrays(alpha, faw, bwh), (3, -1))[:, index])
    if not (f >= 0.0 and b >= 0.0):
        raise InvalidAction(f"infiltration powers must be non-negative numbers, got {f}, {b}")
    if f > 0.0 and b > 0.0:
        raise InvalidAction(f"FAW and BWH are mutually exclusive, got {f}, {b}")
    raise InvalidAction(f"infiltration power {max(f, b)} exceeds owner power {a}")


def check_count(n, name: str, least: int = 1):
    """Refuse a count that is not an integer of at least ``least`` (NaN and
    floats fail) and return it."""
    if isinstance(n, numbers.Integral) and n >= least:
        return n
    raise InvalidScenario(f"{name} must be an integer of at least {least}, got {n}")


def _all(ok) -> bool:
    """Whether a test of floats (a bool) or of arrays holds everywhere."""
    return ok is True or (ok is not False and ok.all())


@dataclass(frozen=True)
class GameConfig:
    """Scenario-wide parameters of the repeated game: the pools' powers, the
    discount factor and the Monte-Carlo seed."""

    powers: tuple[float, ...]
    discount: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_powers(*self.powers)
        if not (0.0 < self.discount < 1.0):
            raise InvalidScenario(f"discount must be in (0,1), got {self.discount}")


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed numpy's generators cannot take: only non-negative
    integers pass (NaN, floats and negatives fail)."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidScenario(f"{name} must be a non-negative integer, got {seed}")
