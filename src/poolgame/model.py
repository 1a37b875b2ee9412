"""Shared domain types and validation for the mining-pool game toolkit.

Conventions used throughout the package:

* The total network hash rate is normalized to 1. A pool's ``power`` is its
  fraction of that total; miners not belonging to any modeled pool are
  implicit with power ``1 - sum(powers)``.
* An :class:`Action` is one stage's attack choice: the hash power a pool
  diverts into the opponent pool, either as FAW (fork-after-withholding) or
  BWH (block-withholding) infiltration. At most one of the two components is
  positive; ``Action(0, 0)`` is honest mining (no attack).
* Payoffs are *extra reward densities*: reward earned per unit of own power,
  minus the honest-mining baseline of 1. Zero means "as good as honest".
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

# Pools are identified by small non-negative integers, unique per scenario.
PoolId = int

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
    pass


class DegenerateDenominator(PoolGameError):
    pass


class InvalidScenario(PoolGameError):
    pass


class EmptySetUnexpected(PoolGameError):
    """The BWH infiltration set came out empty, contradicting its guarantee."""


class InfiltrationBudgetExceeded(PoolGameError):
    pass


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


@dataclass(frozen=True)
class PoolProfile:
    """A pool's identity and relative mining power."""

    id: PoolId
    power: float

    def __post_init__(self):
        if not (0.0 < self.power <= 0.5):
            raise InvalidPowers(
                f"pool {self.id}: power must be in (0, 0.5], got {self.power}"
            )


@dataclass(frozen=True)
class GameConfig:
    """Scenario-wide parameters of the repeated game: the pools, the discount
    factor and the Monte-Carlo seed."""

    pools: tuple[PoolProfile, ...]
    discount: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.discount < 1.0):
            raise InvalidScenario(f"discount must be in (0,1), got {self.discount}")
        ids = [p.id for p in self.pools]
        if len(set(ids)) != len(ids):
            raise InvalidScenario("pool ids must be unique")
        total = sum(p.power for p in self.pools)
        if total > 1.0 + ALGEBRAIC_TOL:
            raise InvalidPowers(f"pool powers sum to {total} > 1")

    @property
    def powers(self) -> tuple[float, ...]:
        return tuple(p.power for p in self.pools)


def validate_action(a: Action, owner: PoolProfile | float) -> Action:
    """Check all Action invariants for the given owner; return the action.

    ``owner`` may be a PoolProfile or a bare power fraction.
    """
    alpha = owner.power if isinstance(owner, PoolProfile) else float(owner)
    # written so that NaN fails every test
    if not (a.faw >= 0.0 and a.bwh >= 0.0):
        raise InvalidAction(f"infiltration powers must be non-negative numbers: {a}")
    if a.faw > 0.0 and a.bwh > 0.0:
        raise InvalidAction(f"FAW and BWH are mutually exclusive, got {a}")
    if not (a.faw <= alpha and a.bwh <= alpha):
        raise InvalidAction(
            f"infiltration power {max(a.faw, a.bwh)} exceeds owner power {alpha}"
        )
    return a


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed numpy's generators cannot take: only non-negative
    integers pass (NaN, floats and negatives fail)."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidScenario(f"{name} must be a non-negative integer, got {seed}")


def power_grid(alpha: float, resolution: int) -> np.ndarray:
    """Uniform infiltration-power grid on [0, alpha], endpoints included."""
    return np.linspace(0.0, alpha, resolution)

