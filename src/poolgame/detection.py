"""Attack detection and attacker identification.

A withholding attacker earns part of its reward from the victim pool, so its
miners' per-period reward density is coupled to how many blocks the victim
finds. Measured per period P (the span in which the attacking pool finds one
block of its own), the density is ``1/alpha + N*gamma/(beta + gamma*alpha)``
where N, the victim's blocks during P, is geometrically distributed. An honest
pool's density is just ``1/alpha``: flat up to hash-rate fluctuation. The
variance blow-up of the attacker's series against an honest baseline is the
identification signal; the evasion helpers quantify how far an attacker can
suppress it.

Hash-rate time series (hourly, absolute units) provide the honest baseline;
the packaged synthetic fixture is calibrated so the honest per-hour relative
fluctuation is about 0.6%, the scale implied by the published per-pool
variance ratios measured on live data (real series can be ingested with
``ingest_hashrate_csv`` to reproduce the experiment faithfully).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .model import (
    AttackKind,
    InvalidScenario,
    PoolGameError,
    check_count,
    check_kind,
    check_powers,
    check_seed,
)

FIXTURE_PATH = Path(__file__).parent / "data" / "synthetic_hashrates.csv"
# the bundled fixture's recipe (``generate_synthetic_hashrates``): each pool's
# mean rate, the per-hour relative standard deviation and AR(1) coefficient
# of its multiplier, and the first hour
FIXTURE_POOLS = (("pool_a", 35.0), ("pool_b", 87.5))
FIXTURE_REL_SD = 0.006
FIXTURE_AR_COEFFICIENT = 0.5
FIXTURE_START = datetime(2019, 1, 21)


class ParseError(PoolGameError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NonPositiveRate(PoolGameError):
    def __init__(self, line_no, value):
        super().__init__(f"line {line_no}: non-positive hash rate {value}")
        self.line_no = line_no


class NonMonotoneTimestamp(PoolGameError):
    def __init__(self, line_no, value):
        super().__init__(f"line {line_no}: timestamp {value} not increasing")
        self.line_no = line_no


class DegenerateVariance(PoolGameError):
    pass


def _check_share(gamma, name: str = "gamma") -> None:
    """Refuse an infiltration share of the attacker's power outside [0, 1):
    at 1 the attacker keeps no home power, so no period ever ends."""
    if not 0.0 <= gamma < 1.0:  # written so that NaN fails the test
        raise InvalidScenario(f"{name} must be in [0, 1), got {gamma}")


@dataclass(frozen=True)
class DetectionScenario:
    """An attack configuration for reward-density simulation.

    gamma is the fraction of the attacker's power used for infiltration; the
    absolute infiltration power is gamma * alpha. The two pools follow
    ``check_powers`` and gamma ``_check_share``: the detector's one rule.
    """

    alpha: float  # attacker pool size
    beta: float  # victim pool size
    gamma: float  # infiltrated fraction of the attacker's power
    kind: AttackKind
    periods: int = 720
    seed: int = 0

    def __post_init__(self):
        check_powers(self.alpha, self.beta)
        _check_share(self.gamma)
        check_kind(self.kind)
        check_count(self.periods, "periods")
        check_seed(self.seed)

    @property
    def infiltration_power(self) -> float:
        return self.gamma * self.alpha


@dataclass(frozen=True)
class RewardDensitySeries:
    """Per-period reward densities; optionally split into the honest baseline
    and the victim-derived component (samples == base + extra)."""

    samples: np.ndarray
    base: np.ndarray | None = None
    extra: np.ndarray | None = None

    def __post_init__(self):
        # an empty series stays constructible; evasion_smoothing refuses it
        if not np.isfinite(self.samples).all():
            raise InvalidScenario("reward densities must be finite, got "
                                  f"{self.samples[~np.isfinite(self.samples)][0]}")

    def __len__(self):
        return self.samples.size

    def variance(self) -> float:
        """The sample variance (ddof=1), which takes at least two periods."""
        if self.samples.size < 2:
            raise InvalidScenario("a sample variance needs at least 2 periods, "
                                  f"got {self.samples.size}")
        return float(np.var(self.samples, ddof=1))


@dataclass(frozen=True)
class HashrateSeries:
    """Hourly absolute hash rates for one or more pools; each pool's
    timestamps are its own time axis, one per rate."""

    timestamps: dict[str, tuple[datetime, ...]]
    rates: dict[str, np.ndarray]

    def pools(self):
        return sorted(self.rates)

    def normalized(self, pool: str, mean_power: float) -> np.ndarray:
        """Power-fraction series for one pool, rescaled to the given mean."""
        if pool not in self.rates:
            raise InvalidScenario(
                f"no pool {pool!r} in the hash-rate series; "
                f"available: {', '.join(self.pools())}"
            )
        r = self.rates[pool]
        return r / r.mean() * mean_power


def geometric_param(alpha: float, beta: float, gamma: float, kind: AttackKind) -> float:
    """Success parameter of the victim-blocks-per-period distribution.

    N counts victim blocks inside one attacker-block period, support {0,1,2,..},
    Pr(N=n) = (1-p)^n * p. A FAW attacker's withheld releases add fork wins to
    the victim's block rate, hence the extra term in its denominator. The
    inputs follow ``DetectionScenario``'s rule.
    """
    check_powers(alpha, beta)
    _check_share(gamma)
    return _geometric_p(alpha, beta, gamma, check_kind(kind))


def _geometric_p(alpha, beta, gamma, kind: AttackKind):
    """``geometric_param``'s formula, unchecked and elementwise."""
    own = (1.0 - gamma) * alpha
    if kind is AttackKind.FAW:
        victim_rate = beta + gamma * alpha * (1.0 - alpha - beta)
    else:
        victim_rate = beta
    return own / (victim_rate + own)


def _rng(seed, name: str = "seed") -> np.random.Generator:
    """numpy's generator for ``seed``; a seed that is not a non-negative
    integer is refused as a domain error."""
    check_seed(seed, name)
    return np.random.default_rng(seed)


def simulate_reward_density(
    scenario: DetectionScenario,
    honest_baseline: HashrateSeries | float | np.ndarray,
    pool: str | None = None,
) -> RewardDensitySeries:
    """Per-period reward densities of the attacking pool's miners.

    ``honest_baseline`` fixes the per-period pool size: a constant, an
    explicit array, or a hash-rate series (normalized so its mean equals the
    scenario's alpha; pass ``pool`` to select the column). An array or series
    must hold at least ``scenario.periods`` values; its first ones are used,
    and a shorter one raises ``InvalidScenario`` rather than being repeated,
    as does a baseline of any other kind or shape.
    The infiltration power gamma*alpha is held fixed while the pool size
    fluctuates, so a per-period size may exceed half the network, but not
    leave the victim without room.
    """
    if isinstance(honest_baseline, HashrateSeries):
        names = honest_baseline.pools()
        name = pool if pool is not None else names[0]
        alphas = honest_baseline.normalized(name, scenario.alpha)
    elif (isinstance(honest_baseline, np.ndarray) and honest_baseline.ndim == 1
          and honest_baseline.dtype.kind in "biuf"):
        alphas = honest_baseline.astype(float)
    elif isinstance(honest_baseline, numbers.Real):
        alphas = np.full(scenario.periods, float(honest_baseline))
    else:
        raise InvalidScenario("the honest baseline must be a real number, a 1-D array of real "
                              f"numbers or a HashrateSeries, got {type(honest_baseline).__name__}"
                              f" of shape {np.shape(honest_baseline)}")
    if alphas.size < scenario.periods:
        raise InvalidScenario(
            f"{scenario.periods} periods requested, but the hash-rate baseline "
            f"has only {alphas.size}"
        )
    alphas = alphas[: scenario.periods]
    w = scenario.infiltration_power
    # not check_powers, as a period may exceed half the network: the first one
    # leaving no room or no own power beside w (NaN fails the test too)
    for a in alphas[~((alphas > w) & (alphas + scenario.beta < 1.0))][:1]:
        raise InvalidScenario(f"invalid sizes alpha={a}, beta={scenario.beta}, infiltration {w}")

    gammas = np.minimum(w / alphas, 1.0)
    rng = np.random.default_rng(scenario.seed)
    base = 1.0 / alphas
    if w == 0.0:
        return RewardDensitySeries(base.copy(), base=base, extra=np.zeros_like(base))
    ps = _geometric_p(alphas, scenario.beta, gammas, scenario.kind)
    # numpy's geometric counts trials (support from 1); shift to failures
    n = rng.geometric(ps) - 1
    extra = n * gammas / (scenario.beta + gammas * alphas)
    return RewardDensitySeries(base + extra, base=base, extra=extra)


def variance_ratio(attack: RewardDensitySeries, honest: RewardDensitySeries) -> float:
    """Ratio of sample variances (attack / honest); +inf for a flat baseline."""
    if len(attack) < 30 or len(honest) < 30:
        raise DegenerateVariance("series must have at least 30 periods")
    # a pool of next to no power overflows its densities' squares, refused
    # below (written so that NaN fails the test)
    with np.errstate(over="ignore", invalid="ignore"):
        v_att, v_hon = attack.variance(), honest.variance()
    if not (v_att < math.inf and v_hon < math.inf):
        raise DegenerateVariance(f"series variances are not finite: {v_att}, {v_hon}")
    if v_hon == 0.0:
        return 1.0 if v_att == 0.0 else math.inf
    return v_att / v_hon


def detect_bwh_block_ratio(
    victim_power: float, infiltration: float, blocks: int
) -> tuple[float, float]:
    """Expected victim block fraction under withholding, and the one-sided
    exact binomial probability of seeing a fraction that low if the
    infiltrating power were benign.

    Under attack the victim finds victim_power / (1 - infiltration) of all
    published blocks; benign infiltration would instead lift its share to
    victim_power + infiltration.
    """
    check_powers(victim_power)
    if not (infiltration >= 0.0 and victim_power + infiltration < 1.0):  # NaN fails
        raise InvalidScenario(
            f"invalid victim_power={victim_power}, infiltration={infiltration}"
        )
    check_count(blocks, "blocks")
    expected = victim_power / (1.0 - infiltration)
    null_p = victim_power + infiltration
    threshold = int(round(expected * blocks))
    from scipy import stats  # imported here: no other command needs scipy
    p_value = float(stats.binom.cdf(threshold, blocks, null_p))
    return expected, p_value


def detect_unlucky_miners(suspect_power: float, blocks: int) -> float:
    """Probability that a benign miner subset of this power submits no full
    solution over the given number of blocks."""
    if not (0.0 <= suspect_power < 1.0):
        raise InvalidScenario(f"invalid power {suspect_power}")
    check_count(blocks, "blocks")
    return float((1.0 - suspect_power) ** blocks)


def evasion_smoothing(
    series: RewardDensitySeries, window: int, random_phase_seed: int | None = None
) -> RewardDensitySeries:
    """Spread each period's victim-derived reward over the trailing window.

    Models an attacker paying the victim-pool proceeds out over several
    periods to damp its density variance. With ``random_phase_seed`` the
    window boundaries are jittered per period (random-payout-time variant).
    Series without a stored decomposition are smoothed around their mean.
    """
    check_count(window, "window")
    if not len(series):
        raise InvalidScenario("cannot smooth an empty reward-density series")
    rng = None if random_phase_seed is None else _rng(random_phase_seed, "random_phase_seed")
    extra = series.extra if series.extra is not None else series.samples - series.samples.mean()
    base = series.base if series.base is not None else np.full_like(series.samples, series.samples.mean())
    if window == 1:
        return RewardDensitySeries(base + extra, base=base, extra=extra)
    n = extra.size
    if rng is None:
        kernel = np.ones(window) / window
        padded = np.concatenate([np.repeat(extra[:1], window - 1), extra])
        smoothed = np.convolve(padded, kernel, mode="valid")
    else:
        smoothed = np.empty(n)
        for t in range(n):
            w = int(rng.integers(1, window + 1))
            lo = max(0, t - w + 1)
            smoothed[t] = extra[lo : t + 1].mean()
    return RewardDensitySeries(base + smoothed, base=base, extra=smoothed)


@dataclass(frozen=True)
class PartialSharingReport:
    attacker_gain: float  # extra reward density with full sharing
    loyal_loss: float  # miners' loss if victim-derived rewards are withheld
    min_share_fraction: float  # least fraction that must be passed through


def evasion_partial_sharing(
    alpha: float, beta: float, infiltration_power: float,
    kind: AttackKind = AttackKind.FAW,
) -> PartialSharingReport:
    """How much of the victim-derived reward the attacker must pass through.

    Withholding the victim-derived component entirely would cost the miners
    the infiltration detachment's contribution; the manager must share at
    least loss/(loss+gain) of the proceeds to keep them whole. The inputs
    follow ``DetectionScenario``'s rule, with gamma = infiltration_power / alpha,
    and an attack that loses (a negative gain) has no proceeds to share, so
    it is refused.
    """
    check_powers(alpha, beta)  # before the share divides by alpha
    _check_share(infiltration_power / alpha, "infiltration_power / alpha")
    check_kind(kind)
    if infiltration_power == 0.0:
        return PartialSharingReport(0.0, 0.0, 0.0)
    # the loss 1 - (alpha - x) / ((1 - x) alpha) and the one-sided attacker
    # payoff, each with the factor x / (alpha (1 - x)) taken out of a
    # difference that would cancel at small x
    a, v, x = alpha, beta, infiltration_power
    scale = x / (a * (1.0 - x))
    loss = scale * (1.0 - a)
    gain = scale * (v * (a - x) if kind is AttackKind.FAW else a * v - (1.0 - a) * x) / (v + x)
    if gain < 0.0:
        raise InvalidScenario(f"the {kind.value.upper()} attack loses: attacker_gain {gain} < 0")
    return PartialSharingReport(gain, loss, loss / (loss + gain))


def ingest_hashrate_csv(path) -> HashrateSeries:
    """Parse and validate a `timestamp,pool,hashrate` CSV.

    Timestamps are ISO-8601 and must be strictly increasing within each pool;
    hash rates must be positive decimals.
    """
    timestamps: dict[str, list[datetime]] = {}
    rates: dict[str, list[float]] = {}
    header_seen = False
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PoolGameError(f"cannot read hash-rate file: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            parts = [p.strip().lower() for p in line.split(",")]
            if parts != ["timestamp", "pool", "hashrate"]:
                raise ParseError(line_no, f"expected header timestamp,pool,hashrate, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(parts)}")
        ts_raw, pool, rate_raw = (p.strip() for p in parts)
        try:
            ts = datetime.fromisoformat(ts_raw)
        except ValueError:
            raise ParseError(line_no, f"bad timestamp {ts_raw!r}") from None
        try:
            rate = float(rate_raw)
        except ValueError:
            raise ParseError(line_no, f"bad hash rate {rate_raw!r}") from None
        if not math.isfinite(rate) or rate <= 0.0:
            raise NonPositiveRate(line_no, rate)
        times = timestamps.setdefault(pool, [])
        if times and ts <= times[-1]:
            raise NonMonotoneTimestamp(line_no, ts_raw)
        times.append(ts)
        rates.setdefault(pool, []).append(rate)
    if not rates:
        raise ParseError(0, "no data rows")
    return HashrateSeries(
        timestamps={k: tuple(v) for k, v in timestamps.items()},
        rates={k: np.asarray(v, float) for k, v in rates.items()},
    )


def generate_synthetic_hashrates(hours: int = 720, seed: int = 20190121) -> list[str]:
    """CSV lines for a synthetic hourly hash-rate fixture of ``FIXTURE_POOLS``.

    Each pool's series is its mean rate times a stationary AR(1) multiplier
    with relative standard deviation ``FIXTURE_REL_SD``. Its 0.6% per-hour
    fluctuation matches the scale implied by the published variance-ratio
    measurements on live pool data; larger fluctuation would proportionally
    shrink every attack/honest variance ratio.
    """
    check_count(hours, "hours")
    rng = _rng(seed)
    lines = ["timestamp,pool,hashrate"]
    innovation = FIXTURE_REL_SD * math.sqrt(1.0 - FIXTURE_AR_COEFFICIENT**2)
    for pool, mean_rate in FIXTURE_POOLS:
        z = np.empty(hours)
        z[0] = rng.normal(0.0, FIXTURE_REL_SD)
        eps = rng.normal(0.0, innovation, hours)
        for t in range(1, hours):
            z[t] = FIXTURE_AR_COEFFICIENT * z[t - 1] + eps[t]
        series = mean_rate * (1.0 + z)
        for t in range(hours):
            ts = (FIXTURE_START + timedelta(hours=t)).isoformat()
            lines.append(f"{ts},{pool},{series[t]:.6f}")
    return lines


def load_bundled_hashrates() -> HashrateSeries:
    return ingest_hashrate_csv(FIXTURE_PATH)
