"""Scenario samples, their synthetic sampling, and bid price-level
construction.

A ScenarioSample holds one scenario's price and inflow arrays itself and
checks them once, where it is built; the models read ``sample.price`` and
``sample.inflow``.

All randomness flows from the config seed: sample index k of role r uses
numpy's SeedSequence(seed, spawn_key=(r, k)), so scenario sets are
reproducible element-wise and safe to generate concurrently.
"""

from dataclasses import dataclass, field
import math

import numpy as np

# typical Nordic diurnal shape: low night prices, morning and evening peaks
DEFAULT_PRICE_PROFILE = np.array([
    26.38, 25.91, 25.59, 25.48, 26.00, 26.83, 28.39, 32.75,
    35.15, 34.47, 33.52, 32.58, 32.10, 31.74, 31.70, 32.34,
    35.08, 37.44, 35.12, 31.95, 29.97, 28.78, 27.82, 26.84,
])

_ROLE_DAY_AHEAD = 0
_ROLE_HORIZON = 1


def _checked(values, name, ndims, expected):
    """``values`` as a read-only float64 copy with a dimension count in
    ``ndims``, every entry finite and non-negative."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim not in ndims:
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioSample:
    """One scenario: per-period market prices in Eur/MWh, shape (T,), and
    per-plant local inflows in m3/s, (H,) for a constant day or (T, H) per
    period for long horizons.  Both become read-only float64 copies,
    checked here to be finite and non-negative, so no later write to the
    caller's arrays reaches a checked sample."""

    price: np.ndarray
    inflow: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "price", _checked(
            self.price, "price", (1,), "(T,)"))
        object.__setattr__(self, "inflow", _checked(
            self.inflow, "inflow", (1, 2), "(H,) or (T, H)"))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    price_profile: np.ndarray = field(default_factory=lambda: DEFAULT_PRICE_PROFILE.copy())
    price_season_amplitude: float = 0.10
    inflow_fraction: float = 0.10          # mean inflow as share of plant max discharge
    inflow_season_amplitude: float = 0.30
    ar_coef: float = 0.6
    price_noise: float = 2.0               # Eur/MWh innovation scale
    inflow_noise: float = 0.30             # lognormal sigma (relative)
    anchor_month: int = 6
    rate_cap: float = 0.04                 # yearly price growth upper bound

    def __post_init__(self):
        object.__setattr__(self, "price_profile",
                           np.asarray(self.price_profile, dtype=np.float64))
        if not 0.0 <= self.ar_coef < 1.0:
            raise ValueError("ar_coef must lie in [0, 1)")
        if self.rate_cap < 0.0:
            raise ValueError("rate_cap must be non-negative")
        if not 1 <= self.anchor_month <= 12:
            raise ValueError("anchor_month must lie in 1..12")


def _rng(config, role, index):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(role, index))))


def _price_season(config, month):
    # winter-peaking annual cycle
    return 1.0 + config.price_season_amplitude * math.cos(2.0 * math.pi * (month - 1) / 12.0)


def _inflow_season(config, month):
    # snowmelt-peaking annual cycle
    return 1.0 + config.inflow_season_amplitude * math.cos(2.0 * math.pi * (month - 6) / 12.0)


def _month_of_day(config, day):
    return ((config.anchor_month - 1 + day // 30) % 12) + 1


def _inflow_means(config, network, month):
    caps = np.array([p.max_discharge_m3s for p in network.plants])
    return config.inflow_fraction * caps * _inflow_season(config, month)


def _ar1(rng, n, coef, scale):
    if scale == 0.0:
        return np.zeros(n)
    z = rng.standard_normal(n)
    e = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = coef * prev + scale * z[t]
        e[t] = prev
    return e


def _lognormal_around(rng, mean, sigma):
    # multiplicative noise with exact mean: E[exp(sigma*Z - sigma^2/2)] = 1
    if sigma == 0.0:
        return mean.copy()
    z = rng.standard_normal(mean.shape)
    return mean * np.exp(sigma * z - 0.5 * sigma * sigma)


def sample_day_ahead(config, network, index=0):
    """One 24-hour scenario: AR(1) noise on the diurnal mean profile, and a
    per-plant inflow held constant over the day."""
    rng = _rng(config, _ROLE_DAY_AHEAD, index)
    mean = config.price_profile * _price_season(config, config.anchor_month)
    noise = _ar1(rng, len(mean), config.ar_coef, config.price_noise)
    prices = np.maximum(mean + noise, 0.0)
    inflow = _lognormal_around(rng, _inflow_means(config, network, config.anchor_month),
                               config.inflow_noise)
    return ScenarioSample(prices, inflow)


def sample_day_ahead_set(config, network, n):
    return [sample_day_ahead(config, network, i) for i in range(n)]


def sample_capacity_horizon(config, network, horizon_days, resolution, index=0,
                            rate=None):
    """A multi-day scenario aggregated to the given resolution.

    Draws one yearly price growth rate uniformly in [0, rate_cap] (unless
    given), compounds it per elapsed year, chains daily curves with a
    continuous AR(1) noise stream, and aggregates prices/inflows to
    hours_per_period-sized buckets by their mean.
    """
    if horizon_days < 1:
        raise ValueError("horizon must cover at least one day")
    hpp = resolution.hours_per_period
    total_hours = horizon_days * 24
    if total_hours % hpp != 0:
        raise ValueError(
            f"horizon of {total_hours} hours is not divisible by {hpp}-hour periods")
    rng = _rng(config, _ROLE_HORIZON, index)
    if rate is None:
        rate = rng.uniform(0.0, config.rate_cap)

    nplants = len(network)
    hourly_price = np.empty(total_hours)
    daily_inflow = np.empty((horizon_days, nplants))
    noise = _ar1(rng, total_hours, config.ar_coef, config.price_noise)
    for d in range(horizon_days):
        month = _month_of_day(config, d)
        growth = (1.0 + rate) ** (d // 365)
        mean = config.price_profile * _price_season(config, month) * growth
        hourly_price[24 * d:24 * (d + 1)] = mean
        daily_inflow[d] = _lognormal_around(
            rng, _inflow_means(config, network, month), config.inflow_noise)
    hourly_price = np.maximum(hourly_price + noise, 0.0)

    periods = total_hours // hpp
    prices = hourly_price.reshape(periods, hpp).mean(axis=1)
    hourly_inflow = np.repeat(daily_inflow, 24, axis=0)
    inflows = hourly_inflow.reshape(periods, hpp, nplants).mean(axis=1)
    return ScenarioSample(prices, inflows)


@dataclass(frozen=True, eq=False)
class PriceLevels:
    """Bid price levels per hour: mean + k*sigma for symmetric integer k."""

    values: np.ndarray       # (count, T), ascending in the first axis

    @property
    def count(self):
        return self.values.shape[0]

    @property
    def horizon(self):
        return self.values.shape[1]


def price_levels(samples, count=5):
    """Level sets from a sample of price curves (sample std, ddof=1)."""
    if len(samples) < 2:
        raise ValueError("need at least two price samples")
    if count < 1 or count % 2 == 0:
        raise ValueError("count must be odd")
    mat = np.vstack([s.price for s in samples])
    mean = mat.mean(axis=0)
    sigma = mat.std(axis=0, ddof=1)
    ks = np.arange(count) - count // 2
    values = mean[None, :] + ks[:, None] * sigma[None, :]
    return PriceLevels(values)


def default_blocks(horizon=24, width=4):
    """Contiguous equal blocks covering the horizon, as (start, stop) pairs."""
    return [(s, min(s + width, horizon)) for s in range(0, horizon, width)]


def block_hours(block):
    return range(block[0], block[1])


def block_price_levels(levels, blocks):
    """Per-block level sets: the block mean of each hourly level."""
    out = np.empty((levels.count, len(blocks)))
    for bi, blk in enumerate(blocks):
        hours = list(block_hours(blk))
        if not hours:
            raise ValueError(f"block {bi} is empty")
        out[:, bi] = levels.values[:, hours].mean(axis=1)
    return out

