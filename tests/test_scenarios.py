"""Price/inflow sampling, level fitting, and block helpers."""

import numpy as np
import pytest

from hydrosp.hydro import Resolution
from hydrosp.scenarios import (DEFAULT_PRICE_PROFILE, SamplerConfig,
                               sample_day_ahead, sample_day_ahead_set,
                               sample_capacity_horizon, ScenarioSample,
                               PriceLevels, price_levels, default_blocks,
                               block_hours, block_price_levels)
from _toys import two_plant, scen


def test_sampler_is_deterministic():
    net = two_plant()
    cfg = SamplerConfig(seed=42)
    a = sample_day_ahead(cfg, net, index=3)
    b = sample_day_ahead(SamplerConfig(seed=42), net, index=3)
    assert np.array_equal(a.price, b.price)
    assert np.array_equal(a.inflow, b.inflow)
    c = sample_day_ahead(cfg, net, index=4)
    assert not np.array_equal(a.price, c.price)
    d = sample_day_ahead(SamplerConfig(seed=43), net, index=3)
    assert not np.array_equal(a.price, d.price)


def test_day_ahead_shapes_and_bounds():
    net = two_plant()
    cfg = SamplerConfig(seed=0, price_noise=50.0)   # violent noise
    for i in range(20):
        s = sample_day_ahead(cfg, net, index=i)
        assert s.price.shape == (24,)
        assert s.inflow.shape == (2,)
        assert np.all(s.price >= 0.0)        # clamped at zero
        assert np.all(s.inflow >= 0.0)


def test_zero_noise_collapses_to_seasonal_mean():
    net = two_plant()
    cfg = SamplerConfig(seed=1, price_noise=0.0, inflow_noise=0.0)
    a = sample_day_ahead(cfg, net, index=0)
    b = sample_day_ahead(cfg, net, index=9)
    assert np.array_equal(a.price, b.price)
    assert np.array_equal(a.inflow, b.inflow)
    season = 1.0 + cfg.price_season_amplitude * np.cos(
        2.0 * np.pi * (cfg.anchor_month - 1) / 12.0)
    assert a.price == pytest.approx(cfg.price_profile * season)
    qmax = np.array([p.max_discharge_m3s for p in net.plants])
    assert a.inflow == pytest.approx(
        cfg.inflow_fraction * qmax * (1.0 + cfg.inflow_season_amplitude *
                                      np.cos(0.0)))


def test_sample_mean_tracks_profile():
    net = two_plant()
    cfg = SamplerConfig(seed=7)
    n = 400
    prices = np.stack([sample_day_ahead(cfg, net, i).price
                       for i in range(n)])
    season = 1.0 + cfg.price_season_amplitude * np.cos(
        2.0 * np.pi * (cfg.anchor_month - 1) / 12.0)
    target = cfg.price_profile * season
    # AR(1) noise has zero mean; allow 4 standard errors of slack
    se = prices.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(prices.mean(axis=0) - target) < 4.0 * se + 1e-9)


def test_sample_set_matches_indexed_draws():
    net = two_plant()
    cfg = SamplerConfig(seed=5)
    batch = sample_day_ahead_set(cfg, net, 4)
    for i, s in enumerate(batch):
        direct = sample_day_ahead(cfg, net, index=i)
        assert np.array_equal(s.price, direct.price)


# ------------------------------------------------------- capacity horizon

def test_capacity_horizon_shapes():
    net = two_plant()
    cfg = SamplerConfig(seed=3)
    s = sample_capacity_horizon(cfg, net, 10, Resolution(24))
    assert s.price.shape == (10,)
    assert s.inflow.shape == (10, 2)
    s = sample_capacity_horizon(cfg, net, 10, Resolution(120))
    assert s.price.shape == (2,)
    with pytest.raises(ValueError, match="divisible"):
        sample_capacity_horizon(cfg, net, 3, Resolution(120))
    with pytest.raises(ValueError, match="at least one"):
        sample_capacity_horizon(cfg, net, 0, Resolution(24))


def test_capacity_horizon_yearly_growth():
    net = two_plant()
    cfg = SamplerConfig(seed=11, price_noise=0.0, inflow_noise=0.0)
    s = sample_capacity_horizon(cfg, net, 366, Resolution(24), rate=0.04)
    # day 365 repeats day 0's season one year later, scaled by the rate
    assert s.price[365] == pytest.approx(1.04 * s.price[0],
                                                rel=1e-12)
    flat = sample_capacity_horizon(cfg, net, 366, Resolution(24), rate=0.0)
    assert flat.price[365] == pytest.approx(flat.price[0],
                                                   rel=1e-12)
    assert np.array_equal(s.inflow[365], s.inflow[0])


def test_capacity_horizon_rate_respects_cap():
    net = two_plant()
    cfg = SamplerConfig(seed=2, price_noise=0.0, rate_cap=0.0)
    s = sample_capacity_horizon(cfg, net, 366, Resolution(24))
    assert s.price[365] == pytest.approx(s.price[0],
                                                rel=1e-12)


def test_capacity_aggregation_is_hourly_mean():
    net = two_plant()
    cfg = SamplerConfig(seed=9)
    hourly = sample_capacity_horizon(cfg, net, 2, Resolution(1))
    daily = sample_capacity_horizon(cfg, net, 2, Resolution(24))
    assert daily.price == pytest.approx(
        hourly.price.reshape(2, 24).mean(axis=1))


# ------------------------------------------------------------ price levels

def test_price_levels_pinned_two_samples():
    a = scen([10.0] * 4, [1.0])
    b = scen([30.0] * 4, [1.0])
    lv = price_levels([a, b], count=5)
    sigma = np.sqrt(((10.0 - 20.0) ** 2 + (30.0 - 20.0) ** 2) / 1.0)
    assert sigma == pytest.approx(14.142135623730951)
    expected = [20.0 + k * sigma for k in (-2, -1, 0, 1, 2)]
    for i, val in enumerate(expected):
        assert lv.values[i] == pytest.approx(val)
    assert lv.count == 5 and lv.horizon == 4


def test_price_levels_middle_level_is_the_mean():
    rng = np.random.default_rng(0)
    samples = [scen(rng.uniform(5.0, 40.0, 6), [1.0]) for _ in range(7)]
    lv = price_levels(samples, count=5)
    mat = np.stack([s.price for s in samples])
    assert lv.values[2] == pytest.approx(mat.mean(axis=0))
    # strictly increasing wherever sigma > 0
    assert np.all(np.diff(lv.values, axis=0) > 0.0)


def test_price_levels_validation():
    a = scen([10.0], [1.0])
    b = scen([30.0], [1.0])
    with pytest.raises(ValueError, match="odd"):
        price_levels([a, b], count=4)
    with pytest.raises(ValueError, match="odd"):
        price_levels([a, b], count=0)
    with pytest.raises(ValueError, match="two"):
        price_levels([a], count=3)
    lv = price_levels([a, b], count=1)
    assert lv.values[0, 0] == pytest.approx(20.0)


# ----------------------------------------------------------------- blocks

def test_default_blocks_cover_and_partition():
    blocks = default_blocks(24, 4)
    assert blocks == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24)]
    blocks = default_blocks(24, 5)
    assert blocks[-1] == (20, 24)                  # trailing short block
    covered = sorted(h for b in blocks for h in block_hours(b))
    assert covered == list(range(24))


def test_block_price_levels_pinned():
    lv = PriceLevels(np.array([[20.0, 30.0]]))
    out = block_price_levels(lv, [(0, 2)])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(25.0)
    ident = block_price_levels(lv, [(0, 1), (1, 2)])
    assert ident == pytest.approx(lv.values)


def test_block_price_levels_empty_block_rejected():
    lv = PriceLevels(np.array([[20.0, 30.0]]))
    with pytest.raises(ValueError, match="empty"):
        block_price_levels(lv, [(1, 1)])


# --------------------------------------------------------- sample checks

def test_sample_holds_read_only_float64_copies():
    price, inflow = np.array([10.0, 20.0]), np.array([[1, 2], [3, 4]])
    s = ScenarioSample(price, inflow)
    assert s.price.dtype == s.inflow.dtype == np.float64
    assert s.inflow.shape == (2, 2)
    assert ScenarioSample([10.0], [5.0, 6.0]).inflow.shape == (2,)
    price[0] = np.nan
    assert s.price == pytest.approx([10.0, 20.0])
    with pytest.raises(ValueError, match="read-only"):
        s.inflow[0, 0] = -1.0


@pytest.mark.parametrize("price, match", [
    ([-1.0], "price must be non-negative"),
    ([np.nan], "price must be finite"),
    ([np.inf], "price must be finite"),
    ([10.0, -np.inf], "price must be finite"),
    (10.0, r"price has shape \(\), expected \(T,\)"),
    ([[1.0]], r"price has shape \(1, 1\), expected \(T,\)"),
])
def test_sample_rejects_bad_prices(price, match):
    with pytest.raises(ValueError, match=match):
        ScenarioSample(price, [1.0])


@pytest.mark.parametrize("inflow, match", [
    ([-1.0], "inflow must be non-negative"),
    ([[1.0, 2.0], [3.0, -0.5]], "inflow must be non-negative"),
    ([1.0, np.nan], "inflow must be finite"),
    ([[np.inf, 1.0]], "inflow must be finite"),
    (1.0, r"inflow has shape \(\), expected \(H,\) or \(T, H\)"),
    (np.ones((2, 2, 2)), r"inflow has shape \(2, 2, 2\)"),
])
def test_sample_rejects_bad_inflows(inflow, match):
    with pytest.raises(ValueError, match=match):
        ScenarioSample([10.0], inflow)


def test_a_nan_price_fails_where_the_sample_is_built():
    profile = DEFAULT_PRICE_PROFILE.copy()
    profile[5] = np.nan
    cfg = SamplerConfig(seed=0, price_profile=profile)
    with pytest.raises(ValueError, match="price must be finite"):
        sample_day_ahead(cfg, two_plant())
    with pytest.raises(ValueError, match="price must be finite"):
        sample_capacity_horizon(cfg, two_plant(), 1, Resolution(24))


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="ar_coef"):
        SamplerConfig(ar_coef=1.0)
    with pytest.raises(ValueError, match="rate_cap"):
        SamplerConfig(rate_cap=-0.1)
    with pytest.raises(ValueError, match="anchor_month"):
        SamplerConfig(anchor_month=13)
