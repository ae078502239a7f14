"""Price/inflow sampling, level fitting, and block helpers."""

import numpy as np
import pytest

from hydrosp.hydro import Resolution
from hydrosp.scenarios import (SamplerConfig, sample_day_ahead,
                               sample_day_ahead_set,
                               sample_capacity_horizon, PriceCurve,
                               InflowVector, ScenarioSample, PriceLevels,
                               price_levels, default_blocks, block_hours,
                               block_price_levels)
from _toys import two_plant, scen


def test_sampler_is_deterministic():
    net = two_plant()
    cfg = SamplerConfig(seed=42)
    a = sample_day_ahead(cfg, net, index=3)
    b = sample_day_ahead(SamplerConfig(seed=42), net, index=3)
    assert np.array_equal(a.price.values, b.price.values)
    assert np.array_equal(a.inflow.values, b.inflow.values)
    c = sample_day_ahead(cfg, net, index=4)
    assert not np.array_equal(a.price.values, c.price.values)
    d = sample_day_ahead(SamplerConfig(seed=43), net, index=3)
    assert not np.array_equal(a.price.values, d.price.values)


def test_day_ahead_shapes_and_bounds():
    net = two_plant()
    cfg = SamplerConfig(seed=0, price_noise=50.0)   # violent noise
    for i in range(20):
        s = sample_day_ahead(cfg, net, index=i)
        assert s.price.values.shape == (24,)
        assert s.inflow.values.shape == (2,)
        assert np.all(s.price.values >= 0.0)        # clamped at zero
        assert np.all(s.inflow.values >= 0.0)


def test_zero_noise_collapses_to_seasonal_mean():
    net = two_plant()
    cfg = SamplerConfig(seed=1, price_noise=0.0, inflow_noise=0.0)
    a = sample_day_ahead(cfg, net, index=0)
    b = sample_day_ahead(cfg, net, index=9)
    assert np.array_equal(a.price.values, b.price.values)
    assert np.array_equal(a.inflow.values, b.inflow.values)
    season = 1.0 + cfg.price_season_amplitude * np.cos(
        2.0 * np.pi * (cfg.anchor_month - 1) / 12.0)
    assert a.price.values == pytest.approx(cfg.price_profile * season)
    qmax = np.array([p.max_discharge_m3s for p in net.plants])
    assert a.inflow.values == pytest.approx(
        cfg.inflow_fraction * qmax * (1.0 + cfg.inflow_season_amplitude *
                                      np.cos(0.0)))


def test_sample_mean_tracks_profile():
    net = two_plant()
    cfg = SamplerConfig(seed=7)
    n = 400
    prices = np.stack([sample_day_ahead(cfg, net, i).price.values
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
        assert np.array_equal(s.price.values, direct.price.values)


# ------------------------------------------------------- capacity horizon

def test_capacity_horizon_shapes():
    net = two_plant()
    cfg = SamplerConfig(seed=3)
    s = sample_capacity_horizon(cfg, net, 10, Resolution(24))
    assert s.price.values.shape == (10,)
    assert s.inflow.values.shape == (10, 2)
    s = sample_capacity_horizon(cfg, net, 10, Resolution(120))
    assert s.price.values.shape == (2,)
    with pytest.raises(ValueError, match="divisible"):
        sample_capacity_horizon(cfg, net, 3, Resolution(120))
    with pytest.raises(ValueError, match="at least one"):
        sample_capacity_horizon(cfg, net, 0, Resolution(24))


def test_capacity_horizon_yearly_growth():
    net = two_plant()
    cfg = SamplerConfig(seed=11, price_noise=0.0, inflow_noise=0.0)
    s = sample_capacity_horizon(cfg, net, 366, Resolution(24), rate=0.04)
    # day 365 repeats day 0's season one year later, scaled by the rate
    assert s.price.values[365] == pytest.approx(1.04 * s.price.values[0],
                                                rel=1e-12)
    flat = sample_capacity_horizon(cfg, net, 366, Resolution(24), rate=0.0)
    assert flat.price.values[365] == pytest.approx(flat.price.values[0],
                                                   rel=1e-12)
    assert np.array_equal(s.inflow.values[365], s.inflow.values[0])


def test_capacity_horizon_rate_respects_cap():
    net = two_plant()
    cfg = SamplerConfig(seed=2, price_noise=0.0, rate_cap=0.0)
    s = sample_capacity_horizon(cfg, net, 366, Resolution(24))
    assert s.price.values[365] == pytest.approx(s.price.values[0],
                                                rel=1e-12)


def test_capacity_aggregation_is_hourly_mean():
    net = two_plant()
    cfg = SamplerConfig(seed=9)
    hourly = sample_capacity_horizon(cfg, net, 2, Resolution(1))
    daily = sample_capacity_horizon(cfg, net, 2, Resolution(24))
    assert daily.price.values == pytest.approx(
        hourly.price.values.reshape(2, 24).mean(axis=1))


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
    assert not lv.degenerate.any()
    assert lv.count == 5 and lv.horizon == 4


def test_price_levels_middle_level_is_the_mean():
    rng = np.random.default_rng(0)
    samples = [scen(rng.uniform(5.0, 40.0, 6), [1.0]) for _ in range(7)]
    lv = price_levels(samples, count=5)
    mat = np.stack([s.price.values for s in samples])
    assert lv.values[2] == pytest.approx(mat.mean(axis=0))
    # strictly increasing wherever sigma > 0
    assert np.all(np.diff(lv.values, axis=0) > 0.0)


def test_price_levels_degenerate_hours_flagged():
    a = scen([10.0, 15.0], [1.0])
    b = scen([10.0, 25.0], [1.0])
    lv = price_levels([a, b], count=3)
    assert list(lv.degenerate) == [True, False]
    assert lv.values[0, 0] == lv.values[2, 0] == 10.0


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
    lv = PriceLevels(np.array([[20.0, 30.0]]), np.zeros(2, dtype=bool))
    out = block_price_levels(lv, [(0, 2)])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(25.0)
    ident = block_price_levels(lv, [(0, 1), (1, 2)])
    assert ident == pytest.approx(lv.values)


def test_block_price_levels_empty_block_rejected():
    lv = PriceLevels(np.array([[20.0, 30.0]]), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        block_price_levels(lv, [(1, 1)])


def test_scenario_container_validation():
    with pytest.raises(ValueError, match="non-negative"):
        PriceCurve([-1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        PriceCurve([[1.0]])
    with pytest.raises(ValueError, match="non-negative|inflow"):
        InflowVector([-1.0])
    iv = InflowVector([[1.0, 2.0], [3.0, 4.0]])
    assert iv.at(0) == pytest.approx([1.0, 2.0])
    assert iv.at(1) == pytest.approx([3.0, 4.0])
    const = InflowVector([5.0, 6.0])
    assert const.at(7) == pytest.approx([5.0, 6.0])


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="ar_coef"):
        SamplerConfig(ar_coef=1.0)
    with pytest.raises(ValueError, match="rate_cap"):
        SamplerConfig(rate_cap=-0.1)
    with pytest.raises(ValueError, match="anchor_month"):
        SamplerConfig(anchor_month=13)
