"""Market clearing: hourly interpolation and all-or-nothing blocks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hydrosp.models import (interp_weights, hourly_dispatch, block_dispatch,
                            accepted_block_levels)
from hydrosp.models.dispatch import clearing_weights
from _reference import scalar_interp_weights

# single-hour order book with two price-dependent volumes; the cleared
# volume at a settled price of 28 Eur/MWh is known to full precision
BOOK_LEVELS = [26.39458610153198, 29.14509907050426]
BOOK_VOLUMES = [636.7057290307187, 680.0388233393326]
CLEARED_AT_28 = 661.9983026893217


def test_hourly_dispatch_pinned_example():
    y = hourly_dispatch(28.0, BOOK_LEVELS, 0.0, BOOK_VOLUMES)
    assert y == pytest.approx(CLEARED_AT_28, abs=1e-12)
    # the book rounded to publication precision still lands within 1e-2
    y_rounded = hourly_dispatch(28.0, [26.3946, 29.1451], 0.0,
                                [636.706, 680.039])
    assert y_rounded == pytest.approx(CLEARED_AT_28, abs=1e-2)


def test_hourly_dispatch_on_level_and_midpoint():
    levels = [10.0, 20.0, 30.0]
    deps = [1.0, 5.0, 9.0]
    assert hourly_dispatch(20.0, levels, 0.0, deps) == pytest.approx(5.0)
    assert hourly_dispatch(15.0, levels, 0.0, deps) == pytest.approx(3.0)
    assert hourly_dispatch(25.0, levels, 2.0, deps) == pytest.approx(9.0)


def test_hourly_dispatch_clamps_outside_range():
    levels = [10.0, 30.0]
    deps = [4.0, 8.0]
    assert hourly_dispatch(5.0, levels, 1.0, deps) == pytest.approx(5.0)
    assert hourly_dispatch(50.0, levels, 1.0, deps) == pytest.approx(9.0)
    assert hourly_dispatch(10.0, levels, 0.0, deps) == pytest.approx(4.0)
    assert hourly_dispatch(30.0, levels, 0.0, deps) == pytest.approx(8.0)


def test_interp_weights_validation():
    with pytest.raises(ValueError, match="sorted"):
        interp_weights(5.0, [3.0, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        interp_weights(5.0, [])
    with pytest.raises(ValueError):
        interp_weights(5.0, [[1.0, 2.0]])


def test_interp_weights_single_level():
    assert interp_weights(99.0, [20.0]) == [(0, 1.0)]
    assert interp_weights(1.0, [20.0]) == [(0, 1.0)]


@given(st.integers(0, 10_000))
def test_interp_weights_partition_of_unity(seed):
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(0.0, 50.0, int(rng.integers(1, 8))))
    rho = float(rng.uniform(-10.0, 60.0))
    pairs = interp_weights(rho, levels)
    weights = [w for _, w in pairs]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= w <= 1.0 for w in weights)
    assert len(pairs) <= 2
    idx = [i for i, _ in pairs]
    if len(idx) == 2:
        assert idx[1] == idx[0] + 1                # adjacent levels only
        assert levels[idx[0]] <= rho <= levels[idx[1]]


@given(st.integers(0, 10_000))
def test_clearing_weights_equal_the_scalar_branches(seed):
    # tied levels and prices on a level, below and above the range
    rng = np.random.default_rng(seed)
    P, T = int(rng.integers(1, 6)), 12
    levels = np.sort(rng.integers(0, 5, (P, T)) * 7.5
                     + rng.uniform(0.0, 1.0, T), axis=0)
    on = levels[rng.integers(0, P, T), np.arange(T)]
    prices = np.where(rng.uniform(size=T) < 0.4, on,
                      rng.uniform(-5.0, 40.0, T))
    w = clearing_weights(prices, levels)
    for t in range(T):
        want = np.zeros(P)
        for i, wi in scalar_interp_weights(prices[t], levels[:, t]):
            want[i] = wi
        assert w[:, t].tobytes() == want.tobytes()


@given(st.integers(0, 10_000))
def test_hourly_dispatch_monotone_in_price(seed):
    # with nondecreasing dependent volumes, dispatch never falls as the
    # realized price rises
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(0.0, 50.0, 4))
    deps = np.sort(rng.uniform(0.0, 10.0, 4))
    rhos = np.sort(rng.uniform(-5.0, 55.0, 6))
    vals = [hourly_dispatch(r, levels, 0.0, deps) for r in rhos]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------------ blocks

def test_block_dispatch_pinned_example():
    # levels {20, 25, 30} with volumes {5, 7, 11}; realized mean 26
    # accepts the 20- and 25-priced orders: 5 + 7 = 12
    levels = np.array([[20.0], [25.0], [30.0]])
    vols = np.array([[5.0], [7.0], [11.0]])
    out = block_dispatch(np.array([26.0, 26.0]), levels, [(0, 2)], vols)
    assert out == pytest.approx([12.0])


def test_block_dispatch_boundary_and_extremes():
    levels = np.array([[20.0], [25.0]])
    vols = np.array([[5.0], [7.0]])
    blocks = [(0, 2)]
    # equality accepts
    assert block_dispatch(np.array([25.0, 25.0]), levels, blocks,
                          vols) == pytest.approx([12.0])
    # below every level: nothing
    assert block_dispatch(np.array([1.0, 2.0]), levels, blocks,
                          vols) == pytest.approx([0.0])
    # above every level: everything
    assert block_dispatch(np.array([90.0, 90.0]), levels, blocks,
                          vols) == pytest.approx([12.0])


def test_block_dispatch_uses_block_mean():
    levels = np.array([[24.0, 24.0]])
    vols = np.array([[3.0, 4.0]])
    blocks = [(0, 2), (2, 4)]
    prices = np.array([20.0, 30.0, 10.0, 20.0])   # means 25 and 15
    out = block_dispatch(prices, levels, blocks, vols)
    assert out == pytest.approx([3.0, 0.0])
    mask = accepted_block_levels(prices, levels, blocks)
    assert mask.tolist() == [[True, False]]


def test_block_dispatch_matches_enumeration(rng):
    # oracle: sum volumes over levels whose price clears the block mean
    for _ in range(100):
        P = int(rng.integers(1, 5))
        B = int(rng.integers(1, 4))
        edges = np.sort(rng.choice(np.arange(1, 12), size=B - 1,
                                   replace=False)) if B > 1 else np.array([])
        bounds = np.concatenate([[0], edges, [12]]).astype(int)
        blocks = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]
        prices = rng.uniform(0.0, 50.0, 12)
        levels = np.sort(rng.uniform(0.0, 50.0, (P, B)), axis=0)
        vols = rng.uniform(0.0, 10.0, (P, B))
        got = block_dispatch(prices, levels, blocks, vols)
        for b, (start, stop) in enumerate(blocks):
            mean = prices[start:stop].mean()
            want = sum(vols[i, b] for i in range(P)
                       if levels[i, b] <= mean)
            assert got[b] == pytest.approx(want, abs=1e-12)
