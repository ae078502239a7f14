"""Market clearing rules for hourly and block orders.

Hourly price-dependent volumes interpolate linearly between the two price
levels bracketing the realized price (clamped to the level range); block
orders are accepted all-or-nothing per level when the level's block price
does not exceed the realized block mean price.
"""

import numpy as np


def clearing_weights(prices, levels):
    """The (P, T) weights w with y_dep[t] = sum_i w[i, t] * x_i[t] at the
    realized prices[t], each column as ``interp_weights`` of hour t."""
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 2 or not levels.shape[0]:
        raise ValueError("levels must be a non-empty (P, T) array")
    if np.any(levels[1:] < levels[:-1]):
        raise ValueError("price levels must be sorted ascending")
    P, T = levels.shape
    rho = np.asarray(prices, dtype=np.float64)[:T]
    w = np.zeros((P, T))
    below, above = rho <= levels[0], rho >= levels[-1]
    w[0, below] = 1.0
    w[P - 1, above & ~below] = 1.0
    t = np.flatnonzero(~(below | above))
    i = np.sum(levels[:, t] <= rho[t], axis=0) - 1
    lo = levels[i, t]
    w_hi = (rho[t] - lo) / (levels[i + 1, t] - lo)    # 0 when on level i
    w[i, t] = 1.0 - w_hi
    w[i + 1, t] = w_hi
    return w


def interp_weights(rho, levels):
    """Weights w_i with y_dep = sum_i w_i * x_i for realized price rho.

    Returns a list of (index, weight) pairs: one entry when rho sits on a
    level or outside the range (clamped), else the two bracketing levels'
    linear interpolation weights.
    """
    w = clearing_weights([rho], np.asarray(levels)[:, None])[:, 0]
    return [(int(i), float(w[i])) for i in np.flatnonzero(w)]


def hourly_dispatch(rho, levels, x_independent, x_dependent):
    """Dispatched hourly volume for one hour."""
    x_dependent = np.asarray(x_dependent, dtype=np.float64)
    y = float(x_independent)
    for i, w in interp_weights(rho, levels):
        y += w * x_dependent[i]
    return y


def block_dispatch(prices, block_levels, blocks, x_block):
    """Dispatched volume per block: the sum of its accepted levels'
    volumes."""
    accepted = accepted_block_levels(prices, block_levels, blocks)
    return np.where(accepted, np.asarray(x_block, dtype=np.float64),
                    0.0).sum(axis=0)


def accepted_block_levels(prices, block_levels, blocks):
    """Boolean (P, B) mask of accepted block order levels: level i of
    block b is accepted when block_levels[i, b] <= mean of prices over
    the block's hours."""
    prices = np.asarray(prices, dtype=np.float64)
    block_levels = np.asarray(block_levels, dtype=np.float64)
    mask = np.zeros(block_levels.shape, dtype=bool)
    for b, (start, stop) in enumerate(blocks):
        mask[:, b] = block_levels[:, b] <= prices[start:stop].mean()
    return mask
