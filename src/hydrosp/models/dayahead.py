"""Day-ahead bidding model: choose hourly and block order curves before
prices clear; dispatch, production, and imbalances follow per scenario.

Maximizes expected market revenue plus terminal water value, minus
imbalance penalties.  First stage: price-independent volumes x^I_t,
price-dependent volumes x^D_{i,t} (monotone in the level index), block
volumes x^B_{i,b}.  Second stage: cleared volumes, plant dispatch, river
flows, imbalance purchases/sales, and the water value W.

The market block (the order-book columns and rows, the clearing, production
and energy-balance rows, the market costs, and the strategy and schedule
readouts) is shared with the maintenance model, which is this program
without blocks or water value plus its maintenance binaries.
"""

from dataclasses import dataclass

import numpy as np

from ..hydro import (CsvTable, rescale, Resolution, default_initial_volumes,
                     write_csv)
from ..lp import SparseMatrix
from ..scenarios import block_price_levels, default_blocks
from ..core import FirstStage, Recourse, TwoStageProgram
from .common import (PenaltyConfig, RowSet, WaterLayout, add_inflows,
                     add_mass_balance, add_production_rows, scenario_prices,
                     water_bounds, water_readout)
from .dispatch import clearing_weights


@dataclass(frozen=True)
class DayAheadLayout:
    horizon: int          # T hours
    n_levels: int         # P price levels
    n_blocks: int         # |B|
    n_plants: int         # H
    water_value: bool     # a water-value column W after the water block

    # first-stage columns
    def xi(self, t):
        return t

    def xd(self, i, t):
        return self.horizon + i * self.horizon + t

    def xb(self, i, b):
        return self.horizon * (1 + self.n_levels) + i * self.n_blocks + b

    @property
    def n_first(self):
        return self.horizon * (1 + self.n_levels) + self.n_levels * self.n_blocks

    # second-stage columns
    def y(self, t):
        return t

    def yb(self, b):
        return self.horizon + b

    def yplus(self, t):
        return self.horizon + self.n_blocks + t

    def yminus(self, t):
        return 2 * self.horizon + self.n_blocks + t

    def p(self, t):
        return 3 * self.horizon + self.n_blocks + t

    @property
    def water(self):
        return WaterLayout(self.n_plants, self.horizon,
                           base=4 * self.horizon + self.n_blocks)

    @property
    def w(self):
        return self.water.end

    @property
    def n_second(self):
        return self.water.end + int(self.water_value)


@dataclass(frozen=True)
class DayAheadStrategy:
    """A complete set of day-ahead orders plus the levels they refer to."""

    xi: np.ndarray        # (T,)
    xd: np.ndarray        # (P, T)
    xb: np.ndarray        # (P, B)
    level_values: np.ndarray   # (P, T) prices of the hourly levels
    blocks: tuple              # ((start, stop), ...)

    @property
    def horizon(self):
        return len(self.xi)

    def to_csv(self, path):
        T, P = self.horizon, self.xd.shape[0]
        rows = [["independent", t, "", "", self.xi[t]] for t in range(T)]
        rows += [["dependent", t, i, self.level_values[i, t], self.xd[i, t]]
                 for i in range(P) for t in range(T)]
        rows += [[f"block_{start}_{stop}", b, i, "", self.xb[i, b]]
                 for i in range(self.xb.shape[0])
                 for b, (start, stop) in enumerate(self.blocks)]
        write_csv(path, ["order_type", "period", "level", "price", "volume"],
                  rows, units="volume MWh/h, price Eur/MWh")

    @classmethod
    def from_csv(cls, path):
        table = CsvTable(path, ("order_type", "period", "level", "price",
                                "volume"), nonempty="order")
        xi, xd, xb, lv, blocks = {}, {}, {}, {}, {}

        def order(row):
            kind, period = row["order_type"], table.index(row, "period")
            volume = float(row["volume"])
            if kind == "independent":
                table.put(xi, period, volume, "independent period")
            elif kind == "dependent":
                key = (table.index(row, "level"), period)
                table.put(xd, key, volume, "dependent (level, period)")
                lv[key] = float(row["price"])
            elif kind.startswith("block_"):
                _, start, stop = kind.split("_")
                window = (int(start), int(stop))
                if window[0] < 0:
                    raise ValueError(f"block window {window} starts before "
                                     "period 0")
                if blocks.setdefault(period, window) != window:
                    raise ValueError(f"block {period} has the window "
                                     f"{window}, an earlier row gave "
                                     f"{blocks[period]}")
                table.put(xb, (table.index(row, "level"), period), volume,
                          "block (level, block)")
            else:
                raise ValueError(f"unknown order type {kind!r}")

        table.parse(order)
        T = len(xi)
        P = max((i for i, _ in xd), default=-1) + 1
        for line, row in table.rows:
            if (row["order_type"].startswith("block_")
                    and int(row["level"]) >= P):
                raise table.error(line, f"block level {row['level']} has no "
                                        "dependent level: the dependent rows "
                                        f"give the levels below {P}")
        B = max(blocks, default=-1) + 1
        hourly = [(i, t) for i in range(P) for t in range(T)]
        return cls(
            xi=np.array(table.lookup(xi, range(T), "independent period")),
            xd=np.array(table.lookup(xd, hourly, "dependent (level, period)")
                        ).reshape(P, T),
            xb=np.array(table.lookup(
                xb, [(i, b) for i in range(P) for b in range(B)],
                "block (level, block)")).reshape(P, B),
            level_values=np.array(table.lookup(lv, hourly, "dependent")
                                  ).reshape(P, T),
            blocks=tuple(table.lookup(blocks, range(B), "block")),
        )


@dataclass(frozen=True)
class ProductionSchedule:
    """Second-stage witness for one scenario."""

    y: np.ndarray = None          # (T,) hourly dispatched volume
    yb: np.ndarray = None         # (B,) block dispatched volume
    yplus: np.ndarray = None      # (T,) deficit bought
    yminus: np.ndarray = None     # (T,) surplus sold
    production: np.ndarray = None # (T,)
    discharge: np.ndarray = None  # (H, 2, T)
    spill: np.ndarray = None      # (H, T)
    volume: np.ndarray = None     # (H, T)
    water_value: float = None     # W, when the model values water


def extract_schedule(layout, yvec):
    yvec = np.asarray(yvec)
    t, b = np.arange(layout.horizon), np.arange(layout.n_blocks)
    return ProductionSchedule(
        y=yvec[layout.y(t)], yb=yvec[layout.yb(b)],
        yplus=yvec[layout.yplus(t)], yminus=yvec[layout.yminus(t)],
        production=yvec[layout.p(t)],
        water_value=yvec[layout.w] if layout.water_value else None,
        **water_readout(layout.water, yvec),
    )


def extract_strategy(layout, levels, blocks, x):
    """The order book of a first-stage vector."""
    t, i = np.arange(layout.horizon), np.arange(layout.n_levels)[:, None]
    x = np.asarray(x, dtype=np.float64)
    return DayAheadStrategy(
        xi=x[layout.xi(t)], xd=x[layout.xd(i, t)],
        xb=x[layout.xb(i, np.arange(layout.n_blocks))],
        level_values=levels.values.copy(),
        blocks=tuple(blocks),
    )


def strategy_to_x(layout, strategy):
    """A first-stage vector holding the strategy's orders; any columns past
    the order book are zero."""
    T, P, B = layout.horizon, layout.n_levels, layout.n_blocks
    if strategy.xi.shape != (T,) or strategy.xd.shape != (P, T):
        raise ValueError(
            f"strategy dimensions {strategy.xd.shape} do not match the "
            f"model's {P} levels x {T} hours")
    if strategy.xb.shape != (P, B):
        raise ValueError(
            f"strategy has {strategy.xb.shape[1]} blocks, model has {B}")
    x = np.zeros(layout.n_first)
    t, i = np.arange(T), np.arange(P)[:, None]
    x[layout.xi(t)] = strategy.xi
    x[layout.xd(i, t)] = strategy.xd
    x[layout.xb(i, np.arange(B))] = strategy.xb
    return x


@dataclass(frozen=True, eq=False)
class DayAheadModel:
    program: TwoStageProgram
    layout: DayAheadLayout
    network: object
    scaled: object
    levels: object               # PriceLevels
    blocks: tuple
    block_levels: np.ndarray     # (P, B)
    penalties: PenaltyConfig
    m0: np.ndarray
    water_value: object          # WaterValuePool

    def strategy_from_x(self, x):
        return extract_strategy(self.layout, self.levels, self.blocks, x)

    def x_from_strategy(self, strategy):
        return strategy_to_x(self.layout, strategy)

    def schedule_from_y(self, yvec):
        return extract_schedule(self.layout, yvec)


def total_capacity(network):
    return float(sum(p.capacity_mw for p in network.plants))


def build_day_ahead(network, levels, blocks=None, water_value=None,
                    penalties=None, m0=None):
    """Assemble the day-ahead two-stage program (max sense).

    levels: PriceLevels over the trading horizon; water_value: a
    WaterValuePool (WaterValuePool.zero(...) for a model that assigns no
    value to stored water).
    """
    if water_value is None:
        raise ValueError(
            "day-ahead model needs a water-value pool; pass "
            "WaterValuePool.zero(plant_ids) to pin the water value to zero")
    if tuple(water_value.plant_ids) != tuple(network.plant_ids):
        raise ValueError("water-value pool plants do not match the river")
    if penalties is None:
        penalties = PenaltyConfig()
    T = levels.horizon
    if blocks is None:
        blocks = default_blocks(T)
    blocks = tuple((int(a), int(b)) for a, b in blocks)
    scaled = rescale(network, Resolution(1))
    if m0 is None:
        m0 = default_initial_volumes(scaled)
    m0 = np.asarray(m0, dtype=np.float64)

    H = len(network.plants)
    P = levels.count
    B = len(blocks)
    lay = DayAheadLayout(T, P, B, H, True)
    block_levels = block_price_levels(levels, blocks)
    cap = 2.0 * total_capacity(network)

    n1 = lay.n_first
    A, _, senses_x, rhs_x = bid_rows(lay, blocks, cap).materialize()
    fs = FirstStage(c=np.zeros(n1), A=A, senses=senses_x, b=rhs_x,
                    lb=np.zeros(n1), ub=np.full(n1, cap))

    wl = lay.water
    rows = market_rows(lay, scaled, blocks)
    mb = add_mass_balance(rows, wl, scaled, m0)
    for a, slopes in zip(water_value.intercept, water_value.slopes):
        yc = {lay.w: 1.0}
        for h in range(H):
            if slopes[h]:
                yc[wl.m(h, T - 1)] = -float(slopes[h])
        rows.add({}, yc, "<=", a)
    program = TwoStageProgram(fs, *market_second_stage(
        lay, rows, mb, scaled, penalties, levels, blocks), sense="max")
    return DayAheadModel(program=program, layout=lay, network=network,
                         scaled=scaled, levels=levels, blocks=blocks,
                         block_levels=block_levels, penalties=penalties,
                         m0=m0, water_value=water_value)


# --- the market block, shared with the maintenance model ------------------


def bid_rows(lay, blocks, cap):
    """Monotone bid curves and the 200 % hourly cap, as a RowSet over the
    lay.n_first columns (no second-stage columns)."""
    T, P = lay.horizon, lay.n_levels
    rows = RowSet(lay.n_first, 0)
    for t in range(T):
        for i in range(P - 1):
            rows.add({lay.xd(i, t): 1.0, lay.xd(i + 1, t): -1.0}, {},
                     "<=", 0.0)
    for t in range(T):
        xc = {lay.xi(t): 1.0, lay.xd(P - 1, t): 1.0}
        for b, (start, stop) in enumerate(blocks):
            if start <= t < stop:
                for i in range(P):
                    xc[lay.xb(i, b)] = 1.0
        rows.add(xc, {}, "<=", cap)
    return rows


def market_rows(lay, scaled, blocks):
    """A RowSet holding the clearing, production and energy-balance rows;
    the caller appends its own rows after them.  The clearing rows lack
    their price-dependent entries, which ``market_second_stage`` adds:
    hour t's is row t and block b's row T + b.

    In the start basis the cleared volumes y(t) and yb(b) are basic on
    their clearing rows, p(t) on its production row and yplus(t) on hour
    t's energy balance: the whole commitment is bought, a non-negative
    value since every order volume is."""
    T = lay.horizon
    rows = RowSet(lay.n_first, lay.n_second)
    # cleared hourly volume = independent + interpolated dependent
    for t in range(T):
        rows.add({lay.xi(t): -1.0}, {lay.y(t): 1.0}, "=", 0.0,
                 basic=lay.y(t))
    # cleared block volume = sum of accepted levels
    for b in range(lay.n_blocks):
        rows.add({}, {lay.yb(b): 1.0}, "=", 0.0, basic=lay.yb(b))
    add_production_rows(rows, lay.p, lay.water, scaled)
    # commitment - production = bought - sold
    for t in range(T):
        yc = {lay.y(t): 1.0, lay.p(t): -1.0,
              lay.yplus(t): -1.0, lay.yminus(t): 1.0}
        for b, (start, stop) in enumerate(blocks):
            if start <= t < stop:
                yc[lay.yb(b)] = 1.0
        rows.add({}, yc, "=", 0.0, basic=lay.yplus(t))
    return rows


def market_second_stage(lay, rows, mb, scaled, penalties, levels, blocks):
    """The market models' ``(recourse, second_stage)``: the Recourse of
    ``rows`` (market rows first), its start basis and the water bounds,
    made once, and
    ``second_stage(sample)``, a scenario's ``(q, T, h)``: its market
    costs, its T and its inflows in the mass-balance rows ``mb``.  Its T
    is the template's T, which holds every entry that does not depend on
    the prices, plus -w at xd(i, t) in clearing row t for the
    ``clearing_weights`` w and -1 at xb(i, b) in block row T + b for each
    accepted block level.  A water-value column W is free and costs 1."""
    T = lay.horizon
    t = np.arange(T)
    alpha, beta = np.array([(penalties.alpha(k), penalties.beta(k))
                            for k in range(T)]).T
    block_levels = block_price_levels(levels, blocks)
    width = np.array([stop - start for start, stop in blocks])
    T0, W, senses, h0 = rows.materialize()
    r0, c0, v0 = T0.triplets()
    lb, ub = water_bounds(lay.water, scaled, lay.n_second)
    if lay.water_value:
        lb[lay.w] = -np.inf

    def second_stage(sample):
        prices = scenario_prices(sample, T)
        rho = prices[:T]
        # block means, bit for bit those of accepted_block_levels
        mean = np.array([prices[start:stop].sum()
                         for start, stop in blocks]) / width
        q = np.zeros(lay.n_second)
        q[lay.y(t)] = rho
        q[lay.yminus(t)] = alpha * rho
        q[lay.yplus(t)] = -beta * rho
        q[lay.yb(np.arange(len(blocks)))] = width * mean
        if lay.water_value:
            q[lay.w] = 1.0
        w = clearing_weights(rho, levels.values)
        i, tw = np.nonzero(w)
        k, b = np.nonzero(block_levels <= mean)
        Tm = SparseMatrix.from_triplets(
            T0.shape, np.concatenate([r0, tw, T + b]),
            np.concatenate([c0, lay.xd(i, tw), lay.xb(k, b)]),
            np.concatenate([v0, -w[i, tw], np.full(b.size, -1.0)]))
        return q, Tm, add_inflows(h0, mb, sample)
    return Recourse(W, senses, lb, ub, rows.start()), second_stage
