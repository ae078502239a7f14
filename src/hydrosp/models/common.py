"""Shared pieces for the hydropower model builders: imbalance penalties,
second-stage variable layouts, the production and flow-conservation rows,
the water-block readout, and physics residual checks."""

from dataclasses import dataclass

import numpy as np

from ..lp import SparseMatrix


@dataclass(frozen=True)
class PenaltyConfig:
    """Imbalance pricing: surplus sold at alpha*rho, deficit bought at
    beta*rho; stiffer during peak hours."""

    peak_start: int = 8
    peak_stop: int = 20          # half-open hour range [start, stop)
    alpha_peak: float = 0.85
    beta_peak: float = 1.15
    alpha_off: float = 0.90
    beta_off: float = 1.10

    def __post_init__(self):
        for a, b in ((self.alpha_peak, self.beta_peak),
                     (self.alpha_off, self.beta_off)):
            if not a < 1.0 < b:
                raise ValueError("penalties need alpha < 1 < beta")

    def is_peak(self, t, hours_per_period=1):
        hour = (t * hours_per_period) % 24
        return self.peak_start <= hour < self.peak_stop

    def alpha(self, t, hours_per_period=1):
        return self.alpha_peak if self.is_peak(t, hours_per_period) else self.alpha_off

    def beta(self, t, hours_per_period=1):
        return self.beta_peak if self.is_peak(t, hours_per_period) else self.beta_off


class RowSet:
    """Accumulates sparse rows over (first-stage, second-stage) columns and
    materializes them as the column-wise T and W blocks, senses and h."""

    def __init__(self, n_first, n_second):
        self.n_first = n_first
        self.n_second = n_second
        self.rows = []

    def add(self, xcoefs, ycoefs, sense, rhs):
        self.rows.append((dict(xcoefs), dict(ycoefs), sense, float(rhs)))

    def materialize(self):
        x = ([], [], [])
        y = ([], [], [])
        for r, (xc, yc, _, _) in enumerate(self.rows):
            for (rows, cols, vals), coefs in ((x, xc), (y, yc)):
                rows.extend([r] * len(coefs))
                cols.extend(coefs)
                vals.extend(coefs.values())
        m = len(self.rows)
        return (SparseMatrix.from_triplets((m, self.n_first), *x),
                SparseMatrix.from_triplets((m, self.n_second), *y),
                tuple(row[2] for row in self.rows),
                np.array([row[3] for row in self.rows]))


@dataclass(frozen=True)
class WaterLayout:
    """Column layout of the water-system block inside a second-stage
    vector: discharges Q (plant, segment, period), spills S, volumes M."""

    n_plants: int
    horizon: int
    base: int

    def q(self, h, s, t):
        return self.base + (h * 2 + s) * self.horizon + t

    def s(self, h, t):
        return self.base + 2 * self.n_plants * self.horizon + h * self.horizon + t

    def m(self, h, t):
        return self.base + 3 * self.n_plants * self.horizon + h * self.horizon + t

    @property
    def nvars(self):
        return 4 * self.n_plants * self.horizon

    @property
    def end(self):
        return self.base + self.nvars


def add_production_rows(rows, p, wl, scaled):
    """Emit p_t = sum_h mu1*Q1 + mu2*Q2 for every period; p(t) is the
    production column of period t."""
    for t in range(wl.horizon):
        yc = {p(t): 1.0}
        for h in range(wl.n_plants):
            yc[wl.q(h, 0, t)] = -scaled.mu1[h]
            yc[wl.q(h, 1, t)] = -scaled.mu2[h]
        rows.add({}, yc, "=", 0.0)


def add_mass_balance(rows, wl, scaled, m0, inflow_at, m0_columns=None):
    """Emit flow-conservation rows for every (plant, period).

    m0 enters the right-hand side unless m0_columns maps plants to
    first-stage columns (the week-ahead problem decides M0).
    Pre-horizon upstream releases count as zero.
    """
    net = scaled.network
    H, T = wl.n_plants, wl.horizon
    for h in range(H):
        for t in range(T):
            yc = {wl.m(h, t): 1.0,
                  wl.q(h, 0, t): 1.0, wl.q(h, 1, t): 1.0,
                  wl.s(h, t): 1.0}
            if t > 0:
                yc[wl.m(h, t - 1)] = -1.0
            for i in net.upstream_discharge[h]:
                ti = t - scaled.tau_q[i]
                if ti >= 0:
                    for s in (0, 1):
                        yc[wl.q(i, s, ti)] = yc.get(wl.q(i, s, ti), 0.0) - 1.0
            for i in net.upstream_spill[h]:
                ti = t - scaled.tau_s[i]
                if ti >= 0:
                    yc[wl.s(i, ti)] = yc.get(wl.s(i, ti), 0.0) - 1.0
            rhs = float(inflow_at(t)[h])
            xc = {}
            if t == 0:
                if m0_columns is None:
                    rhs += float(m0[h])
                else:
                    xc[m0_columns[h]] = -1.0
            rows.add(xc, yc, "=", rhs)


def water_bounds(wl, scaled, lb, ub, cap_discharge=True):
    """Default variable bounds for the water block (x-independent)."""
    H, T = wl.n_plants, wl.horizon
    for h in range(H):
        for t in range(T):
            if cap_discharge:
                ub[wl.q(h, 0, t)] = scaled.qmax1[h]
                ub[wl.q(h, 1, t)] = scaled.qmax2[h]
            ub[wl.m(h, t)] = scaled.max_volume[h]
    # lb already zero, spill unbounded above


def water_readout(wl, y):
    """Discharge (H, 2, T), spill (H, T) and volume (H, T) of a second-stage
    vector, as ProductionSchedule keyword arguments."""
    H, T = wl.n_plants, wl.horizon
    return dict(
        discharge=np.array([[[y[wl.q(h, s, t)] for t in range(T)]
                             for s in (0, 1)] for h in range(H)]),
        spill=np.array([[y[wl.s(h, t)] for t in range(T)] for h in range(H)]),
        volume=np.array([[y[wl.m(h, t)] for t in range(T)] for h in range(H)]),
    )


def mass_balance_residuals(scaled, wl, y, m0, inflow_at):
    """Residual of every flow-conservation row, in scaled volume units."""
    net = scaled.network
    H, T = wl.n_plants, wl.horizon
    res = np.zeros((H, T))
    for h in range(H):
        for t in range(T):
            prev = y[wl.m(h, t - 1)] if t > 0 else m0[h]
            acc = y[wl.m(h, t)] - prev \
                + y[wl.q(h, 0, t)] + y[wl.q(h, 1, t)] + y[wl.s(h, t)]
            for i in net.upstream_discharge[h]:
                ti = t - scaled.tau_q[i]
                if ti >= 0:
                    acc -= y[wl.q(i, 0, ti)] + y[wl.q(i, 1, ti)]
            for i in net.upstream_spill[h]:
                ti = t - scaled.tau_s[i]
                if ti >= 0:
                    acc -= y[wl.s(i, ti)]
            res[h, t] = acc - float(inflow_at(t)[h])
    return res
