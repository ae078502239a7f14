"""Shared pieces for the hydropower model builders: imbalance penalties,
second-stage variable layouts, the production and flow-conservation rows
(emitted once per model) and a scenario's inflows in them, the water-block
readout, and physics residual checks."""

from dataclasses import dataclass

import numpy as np

from ..lp import SparseMatrix, _as_sense_codes


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
    materializes them as the column-wise T and W blocks, the read-only
    sense codes and h; ``start`` gives the recourse's start basis."""

    def __init__(self, n_first, n_second):
        self.n_first = n_first
        self.n_second = n_second
        self.rows = []
        self.basic = []

    def add(self, xcoefs, ycoefs, sense, rhs, basic=None):
        """Append a row; ``basic`` names the second-stage column basic on
        it in the start basis, None its own slack."""
        self.rows.append((dict(xcoefs), dict(ycoefs), sense, float(rhs)))
        self.basic.append(basic)

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
                _as_sense_codes([row[2] for row in self.rows], m),
                np.array([row[3] for row in self.rows]))

    def start(self):
        """The column basic on each row in the start basis: the one ``add``
        named, else the row's slack, column ``n_second + r`` of ``[W | I]``
        (see ``core.Recourse``)."""
        return np.array([self.n_second + r if j is None else j
                         for r, j in enumerate(self.basic)], dtype=np.int64)


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
    production column of period t, basic on its row in the start basis
    (0 while every discharge sits at its lower bound)."""
    for t in range(wl.horizon):
        yc = {p(t): 1.0}
        for h in range(wl.n_plants):
            yc[wl.q(h, 0, t)] = -scaled.mu1[h]
            yc[wl.q(h, 1, t)] = -scaled.mu2[h]
        rows.add({}, yc, "=", 0.0, basic=p(t))


def add_mass_balance(rows, wl, scaled, m0, m0_columns=None):
    """Emit flow-conservation rows for every (plant, period) without their
    inflows; returns the (T, H) row indices for ``add_inflows``.

    m0 enters the right-hand side and m0_columns, if given, maps plants to
    the first-stage columns that enter with -1 (the week-ahead problem
    decides M0 and passes m0 = 0).  Pre-horizon upstream releases count as
    zero.

    Spill s(h, t) is basic on row (h, t) in the start basis.  Spill has no
    upper bound, so with every discharge and volume at zero it carries the
    row's inflow, m0 and upstream spill, all non-negative; the river is
    acyclic and flow times are non-negative, so the spill columns form a
    triangular, nonsingular basis matrix.
    """
    net = scaled.network
    H, T = wl.n_plants, wl.horizon
    first = len(rows.rows)
    for h in range(H):
        for t in range(T):
            yc = {wl.m(h, t): 1.0,
                  wl.q(h, 0, t): 1.0, wl.q(h, 1, t): 1.0,
                  wl.s(h, t): 1.0}
            if t > 0:
                yc[wl.m(h, t - 1)] = -1.0
            for i in net.upstream[h]:
                ti = t - scaled.tau_q[i]
                if ti >= 0:
                    for s in (0, 1):
                        yc[wl.q(i, s, ti)] = yc.get(wl.q(i, s, ti), 0.0) - 1.0
                ti = t - scaled.tau_s[i]
                if ti >= 0:
                    yc[wl.s(i, ti)] = yc.get(wl.s(i, ti), 0.0) - 1.0
            xc = {}
            if t == 0 and m0_columns is not None:
                xc[m0_columns[h]] = -1.0
            rows.add(xc, yc, "=", m0[h] if t == 0 else 0.0,
                     basic=wl.s(h, t))
    return first + np.arange(H * T).reshape(H, T).T


def scenario_prices(sample, horizon):
    """The sample's price curve, which must cover the model's horizon."""
    prices = sample.price
    if len(prices) < horizon:
        raise ValueError(f"scenario has {len(prices)} price periods, "
                         f"model needs {horizon}")
    return prices


def add_inflows(h0, mb, sample):
    """A scenario's right-hand side: ``h0`` plus the sample's inflows in
    the mass-balance rows ``mb`` (T periods by H plants) that
    ``add_mass_balance`` returned.  The inflows are one row per period,
    at least T of them, or one row of H for every period."""
    T, H = mb.shape
    inflow = np.atleast_2d(sample.inflow)
    if inflow.shape[1] != H or (inflow.shape[0] < T and inflow.shape[0] != 1):
        raise ValueError(f"inflow has shape {sample.inflow.shape}, expected "
                         f"(>={T}, {H}) for {T} periods and {H} plants, or "
                         f"one ({H},) or (1, {H}) row for all periods")
    h = h0.copy()
    h[mb] += inflow[:T]
    return h


def water_bounds(wl, scaled, n, cap_discharge=True):
    """Bounds ``(lb, ub)`` of an n-column second stage: every column
    non-negative, and the water block's discharges (unless rows cap them)
    and volumes at capacity; spill is unbounded above."""
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    plant, t = np.arange(wl.n_plants)[:, None], np.arange(wl.horizon)
    if cap_discharge:
        ub[wl.q(plant, 0, t)] = scaled.qmax1[:, None]
        ub[wl.q(plant, 1, t)] = scaled.qmax2[:, None]
    ub[wl.m(plant, t)] = scaled.max_volume[:, None]
    return lb, ub


def water_readout(wl, y):
    """Discharge (H, 2, T), spill (H, T) and volume (H, T) of a second-stage
    vector, as ProductionSchedule keyword arguments."""
    y = np.asarray(y)
    plant, t = np.arange(wl.n_plants)[:, None], np.arange(wl.horizon)
    return dict(discharge=y[wl.q(plant[:, None], np.arange(2)[:, None], t)],
                spill=y[wl.s(plant, t)], volume=y[wl.m(plant, t)])


def mass_balance_residuals(scaled, wl, y, m0, inflow_at):
    """Residual of every flow-conservation row, in scaled volume units."""
    net, T = scaled.network, wl.horizon
    w = water_readout(wl, y)
    out, spill, vol = w["discharge"].sum(axis=1), w["spill"], w["volume"]
    res = vol - np.column_stack([m0, vol[:, :-1]]) + out + spill \
        - np.array([inflow_at(t) for t in range(T)]).T
    for h in range(wl.n_plants):
        for i in net.upstream[h]:
            res[h, scaled.tau_q[i]:] -= out[i, :max(T - scaled.tau_q[i], 0)]
            res[h, scaled.tau_s[i]:] -= spill[i, :max(T - scaled.tau_s[i], 0)]
    return res
