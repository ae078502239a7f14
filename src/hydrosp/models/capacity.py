"""Capacity expansion: choose per-plant capacity increases against an
annuitized investment cost, then operate the expanded system over a long
horizon at reduced time resolution.

Expanding power capacity by dP scales discharge capacity proportionally
(dQ = Qmax/Pmax * dP), split 75/25 over the two turbine segments.  The
coupling lives in rows (Q - frac*(Qmax/Pmax)*dP <= frac*Qmax) so that
second-stage bounds stay independent of the first stage.
"""

from dataclasses import dataclass

import numpy as np

from ..hydro import (CsvTable, rescale, default_initial_volumes,
                     SEGMENT_SPLIT, write_csv)
from ..core import FirstStage, Recourse, TwoStageProgram
from .common import (RowSet, WaterLayout, add_inflows, add_mass_balance,
                     add_production_rows, scenario_prices, water_bounds,
                     water_readout)
from .dayahead import ProductionSchedule


def equivalent_cost(T_days, rate=0.05, unit_cost=0.79, payback_years=40):
    """Annuitized investment cost in MEur per MW for a T_days horizon.

    The full unit cost (MEur/MW) is paid back over payback_years in equal
    installments, one per T_days period, at the equivalent periodic
    interest rate r_E = (1+rate)^(T_days/365) - 1.
    """
    if T_days < 1:
        raise ValueError("horizon must be at least one day")
    r_e = (1.0 + rate) ** (T_days / 365.0) - 1.0
    n_payments = payback_years * 365.0 / T_days
    return unit_cost * r_e / (1.0 - (1.0 + r_e) ** (-n_payments))


@dataclass(frozen=True)
class CostParams:
    rate: float = 0.05
    unit_cost: float = 0.79        # MEur per MW of new capacity
    payback_years: float = 40.0
    total_cap_mw: float = 1000.0
    per_plant_cap_mw: float = 1000.0

    def horizon_cost_eur_per_mw(self, horizon_days):
        if not np.isfinite(self.unit_cost):
            return np.inf
        return 1e6 * equivalent_cost(horizon_days, self.rate, self.unit_cost,
                                     self.payback_years)


@dataclass(frozen=True)
class ExpansionPlan:
    plant_ids: tuple
    delta_p: np.ndarray     # MW
    delta_q: np.ndarray     # m3/s, derived

    def to_csv(self, path):
        write_csv(path, ["plant_id", "delta_p_mw", "delta_q_m3s"],
                  zip(self.plant_ids, self.delta_p, self.delta_q),
                  units="delta_p MW, delta_q m3/s")

    @classmethod
    def from_csv(cls, path):
        table = CsvTable(path, ("plant_id", "delta_p_mw", "delta_q_m3s"),
                         nonempty="plant")
        plan = {}
        table.parse(lambda row: table.put(
            plan, row["plant_id"], (float(row["delta_p_mw"]),
                                    float(row["delta_q_m3s"])), "plant"))
        dp, dq = zip(*plan.values())
        return cls(tuple(plan), np.array(dp), np.array(dq))


@dataclass(frozen=True)
class CapacityLayout:
    horizon: int
    n_plants: int

    @property
    def n_first(self):
        return self.n_plants

    def p(self, t):
        return t

    @property
    def water(self):
        return WaterLayout(self.n_plants, self.horizon, base=self.horizon)

    @property
    def n_second(self):
        return self.water.end


@dataclass(frozen=True, eq=False)
class CapacityModel:
    program: TwoStageProgram
    layout: CapacityLayout
    network: object
    scaled: object
    resolution: object
    horizon_days: int
    cost_params: CostParams
    m0: np.ndarray

    def plan_from_x(self, x):
        x = np.asarray(x, dtype=np.float64)
        ratio = np.array([p.max_discharge_m3s / p.capacity_mw
                          for p in self.network.plants])
        return ExpansionPlan(tuple(self.network.plant_ids), x.copy(),
                             ratio * x)

    def x_from_plan(self, plan):
        if tuple(plan.plant_ids) != tuple(self.network.plant_ids):
            raise ValueError("expansion plan plants do not match the river")
        return np.asarray(plan.delta_p, dtype=np.float64).copy()

    def schedule_from_y(self, yvec):
        lay = self.layout
        return ProductionSchedule(
            production=np.array([yvec[lay.p(t)] for t in range(lay.horizon)]),
            **water_readout(lay.water, yvec))


def build_capacity(network, resolution, horizon_days, cost_params=None,
                   m0=None):
    """Assemble the capacity expansion program (max sense)."""
    if horizon_days < 1:
        raise ValueError("horizon must be at least one day")
    if cost_params is None:
        cost_params = CostParams()
    hours = horizon_days * 24
    hpp = resolution.hours_per_period
    if hours % hpp:
        raise ValueError(f"{horizon_days} days is not a whole number of "
                         f"{hpp} h periods")
    T = hours // hpp
    H = len(network.plants)
    scaled = rescale(network, resolution)
    if m0 is None:
        m0 = default_initial_volumes(scaled)
    m0 = np.asarray(m0, dtype=np.float64)
    lay = CapacityLayout(T, H)

    cost = cost_params.horizon_cost_eur_per_mw(horizon_days)
    if np.isfinite(cost):
        c1 = np.full(H, -cost)
        ub1 = np.full(H, float(cost_params.per_plant_cap_mw))
    else:
        # infinitely expensive expansion: fix dP = 0
        c1 = np.zeros(H)
        ub1 = np.zeros(H)
    budget = RowSet(H, 0)
    budget.add({h: 1.0 for h in range(H)}, {}, "<=", cost_params.total_cap_mw)
    A1, _, senses1, b1 = budget.materialize()
    fs = FirstStage(c=c1, A=A1, senses=senses1, b=b1, lb=np.zeros(H), ub=ub1)

    ratio = np.array([p.max_discharge_m3s / p.capacity_mw
                      for p in network.plants])
    fr1, fr2 = SEGMENT_SPLIT, 1.0 - SEGMENT_SPLIT
    n2 = lay.n_second
    wl = lay.water
    rows = RowSet(H, n2)
    add_production_rows(rows, lay.p, wl, scaled)
    for h in range(H):
        for t in range(T):
            rows.add({h: -fr1 * ratio[h]}, {wl.q(h, 0, t): 1.0},
                     "<=", scaled.qmax1[h])
            rows.add({h: -fr2 * ratio[h]}, {wl.q(h, 1, t): 1.0},
                     "<=", scaled.qmax2[h])
    mb = add_mass_balance(rows, wl, scaled, m0)
    Tm, W, senses, h0 = rows.materialize()
    recourse = Recourse(W, senses,
                        *water_bounds(wl, scaled, n2, cap_discharge=False),
                        rows.start())

    def second_stage(sample):
        prices = scenario_prices(sample, T)
        q = np.zeros(n2)
        q[lay.p(np.arange(T))] = prices[:T]
        return q, Tm, add_inflows(h0, mb, sample)

    program = TwoStageProgram(fs, recourse, second_stage, sense="max")
    return CapacityModel(program=program, layout=lay, network=network,
                         scaled=scaled, resolution=resolution,
                         horizon_days=horizon_days, cost_params=cost_params,
                         m0=m0)
