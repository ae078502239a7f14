"""Maintenance scheduling: place each plant's consecutive maintenance
window within the trading day while bidding hourly orders.

The program is the day-ahead program without block orders or water value,
built from the same market block (order-book columns, bid rows, clearing,
production and energy-balance rows, market costs), plus one binary
s_{h,t} = 1 per maintained plant and hour, appended after the order book.
What is this module's own: the duration and consecutiveness rows on s, and
the coupling rows Q + Qmax*s <= Qmax that block discharge during
maintenance (keeping variable bounds independent of the first stage).
"""

from dataclasses import dataclass

import numpy as np

from ..hydro import (CsvTable, rescale, Resolution, default_initial_volumes,
                     write_csv)
from ..core import FirstStage, TwoStageProgram
from .common import PenaltyConfig, add_mass_balance
from .dayahead import (DayAheadLayout, bid_rows, extract_schedule,
                       extract_strategy, market_rows, market_second_stage,
                       strategy_to_x, total_capacity)


@dataclass(frozen=True)
class MaintenanceLayout(DayAheadLayout):
    """The day-ahead layout with no blocks or water value and the binaries
    s(k, t) of the maintained plants after the order book."""

    maintained: tuple      # plant indices with positive duration

    def s(self, k, t):
        return super().n_first + k * self.horizon + t

    @property
    def n_first(self):
        return super().n_first + len(self.maintained) * self.horizon

    @property
    def binaries(self):
        return tuple(range(super().n_first, self.n_first))


@dataclass(frozen=True)
class MaintenanceSchedule:
    plant_ids: tuple
    windows: np.ndarray    # (K, T) of 0/1

    def __post_init__(self):
        w = np.asarray(self.windows)
        if not np.all((w == 0) | (w == 1)):
            raise ValueError("maintenance indicators must be 0/1")

    def validate(self, durations):
        for k, pid in enumerate(self.plant_ids):
            row = self.windows[k]
            if int(row.sum()) != int(durations[k]):
                raise ValueError(f"{pid}: {int(row.sum())} maintained hours, "
                                 f"needs {int(durations[k])}")
            on = np.flatnonzero(row)
            if len(on) and not np.array_equal(on, np.arange(on[0], on[-1] + 1)):
                raise ValueError(f"{pid}: maintenance hours are not consecutive")

    def to_csv(self, path):
        write_csv(path, ["plant_id", "period", "on"],
                  ([pid, t, int(self.windows[k, t])]
                   for k, pid in enumerate(self.plant_ids)
                   for t in range(self.windows.shape[1])),
                  units="on = plant down for maintenance that hour")

    @classmethod
    def from_csv(cls, path):
        table = CsvTable(path, ("plant_id", "period", "on"))
        on = {}

        def window(row):
            value = int(row["on"])
            if value not in (0, 1):
                raise ValueError(f"on must be 0 or 1, got {value}")
            key = (row["plant_id"], table.index(row, "period"))
            table.put(on, key, value, "(plant_id, period)")

        table.parse(window)
        plant_ids = tuple(dict.fromkeys(pid for pid, _ in on))
        T = max((t for _, t in on), default=-1) + 1
        windows = table.lookup(on, [(p, t) for p in plant_ids
                                    for t in range(T)], "(plant_id, period)")
        return cls(plant_ids, np.array(windows).reshape(len(plant_ids), T))


@dataclass(frozen=True, eq=False)
class MaintenanceModel:
    program: TwoStageProgram
    layout: MaintenanceLayout
    network: object
    scaled: object
    levels: object
    penalties: PenaltyConfig
    m0: np.ndarray
    durations: np.ndarray      # per maintained plant, in hours

    def strategy_from_x(self, x):
        return extract_strategy(self.layout, self.levels, (), x)

    def schedule_from_x(self, x):
        lay = self.layout
        x = np.asarray(x, dtype=np.float64)
        k = np.arange(len(lay.maintained))[:, None]
        windows = np.rint(x[lay.s(k, np.arange(lay.horizon))]).astype(np.int64)
        sched = MaintenanceSchedule(
            tuple(self.network.plant_ids[h] for h in lay.maintained), windows)
        sched.validate(self.durations)
        return sched

    def x_from_parts(self, strategy, schedule):
        lay = self.layout
        T = lay.horizon
        x = strategy_to_x(lay, strategy)
        expect = tuple(self.network.plant_ids[h] for h in lay.maintained)
        if tuple(schedule.plant_ids) != expect:
            raise ValueError(f"schedule plants {schedule.plant_ids} do not "
                             f"match maintained plants {expect}")
        # a schedule of no plants has no rows, so its file has no horizon
        if expect:
            if schedule.windows.shape != (len(expect), T):
                raise ValueError("schedule horizon does not match the model")
            k = np.arange(len(expect))[:, None]
            x[lay.s(k, np.arange(T))] = schedule.windows
        return x

    def schedule_from_y(self, yvec):
        return extract_schedule(self.layout, yvec)


def build_maintenance(network, levels, maintenance_durations=None,
                      penalties=None, m0=None):
    """Assemble the maintenance scheduling program (max sense, binary
    first stage).

    maintenance_durations: optional {plant_id: hours}; defaults to the
    plant data.  Plants with zero duration get no binaries.
    """
    if penalties is None:
        penalties = PenaltyConfig()
    T = levels.horizon
    H = len(network.plants)
    P = levels.count
    durations_all = np.array([p.maintenance_hours for p in network.plants],
                             dtype=np.int64)
    if maintenance_durations is not None:
        for pid, d in maintenance_durations.items():
            durations_all[network.index[pid]] = int(d)
    for h, d in enumerate(durations_all):
        if d > T:
            raise ValueError(
                f"{network.plant_ids[h]}: maintenance of {d} h does not fit "
                f"the {T} h horizon")
    maintained = tuple(int(h) for h in range(H) if durations_all[h] > 0)
    durations = durations_all[list(maintained)]

    scaled = rescale(network, Resolution(1))
    if m0 is None:
        m0 = default_initial_volumes(scaled)
    m0 = np.asarray(m0, dtype=np.float64)
    lay = MaintenanceLayout(T, P, 0, H, False, maintained)
    cap = 2.0 * total_capacity(network)

    n1 = lay.n_first
    rows = bid_rows(lay, (), cap)
    for k, D in enumerate(durations):
        rows.add({lay.s(k, t): 1.0 for t in range(T)}, {}, "=", float(D))
        # a start at t must still be running at t + D - 1
        for t in range(T):
            xc = {lay.s(k, t): 1.0}
            if t > 0:
                xc[lay.s(k, t - 1)] = -1.0
            end = t + int(D) - 1
            if end <= T - 1:
                xc[lay.s(k, end)] = xc.get(lay.s(k, end), 0.0) - 1.0
            rows.add(xc, {}, "<=", 0.0)
    A, _, senses_x, rhs_x = rows.materialize()

    ub = np.full(n1, cap)
    ub[list(lay.binaries)] = 1.0
    fs = FirstStage(c=np.zeros(n1), A=A, senses=senses_x, b=rhs_x,
                    lb=np.zeros(n1), ub=ub, binaries=lay.binaries)

    wl = lay.water
    rows = market_rows(lay, scaled, ())
    # no discharge while down: Q + Qmax*s <= Qmax
    for k, h in enumerate(lay.maintained):
        for t in range(T):
            rows.add({lay.s(k, t): scaled.qmax1[h]},
                     {wl.q(h, 0, t): 1.0}, "<=", scaled.qmax1[h])
            rows.add({lay.s(k, t): scaled.qmax2[h]},
                     {wl.q(h, 1, t): 1.0}, "<=", scaled.qmax2[h])
    mb = add_mass_balance(rows, wl, scaled, m0)
    program = TwoStageProgram(fs, *market_second_stage(
        lay, rows, mb, scaled, penalties, levels, ()), sense="max")
    return MaintenanceModel(program=program, layout=lay, network=network,
                            scaled=scaled, levels=levels, penalties=penalties,
                            m0=m0, durations=durations)
