"""The benchmark's workloads: each builds seeded instances through
hydrosp's public API, makes one timed solve call on an instance, and counts
the operations that call performed.

Why each workload exists, and which layer it loads, is in LAYERS.md.
"""

from dataclasses import dataclass

import numpy as np

from hydrosp import core, lshaped
from hydrosp.core import FiniteProgram
from hydrosp.hydro import default_river, RiverNetwork, Resolution
from hydrosp.models import (build_day_ahead, build_capacity,
                            build_maintenance, CostParams, WaterValuePool,
                            total_capacity)
from hydrosp.scenarios import (SamplerConfig, DEFAULT_PRICE_PROFILE,
                               default_blocks, price_levels,
                               sample_capacity_horizon, sample_day_ahead_set)

import oracle


SECTION = ("krangfors", "selsfors", "kvistforsen")
BID_SHARE = 0.3                   # of installed capacity, every hour
TOTAL_CAP_MW = 1e5                # loose enough that every plant expands


@dataclass(frozen=True)
class Instance:
    fp: FiniteProgram
    x: np.ndarray = None          # fixed first-stage decision, if any


def instance_seed(seed, k):
    """Sampler seed of the k-th instance of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass(frozen=True)
class DayAheadEval:
    """Evaluate a fixed bid on the real river with core.scenario_values."""

    scenarios: int = 6
    plants: tuple = None          # None: all 15 plants

    name = "dayahead-eval"
    root = "core.scenario_values"
    traced_instances = 1

    def build(self, seed):
        net = _river(self.plants)
        samples = sample_day_ahead_set(SamplerConfig(seed=seed), net,
                                       self.scenarios)
        levels = price_levels(samples, 5)
        model = build_day_ahead(net, levels,
                                blocks=default_blocks(levels.horizon, 4),
                                water_value=WaterValuePool.zero(net.plant_ids))
        lay = model.layout
        x = np.zeros(lay.n_first)
        for t in range(lay.horizon):
            x[lay.xi(t)] = BID_SHARE * total_capacity(net)
        return Instance(FiniteProgram(model.program, samples), x)

    def call(self, inst):
        return core.scenario_values(inst.fp, inst.x)

    def operations(self, inst):
        return inst.fp.n_scenarios

    def ok(self, result):
        return True

    def objectives(self, result):
        return [float(v) for v in result]

    def references(self, inst):
        return oracle.scenario_references(inst.fp, inst.x)

    def counts(self, result):
        return {}


@dataclass(frozen=True)
class CapacityLShaped:
    """Solve the capacity model on the real river with the default
    L-shaped configuration."""

    scenarios: int = 12
    days: int = 1
    plants: tuple = None

    name = "capacity-lshaped"
    root = "lshaped.solve"
    traced_instances = 4

    def build(self, seed):
        net = _river(self.plants)
        res = Resolution(24)
        sc = SamplerConfig(seed=seed)
        samples = [sample_capacity_horizon(sc, net, self.days, res, i)
                   for i in range(self.scenarios)]
        model = build_capacity(net, res, self.days,
                               CostParams(total_cap_mw=TOTAL_CAP_MW))
        return Instance(FiniteProgram(model.program, samples))

    def call(self, inst):
        return lshaped.solve(inst.fp)

    def operations(self, inst):
        return 1

    def ok(self, result):
        return result.converged

    def objectives(self, result):
        return [float(result.objective)]

    def references(self, inst):
        return [oracle.de_reference(inst.fp)]

    def counts(self, result):
        return {
            "lshaped.iterations": result.iterations,
            "lshaped.cuts_added": sum(r.cuts_added for r in result.log),
            "lshaped.cuts_removed": sum(r.cuts_removed for r in result.log),
            "lshaped.pool_final": len(result.cuts),
        }


@dataclass(frozen=True)
class MaintenanceDE:
    """Solve the maintenance model's deterministic equivalent by branch and
    bound on the lower section of the river."""

    scenarios: int = 3
    hours: tuple = (6, 9)         # slice of the daily price profile

    name = "maintenance-de"
    root = "core.solve_deterministic"
    traced_instances = 16

    def build(self, seed):
        net = _river(SECTION)
        lo, hi = self.hours
        sc = SamplerConfig(seed=seed, price_profile=DEFAULT_PRICE_PROFILE[lo:hi])
        samples = sample_day_ahead_set(sc, net, self.scenarios)
        model = build_maintenance(net, price_levels(samples, 5))
        return Instance(FiniteProgram(model.program, samples))

    def call(self, inst):
        return core.solve_deterministic(inst.fp)

    def operations(self, inst):
        return 1

    def ok(self, result):
        return result.solution.ok

    def objectives(self, result):
        return [float(result.objective)]

    def references(self, inst):
        return [oracle.de_reference(inst.fp)]

    def counts(self, result):
        return {}


def _river(plants):
    net = default_river()
    if plants is None:
        return net
    return RiverNetwork([p for p in net.plants if p.plant_id in plants])


WORKLOADS = {w.name: w for w in (DayAheadEval(), CapacityLShaped(),
                                 MaintenanceDE())}
