"""Shared miniature rivers, scenario sets, and two-stage programs.

Everything here is sized so a full solve takes well under a second:
one to three plants, horizons of a handful of periods, and a few
scenarios.  The builders are deterministic given their seed.
"""

import numpy as np

from hydrosp.core import (FirstStage, SecondStage, TwoStageProgram,
                          FiniteProgram)
from hydrosp.hydro import PlantData, RiverNetwork, Resolution
from hydrosp.scenarios import (PriceCurve, InflowVector, ScenarioSample,
                               PriceLevels, price_levels)
from hydrosp.models import (WaterValuePool, build_day_ahead,
                            build_maintenance, build_capacity, CostParams)


# ---------------------------------------------------------------- rivers

def one_plant(maintenance_hours=0):
    return RiverNetwork([
        PlantData("solo", "Solo", 10.0, 20.0, 100.0, None, 0.0, 0.0,
                  maintenance_hours),
    ])


def two_plant(maintenance_hours=(0, 0)):
    return RiverNetwork([
        PlantData("up", "Upper", 10.0, 20.0, 100.0, "dn", 60.0, 60.0,
                  maintenance_hours[0]),
        PlantData("dn", "Lower", 8.0, 16.0, 50.0, None, 0.0, 0.0,
                  maintenance_hours[1]),
    ])


def three_plant():
    return RiverNetwork([
        PlantData("alpha", "Alpha", 10.0, 20.0, 100.0, "beta", 60.0, 90.0, 2),
        PlantData("beta", "Beta", 8.0, 16.0, 50.0, "gamma", 30.0, 30.0, 1),
        PlantData("gamma", "Gamma", 12.0, 25.0, 80.0, None, 0.0, 0.0, 2),
    ])


def random_chain(rng, n_plants, maintenance=None):
    """Random serial river of 1..n plants with hourly-scale flow times."""
    plants = []
    for i in range(n_plants):
        down = f"p{i + 1}" if i + 1 < n_plants else None
        plants.append(PlantData(
            f"p{i}", f"Plant {i}",
            capacity_mw=float(rng.uniform(5.0, 25.0)),
            max_discharge_m3s=float(rng.uniform(10.0, 40.0)),
            max_volume_he=float(rng.uniform(20.0, 150.0)),
            downstream_id=down,
            flow_time_discharge_min=float(rng.choice([0.0, 30.0, 60.0])),
            flow_time_spill_min=float(rng.choice([0.0, 60.0, 120.0])),
            maintenance_hours=0 if maintenance is None else maintenance[i],
        ))
    return RiverNetwork(plants)


# ------------------------------------------------------------- scenarios

def scen(prices, inflows):
    return ScenarioSample(PriceCurve(np.asarray(prices, dtype=float)),
                          InflowVector(np.asarray(inflows, dtype=float)))


def levels_from_values(values):
    """PriceLevels from an explicit (count, T) array, nowhere degenerate."""
    values = np.asarray(values, dtype=float)
    return PriceLevels(values, np.zeros(values.shape[1], dtype=bool))


def flat_levels(T, center=20.0, spread=8.0, count=3):
    """Odd-count levels center + k*spread with a small hourly tilt."""
    ks = np.arange(count) - count // 2
    base = center + 0.5 * np.sin(np.arange(T))
    return levels_from_values(base[None, :] + spread * ks[:, None])


def hydro_scenarios(rng, network, T, n_scen, price_base=20.0,
                    price_noise=3.0, inflow_lo=0.05, inflow_hi=0.30):
    """Random price curves plus constant per-plant inflows."""
    qmax = np.array([p.max_discharge_m3s for p in network.plants])
    base = price_base + 2.0 * np.sin(2.0 * np.pi * np.arange(T) / max(T, 1))
    out = []
    for _ in range(n_scen):
        prices = np.clip(base + rng.normal(0.0, price_noise, T), 0.0, None)
        inflows = rng.uniform(inflow_lo, inflow_hi, len(qmax)) * qmax
        out.append(scen(prices, inflows))
    return out


# ------------------------------------------------------ hydro model toys

def day_ahead_toy(network=None, T=6, n_scen=3, count=3, seed=0,
                  blocks=None, pool=None, m0=None):
    """(model, FiniteProgram) for a small day-ahead instance.

    Levels are fitted to the scenario prices themselves, mirroring how the
    experiment runner prepares training data.
    """
    net = network if network is not None else two_plant()
    rng = np.random.default_rng(seed)
    scens = hydro_scenarios(rng, net, T, max(n_scen, 2))[:n_scen]
    fit = scens if len(scens) >= 2 else scens * 2
    lv = price_levels(fit, count)
    if blocks is None:
        blocks = [(0, T)]
    if pool is None:
        pool = WaterValuePool.zero(net.plant_ids)
    model = build_day_ahead(net, lv, blocks=blocks, water_value=pool, m0=m0)
    fp = FiniteProgram(model.program, scens)
    return model, fp


def maintenance_toy(network=None, T=8, durations=None, n_scen=2, count=3,
                    seed=1, m0=None):
    """(model, FiniteProgram) for a small maintenance instance."""
    net = network if network is not None else two_plant((2, 0))
    rng = np.random.default_rng(seed)
    scens = hydro_scenarios(rng, net, T, max(n_scen, 2))[:n_scen]
    fit = scens if len(scens) >= 2 else scens * 2
    lv = price_levels(fit, count)
    model = build_maintenance(net, lv, maintenance_durations=durations,
                              m0=m0)
    fp = FiniteProgram(model.program, scens)
    return model, fp


def capacity_toy(network=None, days=2, n_scen=2, seed=2, hours=24,
                 cost_params=None, rich=False):
    """(model, FiniteProgram) for a small capacity-expansion instance.

    rich=True drives prices and inflows high enough that extra capacity
    pays for itself, so the optimal expansion is non-trivial.
    """
    net = network if network is not None else two_plant()
    rng = np.random.default_rng(seed)
    res = Resolution(hours)
    T = days * 24 // hours
    qmax = np.array([p.max_discharge_m3s for p in net.plants])
    scens = []
    for _ in range(n_scen):
        if rich:
            prices = rng.uniform(2000.0, 4000.0, T)
            inflows = rng.uniform(0.8, 1.0, len(qmax)) * qmax
        else:
            prices = rng.uniform(15.0, 35.0, T)
            inflows = rng.uniform(0.1, 0.4, len(qmax)) * qmax
        scens.append(scen(prices, inflows))
    if cost_params is None:
        cost_params = CostParams()
    model = build_capacity(net, res, days, cost_params=cost_params)
    fp = FiniteProgram(model.program, scens)
    return model, fp


# ------------------------------------------------- abstract program toys

def simple_recourse(hs, probs=None, ub=10.0, sense="min"):
    """min x + E[y] with y >= h - x, x in [0, ub]; scenarios are floats.

    With sense="max" the costs are negated (max -x - E[y]), so the optimum
    is the mirror image of the min problem's.
    """
    sgn = 1.0 if sense == "min" else -1.0
    fs = FirstStage(c=np.array([sgn]), A=np.zeros((0, 1)), senses=(),
                    b=np.zeros(0), lb=np.zeros(1), ub=np.array([float(ub)]))

    def second(h):
        return SecondStage(q=np.array([sgn]), T=np.array([[1.0]]),
                           W=np.array([[1.0]]), senses=(">=",),
                           h=np.array([float(h)]), lb=np.zeros(1),
                           ub=np.array([np.inf]))

    prog = TwoStageProgram(fs, second, sense=sense)
    return FiniteProgram(prog, [float(h) for h in hs], probs)


def random_two_stage(rng, n1=2, n2=3, m2=3, n_scen=3, sense="min",
                     binaries=(), density=1.0):
    """Random two-stage program with guaranteed complete recourse.

    Each row gets a dedicated penalty slack, so every subproblem is
    feasible and bounded for any first-stage point in its box.  About
    ``density`` of the recourse matrix's structural entries are nonzero.
    """
    penalty = 50.0
    fs_c = rng.uniform(-2.0, 2.0, n1)
    ub1 = np.full(n1, 4.0)
    for j in binaries:
        ub1[j] = 1.0
    fs = FirstStage(c=fs_c, A=np.zeros((0, n1)), senses=(), b=np.zeros(0),
                    lb=np.zeros(n1), ub=ub1, binaries=binaries)

    # the recourse matrix and senses are shared (fixed recourse); costs,
    # technology matrix, and rhs vary by scenario
    senses = tuple(("<=", ">=", "=")[int(k)]
                   for k in rng.integers(0, 3, m2))
    nfull = n2 + 2 * m2
    W = np.zeros((m2, nfull))
    W[:, :n2] = rng.uniform(-1.0, 1.0, (m2, n2))
    if density < 1.0:
        W[:, :n2] *= rng.uniform(size=(m2, n2)) < density
    for i in range(m2):
        # two opposite-signed penalty slacks per row make any rhs reachable
        W[i, n2 + 2 * i] = -1.0
        W[i, n2 + 2 * i + 1] = 1.0
    lb2 = np.zeros(nfull)
    ub2 = np.concatenate([np.full(n2, 5.0), np.full(2 * m2, np.inf)])
    sgn = 1.0 if sense == "min" else -1.0

    scen_data = []
    for _ in range(n_scen):
        scen_data.append({
            "q": np.concatenate([rng.uniform(-1.5, 1.5, n2),
                                 np.full(2 * m2, sgn * penalty)]),
            "T": rng.uniform(-1.0, 1.0, (m2, n1)),
            "h": rng.uniform(-2.0, 4.0, m2),
        })

    def second(d):
        return SecondStage(q=d["q"], T=d["T"], W=W, senses=senses,
                           h=d["h"], lb=lb2, ub=ub2)

    prog = TwoStageProgram(fs, second, sense=sense)
    probs = rng.uniform(0.2, 1.0, n_scen)
    probs = probs / probs.sum()
    return FiniteProgram(prog, scen_data, probs)


def rhs_chain(rng, m2, n2, n_scen, spread, density=1.0):
    """A ``random_two_stage`` program whose scenarios share q and T and
    differ only in a normal perturbation of h (standard deviation
    ``spread``), so a chained solve needs a few pivots per scenario."""
    fp = random_two_stage(rng, n2=n2, m2=m2, n_scen=1, density=density)
    base = fp.scenarios[0]
    scens = [dict(base, h=base["h"] + rng.normal(0.0, spread, m2))
             for _ in range(n_scen)]
    return FiniteProgram(fp.program, scens)
