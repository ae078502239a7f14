"""Every model builds its recourse once and a scenario fills in only its
q, h and price-dependent T entries.  The stages, and the deterministic
equivalents built from them, must equal the per-scenario builders of
``_reference.py`` bit for bit, on the toys and on the 15-plant river."""

from dataclasses import replace

import numpy as np
import pytest

from hydrosp.core import (FiniteProgram, build_deterministic_equivalent,
                          scenario_stages)
from hydrosp.hydro import Resolution, default_river
from hydrosp.models import (CostParams, WaterValuePool, build_capacity,
                            build_day_ahead, build_maintenance,
                            build_week_ahead)
from hydrosp.scenarios import (SamplerConfig, default_blocks, price_levels,
                               sample_capacity_horizon, sample_day_ahead_set)
from _reference import (capacity_stage, day_ahead_stage, maintenance_stage,
                        week_ahead_stage)
from _toys import (capacity_toy, day_ahead_toy, flat_levels,
                   hydro_scenarios, levels_from_values, maintenance_toy, scen,
                   three_plant)


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def assert_same_stage(got, want):
    for name in ("q", "h", "senses", "lb", "ub"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for name in ("T", "W"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape, name
        for part in ("start", "index", "value"):
            assert _bits(getattr(g, part)) == _bits(getattr(w, part)), \
                (name, part)


def _with_reference(fp, stage):
    """``fp`` with its second stage built by the reference ``stage``: the
    recourse of its first scenario's stage, and each scenario's q, T and
    h."""
    def second(s):
        st = stage(s)
        return st.q, st.T, st.h

    return FiniteProgram(replace(fp.program,
                                 recourse=stage(fp.scenarios[0]).recourse,
                                 second_stage=second),
                         fp.scenarios, fp.probabilities)


def _day_ahead_edges():
    """A day-ahead toy whose prices sit below, on, between and above the
    levels, with all levels of hour 0 equal, block means on a block level,
    and a water value that skips a plant."""
    net = three_plant()
    T = 6
    v = flat_levels(T).values.copy()
    v[:, 0] = v[1, 0]
    levels = levels_from_values(v)
    prices = [v[0, 0] - 5.0, v[1, 1], 0.5 * (v[0, 2] + v[1, 2]),
              v[2, 3] + 5.0, v[2, 4], 0.25 * v[0, 5] + 0.75 * v[1, 5]]
    scens = [scen(prices, [2.0, 1.0, 3.0]),
             scen(np.asarray(prices)[::-1], [0.0, 4.0, 1.0]),
             scen(np.full(T, v[1, 0]), [1.0, 1.0, 1.0]),
             scen(v[1], [3.0, 0.5, 2.0])]
    pool = WaterValuePool(net.plant_ids, [5.0, 8.0],
                          [[1.0, 0.0, 2.0], [0.5, 0.0, 0.25]])
    model = build_day_ahead(net, levels, blocks=[(0, 2), (2, 6)],
                            water_value=pool, m0=[10.0, 20.0, 30.0])
    return model, FiniteProgram(model.program, scens)


def _week_ahead_toy(per_period):
    net = three_plant()
    program, scaled, wl = build_week_ahead(net, Resolution(1), 24)
    if per_period:
        sc = SamplerConfig(seed=4)
        scens = [sample_capacity_horizon(sc, net, 1, Resolution(1), i)
                 for i in range(3)]
    else:
        scens = hydro_scenarios(np.random.default_rng(4), net, 24, 3)
    return (scaled, wl), FiniteProgram(program, scens)


def _river(name):
    net = default_river()
    sc = SamplerConfig(seed=17)
    samples = sample_day_ahead_set(sc, net, 3)
    levels = price_levels(samples, 5)
    if name == "day_ahead":
        slopes = np.arange(len(net.plants), dtype=np.float64)
        pool = WaterValuePool(net.plant_ids, [3.0, 9.0],
                              [slopes, slopes[::-1] / 2.0])
        model = build_day_ahead(net, levels, blocks=default_blocks(24, 4),
                                water_value=pool)
    elif name == "maintenance":
        model = build_maintenance(net, levels)
    elif name == "capacity":
        res = Resolution(6)
        model = build_capacity(net, res, 2, CostParams(total_cap_mw=1e5))
        samples = [sample_capacity_horizon(sc, net, 2, res, i)
                   for i in range(3)]
    else:
        program, scaled, wl = build_week_ahead(net, Resolution(1), 24)
        samples = [sample_capacity_horizon(sc, net, 1, Resolution(1), i)
                   for i in range(3)]
        return (scaled, wl), FiniteProgram(program, samples)
    return model, FiniteProgram(model.program, samples)


_REFERENCES = {"day_ahead": day_ahead_stage,
               "maintenance": maintenance_stage,
               "capacity": capacity_stage,
               "week_ahead": lambda parts, s: week_ahead_stage(*parts, s)}

_CASES = {
    "day_ahead_toy": ("day_ahead", lambda: day_ahead_toy(n_scen=4)),
    "day_ahead_edges": ("day_ahead", _day_ahead_edges),
    "day_ahead_blocks": ("day_ahead", lambda: day_ahead_toy(
        network=three_plant(), T=8, blocks=[(0, 3), (3, 8)], count=5)),
    "maintenance_toy": ("maintenance", lambda: maintenance_toy(n_scen=3)),
    "maintenance_three": ("maintenance", lambda: maintenance_toy(
        network=three_plant(), T=6, n_scen=3)),
    "capacity_toy": ("capacity", lambda: capacity_toy(n_scen=3)),
    "capacity_six_hours": ("capacity", lambda: capacity_toy(
        network=three_plant(), hours=6, n_scen=3)),
    "week_ahead_toy": ("week_ahead", lambda: _week_ahead_toy(False)),
    "week_ahead_hourly": ("week_ahead", lambda: _week_ahead_toy(True)),
    "day_ahead_river": ("day_ahead", lambda: _river("day_ahead")),
    "maintenance_river": ("maintenance", lambda: _river("maintenance")),
    "capacity_river": ("capacity", lambda: _river("capacity")),
    "week_ahead_river": ("week_ahead", lambda: _river("week_ahead")),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_stages_equal_the_per_scenario_builders(case):
    kind, make = _CASES[case]
    model, fp = make()
    stages = scenario_stages(fp)
    assert len(stages) >= 2
    for s, st in zip(fp.scenarios, stages):
        assert_same_stage(st, _REFERENCES[kind](model, s))
    # the recourse is made once: every stage holds the same objects
    for st in stages[1:]:
        for name in ("W", "senses", "lb", "ub"):
            assert getattr(st, name) is getattr(stages[0], name), name
    for a in (stages[0].senses, stages[0].lb, stages[0].ub):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def _assert_same_de(fp, reference):
    got = build_deterministic_equivalent(fp)
    want = build_deterministic_equivalent(_with_reference(fp, reference))
    assert got.binaries == want.binaries
    for name in ("c", "b", "senses", "lb", "ub"):
        assert _bits(getattr(got.lp, name)) == _bits(getattr(want.lp, name))
    for part in ("start", "index", "value"):
        assert (_bits(getattr(got.lp.matrix, part))
                == _bits(getattr(want.lp.matrix, part)))


def test_maintenance_de_equals_the_per_scenario_builders():
    model, fp = _river("maintenance")
    _assert_same_de(fp, lambda s: maintenance_stage(model, s))


def test_day_ahead_de_at_50_scenarios_equals_the_per_scenario_builders():
    net = default_river()
    samples = sample_day_ahead_set(SamplerConfig(seed=3), net, 50)
    model = build_day_ahead(net, price_levels(samples, 5),
                            blocks=default_blocks(24, 4),
                            water_value=WaterValuePool.zero(net.plant_ids))
    fp = FiniteProgram(model.program, samples)
    _assert_same_de(fp, lambda s: day_ahead_stage(model, s))
