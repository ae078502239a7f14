"""The start basis that the model builders give their recourse: on the
shipped 15-plant river it is feasible in every scenario, the kernel starts
from it, and it ends at the slack-basis optimum; and the checks
``core.Recourse`` makes of a start."""

import numpy as np
import pytest

from hydrosp.core import (FiniteProgram, Recourse, _stage_lp,
                          check_first_stage_feasible, scenario_stages,
                          solve_stage)
from hydrosp.hydro import Resolution, default_river
from hydrosp.lp import solve_lp
from hydrosp.models import (CostParams, DayAheadStrategy, MaintenanceSchedule,
                            WaterValuePool, build_capacity, build_day_ahead,
                            build_maintenance, build_week_ahead,
                            total_capacity)
from hydrosp.scenarios import (SamplerConfig, default_blocks, price_levels,
                               sample_capacity_horizon, sample_day_ahead_set)


def _strategy(levels, share, blocks):
    """Orders of a ``share`` of installed capacity, split over the
    independent volume, rising dependent levels and every block."""
    T, P = levels.horizon, levels.count
    return DayAheadStrategy(
        xi=np.full(T, 0.4 * share), xd=np.outer(
            0.1 * share * np.arange(1, P + 1), np.ones(T)),
        xb=np.full((P, len(blocks)), 0.02 * share),
        level_values=levels.values, blocks=tuple(blocks))


def _river_case(name):
    """``(fp, x)`` of one model on the 15-plant river, two scenarios, at
    a feasible first stage that moves every row the start basis names."""
    net = default_river()
    sc = SamplerConfig(seed=5)
    samples = sample_day_ahead_set(sc, net, 2)
    levels = price_levels(samples, 5)
    share = total_capacity(net)
    if name == "day_ahead":
        blocks = default_blocks(24, 4)
        # a cut with nonzero slopes and a positive intercept
        pool = WaterValuePool(net.plant_ids, [5.0],
                              np.linspace(0.0, 2.0, len(net.plants))[None])
        model = build_day_ahead(net, levels, blocks=blocks, water_value=pool)
        x = model.x_from_strategy(_strategy(levels, share, blocks))
    elif name == "maintenance":
        model = build_maintenance(net, levels)
        maintained = [net.plants[h] for h in model.layout.maintained]
        windows = np.zeros((len(maintained), 24), dtype=np.int64)
        for k, plant in enumerate(maintained):
            windows[k, k % 12:k % 12 + plant.maintenance_hours] = 1
        x = model.x_from_parts(
            _strategy(levels, share, ()),
            MaintenanceSchedule(tuple(p.plant_id for p in maintained),
                                windows))
    elif name == "capacity":
        res = Resolution(24)
        model = build_capacity(net, res, 1, CostParams(total_cap_mw=1e5))
        samples = [sample_capacity_horizon(sc, net, 1, res, i)
                   for i in range(2)]
        x = np.full(len(net.plants), 10.0)
    else:
        program, scaled, _ = build_week_ahead(net, Resolution(1),
                                              horizon_hours=24)
        samples = [sample_capacity_horizon(sc, net, 1, Resolution(1), i)
                   for i in range(2)]
        fp = FiniteProgram(program, samples)
        return fp, 0.5 * scaled.max_volume
    return FiniteProgram(model.program, samples), x


_MODELS = ("day_ahead", "maintenance", "capacity", "week_ahead")


@pytest.mark.parametrize("name", _MODELS)
def test_river_start_is_feasible_and_reaches_the_slack_optimum(name):
    fp, x = _river_case(name)
    check_first_stage_feasible(fp.program.first_stage, x)
    recourse, sign = fp.program.recourse, fp.program.sign
    m, n = recourse.W.shape
    assert recourse.start is not None
    # the model names a structural column on every '=' row
    assert np.all(recourse.start[recourse.senses == 0] < n)
    basis = recourse.start_basis()
    assert basis.basic is recourse.start
    WI = np.hstack([recourse.W.dense(), np.eye(m)])
    lo = np.concatenate([recourse.lb, np.where(recourse.senses == 2,
                                               -np.inf, 0.0)])
    hi = np.concatenate([recourse.ub, np.where(recourse.senses == 1,
                                               np.inf, 0.0)])
    nonbasic = np.flatnonzero(basis.status != 3)
    xn = np.choose(basis.status[nonbasic],
                   (lo[nonbasic], hi[nonbasic], np.zeros(nonbasic.size)))
    stages = scenario_stages(fp)
    for st in stages:
        b = st.h - st.T @ x
        xb = np.linalg.solve(WI[:, basis.basic], b - WI[:, nonbasic] @ xn)
        assert np.all(lo[basis.basic] - 1e-9 <= xb)
        assert np.all(xb <= hi[basis.basic] + 1e-9)
    # one scenario's solves: the slack-basis solve of the maintenance
    # model alone takes seconds
    warm = solve_stage(stages[0], x, sign)
    cold = solve_lp(_stage_lp(stages[0], x, sign))
    assert warm.ok and warm.warm_started
    assert cold.ok and not cold.warm_started
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def _recourse(start):
    # 3 rows, 4 columns: the slacks are columns 4, 5 and 6
    return Recourse(np.ones((3, 4)), ("=", "<=", ">="),
                    [0.0, -np.inf, -np.inf, 1.0], [np.inf, 5.0, np.inf, 2.0],
                    start)


def test_start_basis_puts_nonbasic_columns_at_their_bounds():
    r = _recourse([0, 1, 5])
    assert r.start.dtype == np.int64 and not r.start.flags.writeable
    # structurals: lower bound, else upper, else free; slacks: the one
    # finite bound, the upper on the '>=' row
    assert r.start_basis().status.tolist() == [3, 3, 2, 0, 0, 3, 1]
    assert _recourse(None).start_basis() is None


@pytest.mark.parametrize("start, message", [
    ([0, 1], r"start has shape \(2,\)"),
    ([0, 1, 2, 3], r"start has shape \(4,\)"),
    ([0.0, 1.0, 2.0], "expected \\(3,\\) integers"),
    ([0, 4, 4], "start names column 4 more than once"),
    ([0, 1, 7], r"start column 7 of row 2 is outside 0\.\.6"),
    ([-1, 1, 2], r"start column -1 of row 0 is outside 0\.\.6"),
])
def test_recourse_rejects_a_bad_start(start, message):
    with pytest.raises(ValueError, match=message):
        _recourse(start)
