"""Planning model builders: structure, witnesses, and physics."""

import numpy as np
import pytest

from hydrosp.core import (FiniteProgram, scenario_stages, solve_stage,
                          solve_deterministic, evaluate_decision)
from hydrosp.hydro import Resolution, rescale, default_initial_volumes
from hydrosp.lshaped import solve as lshaped_solve
from hydrosp.models import (build_day_ahead, build_maintenance,
                            build_capacity, total_capacity, WaterValuePool,
                            DayAheadStrategy, DayAheadLayout,
                            MaintenanceSchedule, ExpansionPlan, CostParams,
                            PenaltyConfig, equivalent_cost,
                            mass_balance_residuals, hourly_dispatch,
                            block_dispatch)
from hydrosp.scenarios import price_levels
from _reference import inflow_at, loop_mass_balance_residuals
from _toys import (one_plant, two_plant, day_ahead_toy, maintenance_toy,
                   capacity_toy, hydro_scenarios, scen, flat_levels,
                   three_plant)


def witness(model, fp, x, s_index):
    """Second-stage optimizer for one scenario at a fixed first stage."""
    stage = scenario_stages(fp)[s_index]
    sol = solve_stage(stage, x, fp.program.sign)
    assert sol.ok
    return model.schedule_from_y(sol.x), stage


# ----------------------------------------------------------- day-ahead

def test_first_stage_count_formula():
    lay = DayAheadLayout(24, 5, 6, 15, True)
    assert lay.n_first == 24 + 5 * 24 + 5 * 6 == 174
    net = two_plant()
    scens = hydro_scenarios(np.random.default_rng(0), net, 24, 3)
    model = build_day_ahead(net, price_levels(scens, 5),
                            water_value=WaterValuePool.zero(net.plant_ids))
    assert model.program.first_stage.nvars == 174
    assert model.program.sense == "max"
    assert len(model.blocks) == 6                 # default 4-hour blocks


def test_day_ahead_requires_matching_pool():
    net = two_plant()
    scens = hydro_scenarios(np.random.default_rng(0), net, 6, 2)
    lv = price_levels(scens, 3)
    with pytest.raises(ValueError, match="water-value pool"):
        build_day_ahead(net, lv)
    with pytest.raises(ValueError, match="plants"):
        build_day_ahead(net, lv, water_value=WaterValuePool.zero(("x",)))


def test_no_water_no_profit():
    net = one_plant()
    T = 4
    lv = flat_levels(T, center=25.0)
    scens = [scen(np.full(T, 25.0), [0.0]), scen(np.full(T, 30.0), [0.0])]
    model = build_day_ahead(net, lv, blocks=[(0, T)],
                            water_value=WaterValuePool.zero(net.plant_ids),
                            m0=np.zeros(1))
    fp = FiniteProgram(model.program, scens)
    sol = solve_deterministic(fp)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_strategy_x_round_trip():
    model, _ = day_ahead_toy()
    rng = np.random.default_rng(3)
    lay = model.layout
    x = rng.uniform(0.0, 1.0, lay.n_first)
    strat = model.strategy_from_x(x)
    assert np.array_equal(model.x_from_strategy(strat), x)
    bad = DayAheadStrategy(xi=strat.xi[:-1], xd=strat.xd[:, :-1],
                           xb=strat.xb, level_values=strat.level_values,
                           blocks=strat.blocks)
    with pytest.raises(ValueError, match="dimensions"):
        model.x_from_strategy(bad)


def test_strategy_csv_round_trip(tmp_path):
    model, fp = day_ahead_toy()
    res = solve_deterministic(fp)
    strat = model.strategy_from_x(res.x)
    path = tmp_path / "strategy.csv"
    strat.to_csv(path)
    back = DayAheadStrategy.from_csv(path)
    assert np.array_equal(back.xi, strat.xi)
    assert np.array_equal(back.xd, strat.xd)
    assert np.array_equal(back.xb, strat.xb)
    assert np.array_equal(back.level_values, strat.level_values)
    assert back.blocks == strat.blocks


def test_solved_strategy_is_monotone_and_capped():
    model, fp = day_ahead_toy(T=6, n_scen=3)
    res = solve_deterministic(fp)
    strat = model.strategy_from_x(res.x)
    assert np.all(np.diff(strat.xd, axis=0) >= -1e-9)
    cap = 2.0 * total_capacity(model.network)
    for t in range(strat.horizon):
        # the worst case committed in hour t: monotone curves make the top
        # level the largest hourly dispatch, plus every block covering t
        offered = strat.xi[t] + strat.xd[-1, t] + sum(
            strat.xb[:, b].sum() for b, (s, e) in enumerate(strat.blocks)
            if s <= t < e)
        assert offered <= cap + 1e-6
    assert np.all(strat.xi >= -1e-9)


def test_day_ahead_witness_reproduces_market_rules():
    model, fp = day_ahead_toy(T=6, n_scen=3, blocks=[(0, 3), (3, 6)])
    res = solve_deterministic(fp)
    strat = model.strategy_from_x(res.x)
    for s, sample in enumerate(fp.scenarios):
        sched, _ = witness(model, fp, res.x, s)
        prices = sample.price
        for t in range(6):
            cleared = hourly_dispatch(prices[t], model.levels.values[:, t],
                                      strat.xi[t], strat.xd[:, t])
            assert sched.y[t] == pytest.approx(cleared, abs=1e-7)
        blocks_cleared = block_dispatch(prices, model.block_levels,
                                        model.blocks, strat.xb)
        assert sched.yb == pytest.approx(blocks_cleared, abs=1e-7)
        # energy accounting: production + purchases = commitment + sales
        committed = sched.y.copy()
        for b, (start, stop) in enumerate(model.blocks):
            committed[start:stop] += sched.yb[b]
        assert sched.production + sched.yplus - sched.yminus == \
            pytest.approx(committed, abs=1e-7)
        # production identity per period
        mu1, mu2 = model.scaled.mu1, model.scaled.mu2
        prod = (mu1[:, None] * sched.discharge[:, 0, :]
                + mu2[:, None] * sched.discharge[:, 1, :]).sum(axis=0)
        assert sched.production == pytest.approx(prod, abs=1e-7)


def test_day_ahead_mass_balance_residuals():
    model, fp = day_ahead_toy(T=6, n_scen=2)
    res = solve_deterministic(fp)
    stage = scenario_stages(fp)[0]
    sol = solve_stage(stage, res.x, fp.program.sign)
    resid = mass_balance_residuals(model.scaled, model.layout.water, sol.x,
                                   model.m0,
                                   inflow_at(fp.scenarios[0]))
    assert np.abs(resid).max() <= 1e-8


@pytest.mark.parametrize("hours", [1, 6])
def test_mass_balance_residuals_equal_the_row_loop(hours):
    # any second-stage vector, flow times of zero to a few periods, and
    # per-period inflows at 6 h resolution
    net = three_plant()
    model, fp = capacity_toy(network=net, hours=hours, days=1)
    wl = model.layout.water
    rng = np.random.default_rng(hours)
    inflow = rng.uniform(0.0, 5.0, (wl.horizon, len(net.plants)))
    for _ in range(3):
        y = rng.normal(0.0, 10.0, model.layout.n_second)
        got = mass_balance_residuals(model.scaled, wl, y, model.m0,
                                     lambda t: inflow[t])
        want = loop_mass_balance_residuals(model.scaled, wl, y, model.m0,
                                           lambda t: inflow[t])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert np.abs(want).max() > 1.0


def test_day_ahead_decomposition_matches_monolith():
    model, fp = day_ahead_toy(T=5, n_scen=3)
    truth = solve_deterministic(fp).objective
    res = lshaped_solve(fp)
    assert res.converged
    assert abs(res.objective - truth) <= 1e-6 * (1.0 + abs(truth))


def test_penalty_config():
    pen = PenaltyConfig()
    assert pen.is_peak(10) and not pen.is_peak(7) and not pen.is_peak(20)
    assert pen.alpha(10) == 0.85 and pen.beta(10) == 1.15
    assert pen.alpha(3) == 0.90 and pen.beta(3) == 1.10
    # a 24h period covers hour 0, which is off-peak
    assert not pen.is_peak(0, hours_per_period=24)
    with pytest.raises(ValueError, match="alpha < 1 < beta"):
        PenaltyConfig(alpha_peak=1.2)


# --------------------------------------------------------- maintenance

def test_zero_durations_reduce_to_day_ahead_without_blocks():
    net = two_plant((2, 1))
    rng = np.random.default_rng(4)
    scens = hydro_scenarios(rng, net, 6, 3)
    lv = price_levels(scens, 3)
    m0 = default_initial_volumes(rescale(net, Resolution(1)))
    maint = build_maintenance(net, lv, maintenance_durations={"up": 0,
                                                              "dn": 0},
                              m0=m0)
    plain = build_day_ahead(net, lv, blocks=[],
                            water_value=WaterValuePool.zero(net.plant_ids),
                            m0=m0)
    fm, fd = maint.program.first_stage, plain.program.first_stage
    for name in ("c", "b", "lb", "ub"):
        assert np.array_equal(getattr(fm, name), getattr(fd, name))
    assert fm.A == fd.A
    assert np.array_equal(fm.senses, fd.senses)
    assert fm.binaries == fd.binaries == ()
    # the day-ahead stage has one extra column, the water value w, and one
    # extra row, the zero pool's cut w <= 0, which comes last
    w = plain.layout.w
    for s in scens:
        sm = maint.program.stage(s)
        sd = plain.program.stage(s)
        dW, dT = sd.W.dense(), sd.T.dense()
        assert w == dW.shape[1] - 1
        assert np.flatnonzero(dW[:, w]).tolist() == [dW.shape[0] - 1]
        assert np.flatnonzero(dW[-1]).tolist() == [w]
        assert not dT[-1].any()
        assert np.array_equal(sm.q, sd.q[:w])
        assert np.array_equal(sm.T.dense(), dT[:-1])
        assert np.array_equal(sm.W.dense(), dW[:-1, :w])
        assert np.array_equal(sm.senses, sd.senses[:-1])
        assert np.array_equal(sm.h, sd.h[:-1])
        assert np.array_equal(sm.lb, sd.lb[:w])
        assert np.array_equal(sm.ub, sd.ub[:w])
    a = solve_deterministic(FiniteProgram(maint.program, scens)).objective
    b = solve_deterministic(FiniteProgram(plain.program, scens)).objective
    assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_maintenance_window_is_consecutive_and_exclusive():
    model, fp = maintenance_toy(T=8, n_scen=2)
    res = solve_deterministic(fp)
    sched = model.schedule_from_x(res.x)
    sched.validate(model.durations)
    assert sched.windows.sum() == model.durations.sum()
    k = 0
    h = model.layout.maintained[k]
    down = np.flatnonzero(sched.windows[k])
    assert len(down) == model.durations[k]
    assert np.all(np.diff(down) == 1)
    for s in range(fp.n_scenarios):
        w, _ = witness(model, fp, res.x, s)
        assert np.abs(w.discharge[h, :, down]).max() <= 1e-7


def test_maintenance_over_horizon_rejected():
    net = two_plant((2, 0))
    scens = hydro_scenarios(np.random.default_rng(0), net, 4, 2)
    lv = price_levels(scens, 3)
    with pytest.raises(ValueError, match="fit"):
        build_maintenance(net, lv, maintenance_durations={"up": 9})


def test_maintenance_schedule_csv_round_trip(tmp_path):
    sched = MaintenanceSchedule(("up",), np.array([[0, 1, 1, 0]]))
    path = tmp_path / "sched.csv"
    sched.to_csv(path)
    back = MaintenanceSchedule.from_csv(path)
    assert back.plant_ids == ("up",)
    assert np.array_equal(back.windows, sched.windows)


def test_maintenance_schedule_validation():
    with pytest.raises(ValueError, match="0/1"):
        MaintenanceSchedule(("up",), np.array([[0.5, 0.5]]))
    good = MaintenanceSchedule(("up",), np.array([[0, 1, 1, 0]]))
    good.validate([2])
    with pytest.raises(ValueError, match="maintained hours"):
        good.validate([3])
    split = MaintenanceSchedule(("up",), np.array([[1, 0, 1, 0]]))
    with pytest.raises(ValueError, match="consecutive"):
        split.validate([2])


def test_maintenance_parts_round_trip():
    model, fp = maintenance_toy(T=6, n_scen=2)
    res = solve_deterministic(fp)
    strat = model.strategy_from_x(res.x)
    sched = model.schedule_from_x(res.x)
    x = model.x_from_parts(strat, sched)
    assert x == pytest.approx(res.x, abs=1e-9)
    assert evaluate_decision(fp, x) == pytest.approx(res.objective,
                                                     abs=1e-7)


def test_maintenance_decomposition_matches_monolith():
    model, fp = maintenance_toy(T=6, n_scen=2)
    truth = solve_deterministic(fp).objective
    res = lshaped_solve(fp)
    assert res.converged
    assert abs(res.objective - truth) <= 1e-6 * (1.0 + abs(truth))


# ------------------------------------------------------------- capacity

def test_equivalent_cost_single_year_annuity():
    got = equivalent_cost(365)
    exact = 0.79 * 0.05 / (1.0 - 1.05 ** -40)
    assert got == pytest.approx(exact, rel=1e-12)
    assert got == pytest.approx(0.046043, abs=1e-5)


def test_equivalent_cost_full_payback_horizon():
    r_eff = 1.05 ** 40 - 1.0
    got = equivalent_cost(40 * 365)
    assert got == pytest.approx(0.79 * (1.0 + r_eff), rel=1e-9)


def test_equivalent_cost_pv_round_trip():
    yearly = equivalent_cost(365)
    pv = yearly * (1.0 - 1.05 ** -40) / 0.05
    assert pv == pytest.approx(0.79, abs=1e-9)


@pytest.mark.parametrize("days", [1, 7, 30, 365, 730, 40 * 365])
def test_equivalent_cost_pv_invariant_any_horizon(days):
    # discounting each installment back to today recovers the unit cost
    r_e = 1.05 ** (days / 365.0) - 1.0
    n = 40 * 365.0 / days
    pay = equivalent_cost(days)
    pv = pay * (1.0 - (1.0 + r_e) ** -n) / r_e
    assert pv == pytest.approx(0.79, rel=1e-9)


def test_infinite_unit_cost_forces_zero_expansion():
    model, fp = capacity_toy(rich=True,
                             cost_params=CostParams(unit_cost=np.inf))
    sol = solve_deterministic(fp)
    assert np.abs(sol.x).max() <= 1e-6
    forced = evaluate_decision(fp, np.zeros(len(sol.x)))
    assert sol.objective == pytest.approx(forced, abs=1e-7)


def test_cheap_expansion_is_taken():
    model, fp = capacity_toy(rich=True,
                             cost_params=CostParams(unit_cost=1e-6))
    sol = solve_deterministic(fp)
    assert sol.x.max() > 1.0


def test_expansion_headroom_never_hurts():
    model, fp = capacity_toy(rich=True)
    free = solve_deterministic(fp).objective
    pinned = evaluate_decision(fp, np.zeros(2))
    assert free >= pinned - 1e-8 * (1.0 + abs(pinned))


def test_capacity_first_stage_caps():
    params = CostParams(total_cap_mw=7.0, per_plant_cap_mw=5.0)
    model, fp = capacity_toy(rich=True, cost_params=params)
    fs = fp.program.first_stage
    assert fs.A.shape == (1, 2)
    assert fs.b[0] == 7.0
    assert np.all(fs.ub == 5.0)
    sol = solve_deterministic(fp)
    assert sol.x.sum() <= 7.0 + 1e-7
    assert sol.x.max() <= 5.0 + 1e-7


def test_expansion_plan_round_trips(tmp_path):
    model, fp = capacity_toy()
    x = np.array([3.0, 0.5])
    plan = model.plan_from_x(x)
    ratio = np.array([p.max_discharge_m3s / p.capacity_mw
                      for p in model.network.plants])
    assert plan.delta_q == pytest.approx(ratio * x)
    assert np.array_equal(model.x_from_plan(plan), x)
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    back = ExpansionPlan.from_csv(path)
    assert back.plant_ids == plan.plant_ids
    assert np.array_equal(back.delta_p, plan.delta_p)
    assert np.array_equal(back.delta_q, plan.delta_q)
    with pytest.raises(ValueError, match="match"):
        model.x_from_plan(ExpansionPlan(("a", "b"), x, x))


def test_capacity_witness_physics():
    model, fp = capacity_toy(days=3, n_scen=2, rich=True,
                             cost_params=CostParams(unit_cost=1e-3))
    sol = solve_deterministic(fp)
    stage = scenario_stages(fp)[0]
    ysol = solve_stage(stage, sol.x, fp.program.sign)
    assert ysol.ok
    sched = model.schedule_from_y(ysol.x)
    resid = mass_balance_residuals(model.scaled, model.layout.water,
                                   ysol.x, model.m0,
                                   inflow_at(fp.scenarios[0]))
    assert np.abs(resid).max() <= 1e-8
    mu1, mu2 = model.scaled.mu1, model.scaled.mu2
    prod = (mu1[:, None] * sched.discharge[:, 0, :]
            + mu2[:, None] * sched.discharge[:, 1, :]).sum(axis=0)
    assert sched.production == pytest.approx(prod, abs=1e-7)
    # expanded discharge capacity scales with the plan
    ratio = np.array([p.max_discharge_m3s / p.capacity_mw
                      for p in model.network.plants])
    q1_cap = model.scaled.qmax1 + 0.75 * ratio * sol.x
    assert np.all(sched.discharge[:, 0, :].max(axis=1)
                  <= q1_cap + 1e-6)


def test_capacity_rejects_misaligned_horizon():
    net = two_plant()
    with pytest.raises(ValueError, match="whole number"):
        build_capacity(net, Resolution(120), 3)
    with pytest.raises(ValueError, match="at least one"):
        build_capacity(net, Resolution(24), 0)


def test_capacity_period_count_tracks_resolution():
    net = two_plant()
    model = build_capacity(net, Resolution(24), 10)
    assert model.layout.horizon == 10
    model = build_capacity(net, Resolution(120), 10)
    assert model.layout.horizon == 2


def test_inflows_that_do_not_fit_the_river_are_rejected():
    # 2 days at 6-hour periods: 8 periods of 2 plants
    _, fp = capacity_toy(hours=6)
    base = fp.scenarios[0]
    prices = base.price
    for inflow in (np.full((7, 2), 1.0), np.full((1, 3), 1.0)):
        bad = FiniteProgram(fp.program, [base, scen(prices, inflow)])
        with pytest.raises(ValueError) as info:
            scenario_stages(bad)
        msg = str(info.value)
        assert msg.startswith("scenario 1: inflow has shape "
                              f"{inflow.shape}, expected (>=8, 2)"), msg
    # what fits: a per-period array at least as long as the horizon, one
    # row for every period, or one (H,) row
    for inflow in (np.ones((9, 2)), np.ones((1, 2)), np.ones(2)):
        stages = scenario_stages(
            FiniteProgram(fp.program, [base, scen(prices, inflow)]))
        assert len(stages) == 2
