"""Water-value cut pools and the week-ahead value generator."""

import numpy as np
import pytest

from hydrosp import core
from hydrosp.core import FiniteProgram, evaluate_decision
from hydrosp.hydro import Resolution, rescale
from hydrosp.lp import solve_lp
from hydrosp.lshaped import LShapedConfig
from hydrosp.models import (WaterValuePool, WaterValueError, build_week_ahead,
                            compute_water_value)
from _toys import one_plant, two_plant, scen, hydro_scenarios


def direct_value(network, scens, m0, horizon_hours):
    program, _, _ = build_week_ahead(network, Resolution(1), horizon_hours)
    fp = FiniteProgram(program, scens)
    return evaluate_decision(fp, np.asarray(m0, dtype=np.float64))


# ------------------------------------------------------------- the pool

def test_cut_and_envelope_arithmetic():
    pool = WaterValuePool(("solo",), [10.0, 16.0], [[2.0], [0.5]])
    assert len(pool) == 2
    assert pool.intercept[0] + pool.slopes[0] @ [3.0] == 16.0
    # below the crossing the steep cut binds, above it the flat one
    assert pool.value([1.0]) == 12.0
    assert pool.value([5.0]) == 18.5


def test_pool_validation():
    with pytest.raises(ValueError, match="at least one"):
        WaterValuePool(("solo",), [], np.zeros((0, 1)))
    with pytest.raises(ValueError, match="slopes"):
        WaterValuePool(("a", "b"), [0.0], np.zeros((1, 1)))
    with pytest.raises(ValueError, match="slopes"):
        WaterValuePool(("a",), [0.0, 1.0], np.zeros((1, 1)))


def test_zero_pool_is_identically_zero():
    pool = WaterValuePool.zero(("a", "b", "c"))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert pool.value(rng.uniform(0, 100, 3)) == 0.0


def test_pool_csv_round_trip(tmp_path):
    pool = WaterValuePool(("up", "dn"), [1.5, -3.0],
                          [[2.0, -0.25], [0.1, 0.7]])
    path = tmp_path / "cuts.csv"
    pool.to_csv(path)
    text = path.read_text()
    assert text.startswith("# units:")
    assert text.splitlines()[1:] == [
        "cut_id,intercept,slope_up,slope_dn",
        "0,1.5,2.0,-0.25",
        "1,-3.0,0.1,0.7",
    ]
    back = WaterValuePool.from_csv(path)
    assert back.plant_ids == ("up", "dn")
    assert len(back) == 2
    assert np.array_equal(back.intercept, pool.intercept)
    assert np.array_equal(back.slopes, pool.slopes)
    again = tmp_path / "again.csv"
    back.to_csv(again)
    assert again.read_bytes() == path.read_bytes()


HEADER = "# units: x\ncut_id,intercept,slope_up,slope_dn\n"


@pytest.mark.parametrize("body, message", [
    ("0,1.5,2.0,-0.25\n1,-3.0,0.1\n", "line 4: 3 columns, the header has 4"),
    ("0,1.5,2.0,-0.25\n1,-3.0,0.1,0.7,9\n",
     "line 4: 5 columns, the header has 4"),
    ("0,1.5,2.0,abc\n", "line 3: could not convert"),
    ("", "no cut rows"),
    ("# only a comment\n", "no cut rows"),
])
def test_from_csv_names_the_file_and_the_bad_row(tmp_path, body, message):
    path = tmp_path / "cuts.csv"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match=message) as ei:
        WaterValuePool.from_csv(path)
    assert str(ei.value).startswith(str(path))


# ------------------------------------------------- the week-ahead model

def test_week_ahead_first_stage_is_storage():
    net = two_plant()
    program, scaled, wl = build_week_ahead(net, Resolution(1), 24)
    assert program.sense == "max"
    assert program.first_stage.nvars == 2
    assert np.array_equal(program.first_stage.ub, scaled.max_volume)
    assert np.all(program.first_stage.lb == 0.0)
    assert wl.horizon == 24
    with pytest.raises(ValueError, match="divisible"):
        build_week_ahead(net, Resolution(5), 24)


def test_constant_price_value_is_linear_in_storage():
    net = one_plant()
    T, rho = 12, 30.0
    scaled = rescale(net, Resolution(1))
    mu1 = scaled.mu1[0]
    scens = [scen(np.full(T, rho), [0.0]), scen(np.full(T, rho), [0.0])]
    pool = compute_water_value(net, scens, horizon_hours=T)
    # every anchor cut prices water at the best-point marginal energy rate
    for m0 in (0.0, 25.0, 60.0, 100.0):
        assert pool.value([m0]) == pytest.approx(mu1 * rho * m0,
                                                 rel=1e-6, abs=1e-6)
    lo, hi = pool.value([20.0]), pool.value([80.0])
    assert (hi - lo) / 60.0 == pytest.approx(mu1 * rho, rel=1e-6)
    direct = direct_value(net, scens, [50.0], T)
    assert pool.value([50.0]) == pytest.approx(direct, rel=1e-7)


def test_zero_price_zero_value():
    net = one_plant()
    T = 6
    scens = [scen(np.zeros(T), [2.0])]
    pool = compute_water_value(net, scens, horizon_hours=T)
    for m0 in (0.0, 50.0, 100.0):
        assert abs(pool.value([m0])) <= 1e-9
    assert np.abs(pool.slopes).max() <= 1e-9


def test_envelope_dominates_direct_value():
    net = two_plant()
    T = 8
    rng = np.random.default_rng(7)
    scens = hydro_scenarios(rng, net, T, 3)
    grid = rng.uniform(0.0, 1.0, (4, 2)) * rescale(net,
                                                   Resolution(1)).max_volume
    pool = compute_water_value(net, scens, m_grid=grid, horizon_hours=T)
    scale = 1.0 + abs(direct_value(net, scens, grid[0], T))
    for _ in range(10):
        m0 = rng.uniform(0.0, 1.0, 2) * rescale(net,
                                                Resolution(1)).max_volume
        truth = direct_value(net, scens, m0, T)
        assert pool.value(m0) >= truth - 1e-6 * scale
    # anchored cuts are tight where they were generated
    for point in grid:
        truth = direct_value(net, scens, point, T)
        assert pool.value(point) == pytest.approx(truth, rel=1e-6)


def test_cut_ids_are_unique_and_single_group(tmp_path):
    net = one_plant()
    T = 6
    scens = [scen(np.full(T, 20.0), [1.0]), scen(np.full(T, 24.0), [1.5])]
    pool = compute_water_value(net, scens, horizon_hours=T)
    assert len(pool) >= 6        # >= 1 iteration + 5 default anchors
    assert pool.slopes.shape == (len(pool), 1)
    pool.to_csv(tmp_path / "cuts.csv")
    rows = (tmp_path / "cuts.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(len(pool)))


def test_anchor_chains_start_cold_once_per_grid_point(monkeypatch):
    net = two_plant()
    T = 8
    rng = np.random.default_rng(7)
    scens = hydro_scenarios(rng, net, T, 3)
    grid = rng.uniform(0.0, 1.0, (2, 2)) * rescale(net,
                                                   Resolution(1)).max_volume
    calls = []
    stage_solve = core.solve_stage

    def spy(stage, x, sign, basis=None, lp=None, inverse=None):
        sol = stage_solve(stage, x, sign, basis=basis, lp=lp,
                          inverse=inverse)
        calls.append((stage, x.copy(), sign, sol))
        return sol

    monkeypatch.setattr(core, "solve_stage", spy)
    compute_water_value(net, scens, m_grid=grid, horizon_hours=T)
    # the anchor solves come last, 3 scenarios per grid point: scenario 0
    # from the week-ahead model's start basis and the others from its
    # final basis, each at the optimum of a slack-basis solve
    anchors = calls[-6:]
    for i, point in enumerate(grid):
        chain = anchors[3 * i:3 * i + 3]
        assert all(np.array_equal(x, point) for _, x, _, _ in chain)
        assert [sol.warm_started for *_, sol in chain] == [True] * 3
        for stage, x, sign, sol in chain:
            cold = solve_lp(core._stage_lp(stage, x, sign))
            assert not cold.warm_started
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


def test_nonconvergence_raises_with_log():
    net = two_plant()
    T = 8
    scens = hydro_scenarios(np.random.default_rng(1), net, T, 3)
    cfg = LShapedConfig(max_iterations=1)
    with pytest.raises(WaterValueError, match="did not converge") as ei:
        compute_water_value(net, scens, config=cfg, horizon_hours=T)
    assert len(ei.value.log) == 1


def test_short_scenario_rejected():
    net = one_plant()
    scens = [scen(np.full(4, 20.0), [1.0])]
    with pytest.raises(ValueError, match="price periods"):
        compute_water_value(net, scens, horizon_hours=8)
