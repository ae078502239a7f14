"""Command-line runner: override errors and the ``evaluate`` command on a
two-plant river written to disk."""

import json

import numpy as np
import pytest

from hydrosp.cli import main
from hydrosp.core import FiniteProgram, evaluate_decision
from hydrosp.hydro import load_river
from hydrosp.models import (DayAheadStrategy, MaintenanceSchedule,
                            WaterValuePool, build_day_ahead,
                            build_maintenance, total_capacity)
from hydrosp.scenarios import (SamplerConfig, default_blocks, price_levels,
                               sample_day_ahead_set)

N_SCENARIOS = 2
RIVER_CSV = """\
plant_id,name,capacity_mw,max_discharge_m3s,max_volume_he,downstream_id,flow_time_discharge_min,flow_time_spill_min,maintenance_hours
up,Upper,10,20,100,dn,60,60,2
dn,Lower,8,16,50,,0,0,0
"""


def _stderr_error(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("override", [["--foo", "1"],
                                      ["--solver.bogus", "1"]])
def test_unknown_override_is_a_config_error(capsys, override):
    assert main(["solve"] + override) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert err["error"] == "ConfigError"
    assert override[0][2:] in err["message"]


@pytest.fixture
def river(tmp_path):
    path = tmp_path / "river.csv"
    path.write_text(RIVER_CSV)
    return path


def _samples(net):
    """The training set ``evaluate`` draws with the default config."""
    samples = sample_day_ahead_set(SamplerConfig(seed=0), net, N_SCENARIOS)
    return samples, price_levels(samples, 5)


def _evaluate(tmp_path, river, model, out, extra):
    argv = ["evaluate", "--model", model, "--scenarios", str(N_SCENARIOS),
            "--output", str(tmp_path / out), "--river", str(river)] + extra
    assert main(argv) == 0
    return (tmp_path / out / "objective.json").read_bytes()


def _check_objective(first, second, fp, x):
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "evaluate"
    assert payload["objective"] == pytest.approx(evaluate_decision(fp, x),
                                                 rel=1e-9)


def test_evaluate_day_ahead_matches_core(tmp_path, river):
    net = load_river(river)
    samples, levels = _samples(net)
    pool = WaterValuePool.zero(net.plant_ids)
    model = build_day_ahead(net, levels,
                            blocks=default_blocks(levels.horizon, 4),
                            water_value=pool)
    x = np.zeros(model.layout.n_first)
    for t in range(levels.horizon):
        x[model.layout.xi(t)] = 0.3 * total_capacity(net)
    strategy = tmp_path / "strategy.csv"
    cuts = tmp_path / "cuts.csv"
    model.strategy_from_x(x).to_csv(strategy)
    pool.to_csv(cuts)

    extra = ["--evaluate.strategy", str(strategy),
             "--water_value.cuts", str(cuts)]
    first = _evaluate(tmp_path, river, "day-ahead", "a", extra)
    second = _evaluate(tmp_path, river, "day-ahead", "b", extra)
    _check_objective(first, second, FiniteProgram(model.program, samples), x)


def test_evaluate_maintenance_matches_core(tmp_path, river):
    net = load_river(river)
    samples, levels = _samples(net)
    model = build_maintenance(net, levels)
    T, P = levels.horizon, levels.count
    strategy = DayAheadStrategy(xi=np.zeros(T), xd=np.zeros((P, T)),
                                xb=np.zeros((P, 0)),
                                level_values=levels.values, blocks=())
    windows = np.zeros((1, T), dtype=np.int64)
    windows[0, 10:12] = 1            # plant "up" is down for its 2 hours
    schedule = MaintenanceSchedule(("up",), windows)
    strategy.to_csv(tmp_path / "strategy.csv")
    schedule.to_csv(tmp_path / "schedule.csv")
    x = model.x_from_parts(strategy, schedule)

    extra = ["--evaluate.strategy", str(tmp_path / "strategy.csv"),
             "--evaluate.schedule", str(tmp_path / "schedule.csv")]
    first = _evaluate(tmp_path, river, "maintenance", "a", extra)
    second = _evaluate(tmp_path, river, "maintenance", "b", extra)
    _check_objective(first, second, FiniteProgram(model.program, samples), x)
