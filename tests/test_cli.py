"""Command-line runner on a two-plant river written to disk: config
errors, ``evaluate`` on the market models, and ``solve``, ``evaluate`` and
``saa`` on a small capacity model."""

import csv
from dataclasses import fields, is_dataclass
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hydrosp
import hydrosp.core
import hydrosp.lshaped
import hydrosp.models.watervalue
from hydrosp.cli import ExperimentConfig, main
from hydrosp.core import (FiniteProgram, _stage_lp, _stage_values, bunched,
                          evaluate_decision, scenario_solutions,
                          scenario_stages)
from hydrosp.hydro import load_river
from hydrosp.lp import LIMIT, LpSolution, solve_lp
from hydrosp.lshaped import LShapedConfig, solve as lshaped_solve
from hydrosp.models import (DayAheadStrategy, MaintenanceSchedule,
                            WaterValueError, WaterValuePool, build_day_ahead,
                            build_maintenance, total_capacity)
from hydrosp.scenarios import (SamplerConfig, ScenarioSample,
                               default_blocks, price_levels,
                               sample_day_ahead_set)
from _toys import random_two_stage

N_SCENARIOS = 2
# one day at 6-hour periods, three scenarios: about half a second a solve
CAPACITY = ["--model", "capacity", "--horizon-days", "1", "--resolution", "6",
            "--scenarios", "3"]
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
                                      ["--solver.bogus", "1"],
                                      ["--solver.formulation", "single"],
                                      ["--solver.trust_region", "true"],
                                      ["--solver.consolidation_age", "5"]])
def test_unknown_override_is_a_config_error(capsys, override):
    assert main(["solve"] + override) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert err["error"] == "ConfigError"
    assert override[0][2:] in err["message"]


@pytest.mark.parametrize("override, where", [
    (["--solver.groups", "0"], "solver: "),
    (["--solver.gap_tol", "-1"], "solver: gap_tol"),
    (["--penalties.alpha_peak", "1.5"], "penalties: "),
    (["--sampler.price_noise", "abc"], "bad value 'abc' for "
                                       "'sampler.price_noise'"),
    (["--saa.M", "2.5"], "bad value 2.5 for 'saa.M'"),
    (["--water_value.scenarios", "1.5"],
     "bad value 1.5 for 'water_value.scenarios'"),
    (["--saa.eval_n", "abc"], "bad value 'abc' for 'saa.eval_n'"),
    (["--saa.rel_width_tol", "-1"], "saa: rel_width_tol"),
    (["--river", "1"], "river: expected a file path"),
    (["--water_value.cuts", "1"], "water_value.cuts: expected a file path"),
    (["--evaluate.expansion", "1"],
     "evaluate.expansion: expected a file path"),
    (["--evaluate", "5"], "config section 'evaluate' must be a mapping"),
    (["--solver.workers", "2"], "unknown config key 'solver.workers'"),
    (["--solver.gap_tol", "nan"], "solver: gap_tol"),
    (["--solver.max_iterations", "0"], "solver: max_iterations"),
    (["--scenarios", "4", "--solver.groups", "6"], "solver: groups 6"),
    (["--levels", "4"], "levels must be odd, got 4"),
    (["--levels", "0"], "levels must be at least 1"),
    (["--resolution", "6"], "resolution: the day-ahead model runs at "
                            "hourly resolution"),
    (["--m0_fraction", "abc"], "bad value 'abc' for 'm0_fraction'"),
    (["--seed", "-1"], "seed must be at least 0"),
    (["--maintenance_durations", "5"],
     "config section 'maintenance_durations' must be a mapping"),
    (["--maintenance_durations.up", "-1"],
     "maintenance_durations.up: -1 hours must be at least 0"),
    (["--maintenance_durations.up", "2.5"],
     "bad value 2.5 for 'maintenance_durations.up'"),
    # every setting goes through the one parser: the YAML file's message
    # for an output that is not a path, and no abbreviations
    (["--output", "5"], "output: expected a directory path, got 5"),
    # a ' #' would start a YAML comment and drop the rest of the value
    (["--output", "runs/a #2"], "bad value 'runs/a #2' for 'output': ' #' "
                                "starts a YAML comment"),
    (["--saa.schedule=[5, 3] # two"], "bad value '[5, 3] # two' for "
                                      "'saa.schedule'"),
    (["--scen", "4"], "unknown config key 'scen'"),
    (["--conf", "c.yaml"], "unknown config key 'conf'"),
    (["--model", "hourly"], "unknown model 'hourly'"),
    (["--seed", "abc"], "bad value 'abc' for 'seed'"),
    (["--horizon-days", "0"], "horizon_days must be at least 1"),
    (["--sampler.price-profile", "1"],
     "unknown config key 'sampler.price_profile'"),
])
def test_invalid_setting_fails_before_any_work(capsys, monkeypatch, river,
                                               override, where):
    def no_water_value(*args, **kwargs):
        raise AssertionError("water values computed before config checks")

    def no_river(*args, **kwargs):
        raise AssertionError("river loaded before config checks")

    monkeypatch.setattr("hydrosp.cli.compute_water_value", no_water_value)
    monkeypatch.setattr("hydrosp.cli.load_river", no_river)
    assert main(["solve", "--river", str(river)] + override) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(where)


def test_saa_groups_above_its_smallest_instance_fail_before_any_work(
        capsys, monkeypatch, river):
    def no_river(*args, **kwargs):
        raise AssertionError("river loaded before config checks")

    monkeypatch.setattr("hydrosp.cli.load_river", no_river)
    argv = ["saa", "--model", "capacity", "--river", str(river),
            "--saa.schedule", "[5, 3]", "--solver.groups", "4"]
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"] == ("solver: groups 4 exceeds the 3 scenarios of "
                              "an instance")


# every command that computes the water value in-process runs L-shaped on
# the water_value.scenarios with the solver section
WATER_VALUE_RUNS = [
    ("water-value", []),
    ("water-value", ["--model", "capacity"]),
    ("solve", ["--scenarios", "4"]),
    ("saa", ["--saa.schedule", "[4]"]),
    ("evaluate", []),
]


@pytest.mark.parametrize("command, extra", WATER_VALUE_RUNS)
def test_groups_above_the_water_value_scenarios_fail_before_any_work(
        capsys, no_river, river, command, extra):
    argv = [command, "--river", str(river), "--water_value.scenarios", "2",
            "--solver.groups", "3"] + extra
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"] == ("solver: groups 3 exceeds the 2 scenarios of "
                              "the water-value run")


def test_groups_above_the_water_value_scenarios_pass_without_that_run(
        tmp_path, no_river, river):
    # a capacity model and a day-ahead model given a cut file compute no
    # water value, so the check lets them reach the river
    cuts = tmp_path / "cuts.csv"
    WaterValuePool.zero(("up", "dn")).to_csv(cuts)
    common = ["--river", str(river), "--water_value.scenarios", "2",
              "--solver.groups", "3", "--scenarios", "4"]
    for argv in (["solve", "--model", "capacity"],
                 ["solve", "--water_value.cuts", str(cuts)]):
        with pytest.raises(AssertionError, match="river loaded"):
            main(argv + common)


@pytest.mark.parametrize("command, extra", WATER_VALUE_RUNS)
def test_water_value_run_takes_the_solver_section(tmp_path, monkeypatch,
                                                  river, capsys, command,
                                                  extra):
    seen = []

    def stop(*args, config=None, **kwargs):
        seen.append(config)
        raise WaterValueError("stopped after the config was seen")

    monkeypatch.setattr("hydrosp.cli.compute_water_value", stop)
    argv = [command, "--river", str(river), "--water_value.scenarios", "2",
            "--water_value.horizon_hours", "24", "--solver.gap_tol", "0.001",
            "--output", str(tmp_path / "a")] + extra
    if command == "evaluate":
        _orders(tmp_path / "strategy.csv")
        argv += ["--evaluate.strategy", str(tmp_path / "strategy.csv")]
    assert main(argv) == 1
    assert _stderr_error(capsys)["error"] == "WaterValueError"
    assert seen == [LShapedConfig(gap_tol=0.001)]


def test_water_value_iteration_limit_exits_1(tmp_path, river, capsys):
    code = main(["water-value", "--river", str(river),
                 "--water_value.scenarios", "1",
                 "--water_value.horizon_hours", "24",
                 "--solver.max_iterations", "1",
                 "--output", str(tmp_path / "a")])
    assert code == 1
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (1, "WaterValueError")
    assert err["message"] == ("week-ahead value iteration did not converge "
                              "in 1 iterations")
    assert not (tmp_path / "a" / "cuts.csv").exists()


# every config key and its default value, as a literal: the dataclass
# field defaults must keep them
DEFAULTS = {
    "river": None,
    "model": "day-ahead",
    "seed": 0,
    "scenarios": 50,
    "output": "out",
    "resolution": None,
    "horizon_days": 365,
    "levels": 5,
    "block_width": 4,
    "m0_fraction": 0.5,
    "sampler": {"price_season_amplitude": 0.1, "inflow_fraction": 0.1,
                "inflow_season_amplitude": 0.3, "ar_coef": 0.6,
                "price_noise": 2.0, "inflow_noise": 0.3, "anchor_month": 6,
                "rate_cap": 0.04},
    "solver": {"groups": None, "max_iterations": 200, "gap_tol": 1e-07},
    "saa": {"schedule": (10, 50, 100, 500), "M": 10, "T": 10,
            "eval_n": 1000, "alpha": 0.05, "rel_width_tol": 1e-12},
    "penalties": {"peak_start": 8, "peak_stop": 20, "alpha_peak": 0.85,
                  "beta_peak": 1.15, "alpha_off": 0.9, "beta_off": 1.1},
    "maintenance_durations": None,
    "capacity": {"rate": 0.05, "unit_cost": 0.79, "payback_years": 40.0,
                 "total_cap_mw": 1000.0, "per_plant_cap_mw": 1000.0},
    "water_value": {"cuts": None, "scenarios": 3, "horizon_hours": 168,
                    "m_grid": None},
    "evaluate": {"strategy": None, "schedule": None, "expansion": None},
}
SECTIONS = [key for key, value in DEFAULTS.items() if isinstance(value, dict)]


@pytest.fixture
def no_river(monkeypatch):
    """Fail the test once a river loads: its check must come first."""
    def fail(*args, **kwargs):
        raise AssertionError("river loaded before the input checks")

    monkeypatch.setattr("hydrosp.cli.load_river", fail)
    monkeypatch.setattr("hydrosp.cli.default_river", fail)


def _leaves(tree, path=""):
    for key, value in tree.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, dotted)
        else:
            yield dotted, value


def _schema(cls, path=""):
    for f in fields(cls):
        dotted = f"{path}.{f.name}" if path else f.name
        if is_dataclass(f.type):
            yield from _schema(f.type, dotted)
        else:
            yield dotted


def _config(tmp_path, tree=None, overrides=()):
    config = None
    if tree is not None:
        config = str(tmp_path / "config.yaml")
        with open(config, "w") as fh:
            json.dump(tree, fh)          # JSON is YAML
    return ExperimentConfig.from_sources(config, list(overrides))


def _value(cfg, dotted):
    for part in dotted.split("."):
        cfg = getattr(cfg, part)
    return cfg


def test_every_key_keeps_its_default_through_yaml_and_overrides(tmp_path):
    keys = dict(_leaves(DEFAULTS))
    hidden = {"sampler.seed", "sampler.price_profile"}
    assert set(_schema(ExperimentConfig)) == set(keys) | hidden
    overrides = [token for key, value in keys.items()
                 for token in (f"--{key}", json.dumps(value))]
    for cfg in (_config(tmp_path), _config(tmp_path, DEFAULTS),
                _config(tmp_path, overrides=overrides),
                ExperimentConfig()):
        for key, default in keys.items():
            assert _value(cfg, key) == default, key


@pytest.mark.parametrize("key", ["nosuch", "sampler.seed",
                                 "sampler.price_profile"]
                         + [f"{section}.nosuch" for section in SECTIONS])
def test_unknown_key_exits_2_naming_its_dotted_key(tmp_path, capsys,
                                                   no_river, key):
    section, _, leaf = key.rpartition(".")
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({section: {leaf: 1}} if section
                                 else {leaf: 1}))
    for argv in (["solve", f"--{key}", "1"],
                 ["solve", "--config", str(config)]):
        assert main(argv) == 2
        err = _stderr_error(capsys)
        assert err["error"] == "ConfigError"
        assert err["message"] == f"unknown config key {key!r}"


@pytest.mark.parametrize("tree, message", [
    ({"output": 5}, "output: expected a directory path, got 5"),
    ({"output": None}, "output: expected a directory path, got None"),
    ({"sampler": None}, "config section 'sampler' must be a mapping"),
    ({"maintenance_durations": {"up": "x"}},
     "bad value 'x' for 'maintenance_durations.up'"),
    ([1, 2], "config section '<root>' must be a mapping"),
])
def test_bad_yaml_value_exits_2_naming_its_key(tmp_path, capsys, no_river,
                                               tree, message):
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(tree))
    assert main(["solve", "--config", str(config)]) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(message)


def test_every_spelling_of_a_setting_fills_the_same_config(tmp_path,
                                                           monkeypatch):
    seen = []
    monkeypatch.setitem(hydrosp.cli._COMMANDS, "solve",
                        lambda cfg: seen.append(cfg) or 0)
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps({
        "model": "capacity", "horizon_days": 3, "output": "o",
        "solver": {"groups": 1}, "maintenance_durations": {"up": 2}}))
    for pairs in (["--config", str(config)],
                  ["--model", "capacity", "--horizon-days", "3", "--output",
                   "o", "--solver.groups", "1", "--maintenance_durations.up",
                   "2"],
                  ["--model=capacity", "--horizon_days=3", "--output=o",
                   "--solver.groups=1", "--maintenance-durations.up=2"],
                  # the file first, then the pairs in order
                  ["--horizon-days", "5", "--config", str(config),
                   "--horizon_days", "4", "--horizon-days=3"]):
        assert main(["solve"] + pairs) == 0
    assert (seen[0].model, seen[0].horizon_days) == ("capacity", 3)
    assert all(cfg == seen[0] for cfg in seen)


def test_a_hash_is_kept_when_quoted_and_file_comments_stay_legal(tmp_path):
    # a command-line value holding ' #' must be quoted (see
    # test_invalid_setting_fails_before_any_work); one without the space
    # is plain YAML text, and the config file may hold comments
    for value, output in (('"runs/a #2"', "runs/a #2"),
                          ("'runs/a #2'", "runs/a #2"),
                          ("runs/a#2", "runs/a#2")):
        assert _config(tmp_path, overrides=["--output", value]).output == \
            output
    config = tmp_path / "commented.yaml"
    config.write_text("# the runs of one day\nhorizon_days: 1  # a day\n"
                      "output: 'runs/a #2'\n")
    cfg = ExperimentConfig.from_sources(str(config), [])
    assert (cfg.horizon_days, cfg.output) == (1, "runs/a #2")


def test_a_dashed_plant_id_is_kept_as_given(tmp_path):
    cfg = _config(tmp_path, overrides=["--maintenance-durations.up-1", "2",
                                       "--maintenance_durations.up_2", "3"])
    assert cfg.maintenance_durations == {"up-1": 2, "up_2": 3}


@pytest.mark.parametrize("argv", [["--scenarios", "3", "solve"],
                                  ["--scenarios=3", "solve"],
                                  ["--config", "config.yaml", "solve"]])
def test_an_option_before_the_command_exits_2(capsys, no_river, argv):
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (2, "ConfigError")


def test_unknown_maintenance_plant_exits_2_before_the_model_is_built(
        capsys, monkeypatch, river):
    def no_model(*args, **kwargs):
        raise AssertionError("model built before the plant ids were checked")

    monkeypatch.setattr("hydrosp.cli.sample_day_ahead_set", no_model)
    monkeypatch.setattr("hydrosp.cli.build_maintenance", no_model)
    argv = ["solve", "--model", "maintenance", "--river", str(river),
            "--maintenance_durations.nosuch", "3"]
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"] == ("maintenance_durations.nosuch: no plant "
                              "'nosuch' on the river")


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


def _slack_basis_value(fp, x):
    """The expected objective of x from a slack-basis solve of every
    scenario: ``solve_lp`` given no basis, so no model start basis."""
    sign = fp.program.sign
    cold = [solve_lp(_stage_lp(st, x, sign)) for st in scenario_stages(fp)]
    assert not any(s.warm_started for s in cold)
    cx = float(fp.program.first_stage.c @ x)
    return float(fp.probabilities @ [cx + sign * s.objective for s in cold])


def _check_objective(first, second, fp, x):
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "evaluate"
    assert payload["objective"] == pytest.approx(evaluate_decision(fp, x),
                                                 rel=1e-9)
    assert payload["objective"] == pytest.approx(_slack_basis_value(fp, x),
                                                 rel=1e-9)
    # scenario 0 starts from the model's start basis, and every other
    # scenario from, or settled at, scenario 0's final basis
    sols = _stage_values(fp, scenario_stages(fp), x)
    assert payload["warm_starts"] == fp.n_scenarios
    assert payload["lp_iterations"] == sum(s.iterations for s in sols) > 0
    assert payload["factorizations"] == sum(s.factorizations for s in sols)
    assert payload["bunched"] == bunched(sols)


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


def _capacity(tmp_path, river, command, out, extra=()):
    argv = [command, "--river", str(river), "--output",
            str(tmp_path / out)] + CAPACITY + list(extra)
    return main(argv), tmp_path / out


def test_capacity_solve_evaluate_round_trip(tmp_path, river, monkeypatch):
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 0
    solved = json.loads((a / "objective.json").read_text())
    assert solved["converged"]

    evaluated_at = []

    def spy(fp, x):
        evaluated_at.append((fp, x))
        return scenario_solutions(fp, x)

    monkeypatch.setattr("hydrosp.cli.scenario_solutions", spy)
    code, e = _capacity(tmp_path, river, "evaluate", "e",
                        ["--evaluate.expansion", str(a / "expansion.csv")])
    assert code == 0
    evaluated = json.loads((e / "objective.json").read_text())
    assert evaluated["objective"] == pytest.approx(solved["objective"],
                                                   rel=1e-9)
    assert evaluated["objective"] == pytest.approx(
        _slack_basis_value(*evaluated_at[0]), rel=1e-9)
    # all 3 scenarios: scenario 0 from the model's start basis
    assert evaluated["warm_starts"] == 3
    code, e2 = _capacity(tmp_path, river, "evaluate", "e2",
                         ["--evaluate.expansion", str(a / "expansion.csv")])
    assert code == 0
    assert (e / "objective.json").read_bytes() == \
        (e2 / "objective.json").read_bytes()

    code, b = _capacity(tmp_path, river, "solve", "b")
    assert code == 0
    for name in ("objective.json", "expansion.csv", "schedule.csv",
                 "iterations.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    with open(a / "timings.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "wall_time_ms", "subproblem_iterations",
                       "master_iterations", "pool_size", "bunched"]
    assert [int(r[0]) for r in rows[1:]] == list(
        range(1, solved["iterations"] + 1))
    assert all(float(r[1]) >= 0.0 for r in rows[1:])


def test_iteration_log_write(tmp_path):
    log = lshaped_solve(random_two_stage(np.random.default_rng(0),
                                         n_scen=3)).log
    hydrosp.cli._write_logs(tmp_path, log)
    for name, columns in hydrosp.cli._LOG_FILES.items():
        with open(tmp_path / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(columns)
        assert rows[1:] == [[str(getattr(r, c)) for c in columns]
                            for r in log]


def test_maintenance_round_trip_without_maintained_plants(tmp_path, river):
    # no plant is maintained, so the schedule file holds only its header
    common = ["--model", "maintenance", "--river", str(river), "--scenarios",
              str(N_SCENARIOS), "--maintenance_durations.up", "0"]
    solved_dir, evaluated_dir = tmp_path / "s", tmp_path / "e"
    assert main(["solve", "--output", str(solved_dir)] + common) == 0
    solved = json.loads((solved_dir / "objective.json").read_text())
    assert solved["converged"]
    schedule = solved_dir / "schedule.csv"
    assert schedule.read_text().splitlines()[-1] == "plant_id,period,on"
    assert main(["evaluate", "--output", str(evaluated_dir),
                 "--evaluate.strategy", str(solved_dir / "strategy.csv"),
                 "--evaluate.schedule", str(schedule)] + common) == 0
    evaluated = json.loads((evaluated_dir / "objective.json").read_text())
    assert evaluated["objective"] == pytest.approx(solved["objective"],
                                                   rel=1e-6)


def test_capacity_solve_writes_work_counts_to_timings(tmp_path, river,
                                                      monkeypatch):
    masters = []
    solve_lp = hydrosp.lshaped.solve_lp

    def master(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        masters.append((sol.iterations, sol.warm_started))
        return sol

    monkeypatch.setattr(hydrosp.lshaped, "solve_lp", master)
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 0
    with open(a / "iterations.csv") as fh:
        log = list(csv.DictReader(fh))
    with open(a / "timings.csv") as fh:
        timings = list(csv.DictReader(fh))
    # the deterministic log keeps its columns; the counts go to timings.csv
    assert list(log[0]) == ["iteration", "master_objective",
                            "expected_recourse", "gap", "cuts_added"]
    assert list(timings[0]) == ["iteration", "wall_time_ms",
                                "subproblem_iterations", "master_iterations",
                                "pool_size", "bunched"]
    assert len(timings) == len(log) > 1
    pool = 0
    for row, counts in zip(log, timings):
        pool += int(row["cuts_added"])
        assert int(counts["pool_size"]) == pool
        # scenario 0 always goes to the kernel; the other two may bunch
        assert 0 <= int(counts["bunched"]) <= 2
    # the counts are pivots: iteration 1 starts scenario 0 cold, so it
    # pivots; later iterations restart each scenario from its previous
    # basis, and one restarted at its optimal basis moves none
    first = int(timings[0]["subproblem_iterations"])
    assert first > 0
    assert all(0 <= int(r["subproblem_iterations"]) < first
               for r in timings[1:])
    # each master's pivots, as its solve reports them; every master after
    # the first starts from the basis the one before it ended in, and the
    # new cuts it must satisfy take pivots
    assert [int(r["master_iterations"]) for r in timings] == \
        [i for i, _ in masters]
    assert [w for _, w in masters] == [False] + [True] * (len(masters) - 1)
    assert all(int(r["master_iterations"]) > 0 for r in timings[1:])


def test_inflow_that_does_not_fit_the_river_exits_2(tmp_path, river,
                                                   monkeypatch, capsys):
    sample = hydrosp.cli.sample_capacity_horizon

    def short(config, network, days, resolution, index=0, **kwargs):
        s = sample(config, network, days, resolution, index, **kwargs)
        if index == 2:
            # one period short of the 4 six-hour periods of the horizon
            s = ScenarioSample(s.price, s.inflow[:3])
        return s

    monkeypatch.setattr(hydrosp.cli, "sample_capacity_horizon", short)
    code, _ = _capacity(tmp_path, river, "solve", "a")
    assert code == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (2, "ValueError")
    assert err["message"].startswith(
        "scenario 2: inflow has shape (3, 2), expected (>=4, 2)")


def test_evaluate_solves_each_scenario_once(tmp_path, river, monkeypatch):
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 0
    calls = []
    solve_lp = hydrosp.core.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(hydrosp.core, "solve_lp", counting)
    code, e = _capacity(tmp_path, river, "evaluate", "e",
                        ["--evaluate.expansion", str(a / "expansion.csv")])
    assert code == 0
    # the scenarios not settled at scenario 0's basis are solved once each
    evaluated = json.loads((e / "objective.json").read_text())
    assert len(calls) + evaluated["bunched"] == 3


def test_failed_subproblem_exits_3(tmp_path, river, monkeypatch, capsys):
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 0
    capsys.readouterr()
    monkeypatch.setattr(hydrosp.core, "solve_lp",
                        lambda *args, **kwargs: LpSolution("limit"))
    code, _ = _capacity(tmp_path, river, "evaluate", "e",
                        ["--evaluate.expansion", str(a / "expansion.csv")])
    assert code == 3
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (3, "RuntimeError")
    assert "scenario 0" in err["message"]


def test_master_at_a_limit_exits_3_naming_its_causes(tmp_path, river,
                                                     monkeypatch, capsys):
    # the LP master of iteration 2 stops short, as solve_lp reports an
    # iteration limit, a singular basis or a failed certificate
    calls = []
    master_solve = hydrosp.lshaped.solve_lp

    def limited(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            return LpSolution(LIMIT)
        return master_solve(*args, **kwargs)

    monkeypatch.setattr(hydrosp.lshaped, "solve_lp", limited)
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 3 and len(calls) == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (3, "RuntimeError")
    message = err["message"]
    assert message.startswith("master problem stopped at a limit at "
                              "iteration 2: ")
    for cause in ("iteration limit", "singular basis", "certificate",
                  "hydrosp.lp"):
        assert cause in message
    assert "empty or unbounded" not in message


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(hydrosp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import hydrosp.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, check=True)


def test_nonconvergence_exits_1_and_writes_artifacts(tmp_path, river,
                                                     capsys):
    code, a = _capacity(tmp_path, river, "solve", "a",
                        ["--solver.max_iterations", "1"])
    assert code == 1
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (1, "NonConvergenceError")
    payload = json.loads((a / "objective.json").read_text())
    assert not payload["converged"] and payload["iterations"] == 1
    for name in ("expansion.csv", "schedule.csv", "iterations.csv",
                 "timings.csv"):
        assert (a / name).exists(), name


def test_capacity_saa_reruns_identically(tmp_path, river):
    extra = ["--saa.schedule", "[3]", "--saa.M", "2", "--saa.T", "2",
             "--saa.eval_n", "4"]
    code, a = _capacity(tmp_path, river, "saa", "a", extra)
    assert code == 0
    code, b = _capacity(tmp_path, river, "saa", "b", extra)
    assert code == 0
    for name in ("objective.json", "intervals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    payload = json.loads((a / "objective.json").read_text())
    assert payload["history_N"] == [3]


def test_infinite_config_values_are_accepted(tmp_path, river):
    code, a = _capacity(tmp_path, river, "solve", "a",
                        ["--capacity.unit_cost", "inf"])
    assert code == 0
    with open(a / "expansion.csv") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["plant_id", "delta_p_mw", "delta_q_m3s"]
    assert [r[0] for r in rows[1:]] == ["up", "dn"]
    assert all(float(v) == 0.0 for r in rows[1:] for v in r[1:])


def test_water_value_cuts_read_back_and_rerun_identically(tmp_path, river):
    argv = ["water-value", "--river", str(river),
            "--water_value.scenarios", "1",
            "--water_value.horizon_hours", "24"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    pool = WaterValuePool.from_csv(a / "cuts.csv")
    assert pool.plant_ids == tuple(load_river(river).plant_ids)
    payload = json.loads((a / "objective.json").read_text())
    assert payload["cuts"] == len(pool)
    for name in ("cuts.csv", "objective.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_failed_anchor_exits_1(tmp_path, river, monkeypatch, capsys):
    # the L-shaped run succeeds; every anchor solve after it fails
    watervalue = hydrosp.models.watervalue
    lshaped_solve = watervalue.lshaped_solve

    def then_fail(*args, **kwargs):
        result = lshaped_solve(*args, **kwargs)
        monkeypatch.setattr(hydrosp.core, "solve_lp",
                            lambda *args, **kwargs: LpSolution("limit"))
        return result

    monkeypatch.setattr(watervalue, "lshaped_solve", then_fail)
    code = main(["water-value", "--river", str(river),
                 "--water_value.scenarios", "1",
                 "--water_value.horizon_hours", "24",
                 "--output", str(tmp_path / "a")])
    assert code == 1
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (1, "WaterValueError")
    assert "anchor subproblem failed at grid point" in err["message"]
    assert "scenario 0: subproblem solve failed (limit)" in err["message"]
    assert not (tmp_path / "a" / "cuts.csv").exists()


@pytest.mark.parametrize("body, message", [
    ("0,1.5,2.0,-0.25\n1,-3.0,0.1\n", "line 4: 3 columns"),
    ("", "no cut rows"),
])
def test_malformed_cut_file_exits_2(tmp_path, river, capsys, body, message):
    cuts = tmp_path / "cuts.csv"
    cuts.write_text("# units\ncut_id,intercept,slope_up,slope_dn\n" + body)
    code = main(["solve", "--river", str(river), "--scenarios", "2",
                 "--output", str(tmp_path / "a"),
                 "--water_value.cuts", str(cuts)])
    assert code == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (2, "ValueError")
    assert err["message"].startswith(str(cuts))
    assert message in err["message"]


def _orders(path, drop=None):
    """Write a day-ahead strategy of 24 hours and 5 levels, less the rows
    that start with drop, to path; return its line count."""
    DayAheadStrategy(xi=np.zeros(24), xd=np.zeros((5, 24)),
                     xb=np.zeros((5, 0)), level_values=np.zeros((5, 24)),
                     blocks=()).to_csv(path)
    lines = [line for line in path.read_text().splitlines(keepends=True)
             if drop is None or not line.startswith(drop)]
    path.write_text("".join(lines))
    return len(lines)


PLAN = "# units\nplant_id,delta_p_mw,delta_q_m3s\n"
ORDERS = "order_type,period,level,price,volume\n"
WINDOWS = "plant_id,period,on\n"


@pytest.mark.parametrize("model, key, body, message", [
    ("capacity", "expansion", "", "line 1: expected a header with the "
     "columns ['plant_id', 'delta_p_mw', 'delta_q_m3s']"),
    ("capacity", "expansion", PLAN, "line 2: no plant rows below the header"),
    ("capacity", "expansion", PLAN + "up,1.0\n",
     "line 3: 2 columns, the header has 3"),
    ("capacity", "expansion", PLAN + "up,1.0,x\n",
     "line 3: could not convert string to float: 'x'"),
    ("day-ahead", "strategy", ORDERS + "limit,0,,,1.0\n",
     "line 2: unknown order type 'limit'"),
    ("day-ahead", "strategy", ORDERS + "dependent,0,,5.0,1.0\n",
     "line 2: invalid literal for int() with base 10: ''"),
    ("maintenance", "schedule", WINDOWS + "up,0,2\n",
     "line 2: on must be 0 or 1, got 2"),
    ("maintenance", "schedule", WINDOWS + "up,0,1\nup,2,0\n",
     "line 3: the file ends without the (plant_id, period) row ('up', 1)"),
    # a repeated row is refused by each reader
    ("capacity", "expansion", PLAN + "up,1.0,2.0\ndn,0,0\nup,1.0,2.0\n",
     "line 5: repeats the plant row up"),
    ("day-ahead", "strategy",
     ORDERS + "independent,0,,,1.0\nindependent,0,,,7.0\n",
     "line 3: repeats the independent period row 0"),
    ("maintenance", "schedule", WINDOWS + "up,0,1\nup,1,1\nup,0,0\n",
     "line 4: repeats the (plant_id, period) row ('up', 0)"),
    # the rows of a block agree on its window, and each block level is a
    # dependent level
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,0,0,5.0,1.0\nblock_0_1,0,0,,2.0\nblock_0_2,0,1,,3.0\n",
     "line 5: block 0 has the window (0, 2), an earlier row gave (0, 1)"),
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,0,0,5.0,1.0\nblock_0_1,0,0,,2.0\nblock_0_1,0,1,,3.0\n",
     "line 5: block level 1 has no dependent level: the dependent rows give "
     "the levels below 1"),
    # a negative period, level or block index is refused at its own line
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,0,-1,4.0,9.0\ndependent,0,0,5.0,1.0\n",
     "line 3: level -1 is negative"),
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,-1,0,4.0,9.0\ndependent,0,0,5.0,1.0\n",
     "line 3: period -1 is negative"),
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,0,0,5.0,1.0\nblock_0_1,-1,0,,7.0\nblock_0_1,0,0,,2.0\n",
     "line 4: period -1 is negative"),
    ("day-ahead", "strategy", ORDERS + "independent,0,,,1.0\n"
     "dependent,0,0,5.0,1.0\nblock_-1_1,0,0,,2.0\n",
     "line 4: block window (-1, 1) starts before period 0"),
    ("day-ahead", "strategy",
     ORDERS + "independent,-1,,,1.0\nindependent,0,,,1.0\n",
     "line 2: period -1 is negative"),
    ("maintenance", "schedule", WINDOWS + "up,-1,1\nup,0,1\nup,1,0\n",
     "line 2: period -1 is negative"),
])
def test_bad_decision_file_exits_2_naming_the_file_and_line(
        tmp_path, river, capsys, no_river, model, key, body, message):
    path = tmp_path / f"{key}.csv"
    path.write_text(body)
    argv = ["evaluate", "--model", model, "--river", str(river),
            f"--evaluate.{key}", str(path)]
    if key == "schedule":
        _orders(tmp_path / "strategy.csv")
        argv += ["--evaluate.strategy", str(tmp_path / "strategy.csv")]
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (2, "ValueError")
    assert err["message"] == f"{path}, {message}"


def test_truncated_strategy_exits_2_naming_the_missing_row(tmp_path, river,
                                                          capsys, no_river):
    path = tmp_path / "strategy.csv"
    end = _orders(path, drop="dependent,3,")
    argv = ["evaluate", "--river", str(river), "--evaluate.strategy",
            str(path)]
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert (err["code"], err["error"]) == (2, "ValueError")
    assert err["message"] == (f"{path}, line {end}: the file ends without "
                              "the dependent (level, period) row (0, 3)")
