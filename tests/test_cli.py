"""Command-line runner on a two-plant river written to disk: config
errors, ``evaluate`` on the market models, and ``solve``, ``evaluate`` and
``saa`` on a small capacity model."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hydrosp
import hydrosp.core
import hydrosp.models.watervalue
from hydrosp.cli import main
from hydrosp.core import (FiniteProgram, _stage_values, bunched,
                          evaluate_decision, scenario_stages)
from hydrosp.hydro import load_river
from hydrosp.lp import LpSolution
from hydrosp.models import (DayAheadStrategy, MaintenanceSchedule,
                            WaterValuePool, build_day_ahead,
                            build_maintenance, total_capacity)
from hydrosp.scenarios import (SamplerConfig, default_blocks, price_levels,
                               sample_day_ahead_set)

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
    (["--solver.workers", "0"], "solver: workers"),
    (["--solver.gap_tol", "nan"], "solver: gap_tol"),
    (["--solver.workers", "-2"], "solver: workers"),
])
def test_invalid_setting_fails_before_any_work(capsys, monkeypatch, river,
                                               override, where):
    def no_water_value(*args, **kwargs):
        raise AssertionError("water values computed before config checks")

    monkeypatch.setattr("hydrosp.cli.compute_water_value", no_water_value)
    assert main(["solve", "--river", str(river)] + override) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(where)


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
    # every scenario after the first starts from, or is settled at,
    # scenario 0's basis
    sols = _stage_values(fp, scenario_stages(fp), x)
    assert payload["warm_starts"] == fp.n_scenarios - 1
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


def test_capacity_solve_evaluate_round_trip(tmp_path, river):
    code, a = _capacity(tmp_path, river, "solve", "a")
    assert code == 0
    solved = json.loads((a / "objective.json").read_text())
    assert solved["converged"]

    code, e = _capacity(tmp_path, river, "evaluate", "e",
                        ["--evaluate.expansion", str(a / "expansion.csv")])
    assert code == 0
    evaluated = json.loads((e / "objective.json").read_text())
    assert evaluated["objective"] == pytest.approx(solved["objective"],
                                                   rel=1e-9)
    assert evaluated["warm_starts"] == 2
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
                       "pool_size", "bunched"]
    assert [int(r[0]) for r in rows[1:]] == list(
        range(1, solved["iterations"] + 1))
    assert all(float(r[1]) >= 0.0 for r in rows[1:])


def test_capacity_solve_writes_work_counts_to_timings(tmp_path, river):
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
                                "subproblem_iterations", "pool_size",
                                "bunched"]
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
