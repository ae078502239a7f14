"""The program surface that the benchmark under ``bench/`` relies on.

The benchmark's files stay fixed while the program changes, so a refactor
that drops one of these names or behaviours would otherwise show only as a
failed benchmark run.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hydrosp import core, hydro, lp, lshaped, models, scenarios
from hydrosp.backend import backend_choice
from _toys import capacity_toy, day_ahead_toy, maintenance_toy, two_plant

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_workload_imports_exist():
    # bench/workloads.py and bench/run.py
    for module, names in (
            (core, ("FiniteProgram", "scenario_values", "solve_deterministic",
                    "scenario_stages", "build_deterministic_equivalent")),
            (lshaped, ("solve",)),
            (hydro, ("default_river", "RiverNetwork", "Resolution")),
            (models, ("build_day_ahead", "build_capacity",
                      "build_maintenance", "CostParams", "WaterValuePool",
                      "total_capacity")),
            (scenarios, ("SamplerConfig", "DEFAULT_PRICE_PROFILE",
                         "default_blocks", "price_levels",
                         "sample_capacity_horizon", "sample_day_ahead_set"))):
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert isinstance(backend_choice(), str)


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_exists():
    # bench/spans.py rebinds these module attributes for --trace 1 only,
    # so a renamed one would otherwise fail only in a traced benchmark run
    targets = _bench_spans()._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


def test_program_with_a_replaced_second_stage_solves():
    # bench/spans.py wraps the second-stage builder with dataclasses.replace
    _, fp = capacity_toy(n_scen=2)
    seen = []

    def second_stage(sample):
        seen.append(sample)
        return fp.program.second_stage(sample)

    program = dataclasses.replace(fp.program, second_stage=second_stage)
    res = core.solve_deterministic(
        core.FiniteProgram(program, fp.scenarios, fp.probabilities))
    assert seen and res.objective == pytest.approx(
        core.solve_deterministic(fp).objective)


def test_price_levels_have_a_horizon():
    # bench/workloads.py blocks the day-ahead bid by levels.horizon
    samples = scenarios.sample_day_ahead_set(
        scenarios.SamplerConfig(seed=3), two_plant(), 3)
    assert scenarios.price_levels(samples, 5).horizon == 24


def test_backend_choice_reports_the_lp_solver():
    # bench/run.py records backend_choice(); the program names its LP
    # backend once, in lp.SOLVER
    assert backend_choice() == lp.SOLVER == "numpy"


def test_oracle_gets_dense_arrays():
    # bench/oracle.py rebuilds each subproblem from a stage and hands the
    # dense A of it, and of the deterministic equivalent, to scipy
    model, fp = day_ahead_toy()
    x = np.zeros(fp.program.first_stage.nvars)
    x[model.layout.xi(0)] = 2.0
    for st in core.scenario_stages(fp):
        rhs = st.h - st.T @ x
        assert isinstance(rhs, np.ndarray) and rhs.shape == (st.nrows,)
        sub = lp.LinearProgram(fp.program.sign * st.q, st.W, st.senses, rhs,
                               st.lb, st.ub)
        assert isinstance(sub.A, np.ndarray)
        assert sub.A.shape == (sub.nrows, sub.nvars)
        rows = sub.senses != 0
        assert np.array_equal(sub.A[rows], st.W.dense()[rows])
    _, maint = maintenance_toy(n_scen=2)
    de = core.build_deterministic_equivalent(maint)
    assert isinstance(de.lp.A, np.ndarray)
    assert de.lp.A.shape == (de.lp.nrows, de.lp.nvars)
    assert de.binaries and de.sign == -1.0


def test_rebound_call_sites_see_every_layer_call(monkeypatch):
    # bench/spans.py traces the layers by rebinding these module attributes
    # and reads rows, cols, status, iterations and nodes off the calls
    sites = [(core, "solve_stage"), (core, "solve_lp"), (core, "solve_mbp"),
             (core, "build_deterministic_equivalent"),
             (lshaped, "solve_lp"), (lshaped, "solve_mbp"),
             (lp, "solve_lp")]
    calls = {}
    for module, attr in sites:
        key = f"{module.__name__}.{attr}"
        calls[key] = 0

        def traced(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            out = _fn(*args, **kwargs)
            if _key.endswith("_lp") or _key.endswith("_mbp"):
                assert args[0].nrows >= 0 and args[0].nvars > 0
                assert out.status and out.iterations >= 0 and out.nodes >= 0
            elif _key.endswith("equivalent"):
                assert out.lp.nrows > 0 and out.lp.nvars > 0
            return out
        monkeypatch.setattr(module, attr, traced)

    model, day = day_ahead_toy()
    core.scenario_values(day, np.zeros(day.program.first_stage.nvars))
    _, cap = capacity_toy(n_scen=2)
    lshaped.solve(cap)
    core.solve_deterministic(cap)
    _, maint = maintenance_toy(n_scen=2)
    core.solve_deterministic(maint)
    lshaped.solve(maint, lshaped.LShapedConfig(max_iterations=2))
    assert all(calls.values()), calls


def test_branch_and_bound_solves_one_lp_per_node(monkeypatch):
    # bench/spans.py takes lp.mbp.nodes from the core.solve_mbp span and
    # lp.mbp.iters from the lp.solve_lp spans under it: one per node, and
    # one more for the warm probe when the caller hands a warm point
    runs = []                     # (nodes, warm handed, lp.solve_lp calls)
    open_calls = []

    def mbp_site(fn):
        def traced(*args, **kwargs):
            open_calls.append(0)
            out = fn(*args, **kwargs)
            runs.append((out.nodes, kwargs.get("warm") is not None,
                         open_calls.pop()))
            return out
        return traced

    def counted(*args, _fn=lp.solve_lp, **kwargs):
        if open_calls:
            open_calls[-1] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    for module in (core, lshaped):
        monkeypatch.setattr(module, "solve_mbp", mbp_site(module.solve_mbp))
    _, maint = maintenance_toy(n_scen=2)
    core.solve_deterministic(maint)
    lshaped.solve(maint, lshaped.LShapedConfig(max_iterations=3))
    assert {warm for _, warm, _ in runs} == {False, True}
    for nodes, warm, calls in runs:
        assert nodes >= 1 and calls == nodes + warm
