"""The program surface that the benchmark under ``bench/`` relies on.

The benchmark's files stay fixed while the program changes, so a refactor
that drops one of these names or behaviours would otherwise show only as a
failed benchmark run.
"""

import numpy as np

from hydrosp import core, hydro, lp, lshaped, models, scenarios
from hydrosp.backend import backend_choice
from _toys import capacity_toy, day_ahead_toy, maintenance_toy


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
