"""Two-stage containers, deterministic equivalent, and evaluation."""

from dataclasses import replace
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hydrosp
from hydrosp import _simplex, core
from hydrosp._simplex import REFACTOR_AGE
from hydrosp.core import (FirstStage, SecondStage, TwoStageProgram,
                          FiniteProgram, _stage_values,
                          build_deterministic_equivalent,
                          solve_deterministic, evaluate_decision,
                          scenario_values, scenario_stages,
                          expected_scenario, solve_expected_value_problem,
                          check_first_stage_feasible)
from hydrosp.lp import LinearProgram, SparseMatrix, _certificate
from _toys import (simple_recourse, random_two_stage, scen, day_ahead_toy,
                   maintenance_toy, capacity_toy, rhs_chain)


def test_two_point_recourse_optimum():
    # min x + E[(h - x)+] with h in {1, 3} is flat at 2 on x in [0, 1]
    fp = simple_recourse([1.0, 3.0])
    sol = solve_deterministic(fp)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert evaluate_decision(fp, np.array([1.0])) == pytest.approx(2.0,
                                                                   abs=1e-9)
    assert evaluate_decision(fp, np.array([0.0])) == pytest.approx(2.0,
                                                                   abs=1e-9)
    assert evaluate_decision(fp, np.array([3.0])) == pytest.approx(3.0,
                                                                   abs=1e-9)


def test_probability_defaults_and_validation():
    fp = simple_recourse([1.0, 3.0])
    assert fp.probabilities == pytest.approx([0.5, 0.5])
    assert fp.n_scenarios == 2
    with pytest.raises(ValueError, match="sum"):
        simple_recourse([1.0, 3.0], probs=[2.0, 6.0])
    with pytest.raises(ValueError, match="non-negative"):
        simple_recourse([1.0, 3.0], probs=[-0.5, 1.5])
    with pytest.raises(ValueError, match="count"):
        simple_recourse([1.0, 3.0], probs=[1.0])


def test_single_scenario_collapses_to_lp():
    fp = simple_recourse([2.0])
    de = build_deterministic_equivalent(fp)
    # one x, one y, one linking row
    assert de.lp.nvars == 2
    assert de.lp.nrows == 1
    sol = solve_deterministic(fp)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_deterministic_equivalent_layout(rng):
    fp = random_two_stage(rng, n1=2, n2=3, m2=2, n_scen=4)
    de = build_deterministic_equivalent(fp)
    n2 = de.stages[0].nvars
    assert de.n_first == 2
    assert de.lp.nvars == 2 + 4 * n2
    assert de.lp.nrows == 0 + 4 * de.stages[0].nrows
    # scenario blocks must not overlap
    assert list(de.y_offsets) == [2 + k * n2 for k in range(4)]


def test_evaluate_decision_at_optimizer_matches_optimum(rng):
    for sense in ("min", "max"):
        for _ in range(5):
            fp = random_two_stage(rng, sense=sense)
            sol = solve_deterministic(fp)
            val = evaluate_decision(fp, sol.x)
            assert val == pytest.approx(sol.objective, abs=1e-7, rel=1e-7)


def test_evaluate_decision_never_beats_optimum(rng):
    for sense, better in (("min", 1.0), ("max", -1.0)):
        for _ in range(8):
            fp = random_two_stage(rng, sense=sense)
            sol = solve_deterministic(fp)
            fs = fp.program.first_stage
            x = fs.lb + rng.uniform(0.0, 1.0, fs.nvars) * (fs.ub - fs.lb)
            gap = better * (evaluate_decision(fp, x) - sol.objective)
            assert gap >= -1e-7 * (1.0 + abs(sol.objective))


def test_scenario_values_weighting(rng):
    fp = random_two_stage(rng, n_scen=3)
    x = np.full(2, 0.5)
    vals = scenario_values(fp, x)
    assert vals.shape == (3,)
    assert evaluate_decision(fp, x) == pytest.approx(
        float(fp.probabilities @ vals), abs=1e-12)


def test_max_sense_flips_sign_consistently():
    lo = simple_recourse([1.0, 3.0], sense="min")
    # same data as a maximization of -(x + y): optimum is -2
    fs = lo.program.first_stage
    neg = FirstStage(c=-fs.c, A=fs.A, senses=fs.senses, b=fs.b,
                     lb=fs.lb, ub=fs.ub)

    def second(h):
        st = lo.program.second_stage(h)
        return SecondStage(q=-st.q, T=st.T, W=st.W, senses=st.senses,
                           h=st.h, lb=st.lb, ub=st.ub)

    hi = FiniteProgram(TwoStageProgram(neg, second, sense="max"),
                       lo.scenarios)
    assert solve_deterministic(hi).objective == pytest.approx(-2.0,
                                                              abs=1e-9)


# ------------------------------------------------------- fixed recourse

_STAGE_PROGRAMS = {
    "day_ahead": lambda: day_ahead_toy()[1],
    "maintenance": lambda: maintenance_toy(n_scen=3)[1],
    "capacity": lambda: capacity_toy(n_scen=3)[1],
    "random": lambda: random_two_stage(np.random.default_rng(7), n_scen=4),
}


@pytest.mark.parametrize("name", sorted(_STAGE_PROGRAMS))
def test_stages_share_one_read_only_w(name):
    fp = _STAGE_PROGRAMS[name]()
    stages = scenario_stages(fp)
    assert len(stages) == fp.n_scenarios >= 3
    for st in stages:
        assert st.W is stages[0].W
        for arr in (st.W.start, st.W.index, st.W.value):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


@pytest.mark.parametrize("name", sorted(_STAGE_PROGRAMS))
def test_shared_stages_equal_direct_blocks(name):
    fp = _STAGE_PROGRAMS[name]()
    for s, st in zip(fp.scenarios, scenario_stages(fp)):
        direct = fp.program.second_stage(s)
        for attr in ("q", "T", "W", "h", "lb", "ub"):
            assert np.array_equal(getattr(st, attr), getattr(direct, attr)), \
                attr
        assert st.senses == direct.senses


# ------------------------------------------------ chained warm starts

@pytest.fixture(scope="module")
def chained_cases():
    """{name: (fp, x, cold solutions, chained solutions)}; x is the
    first stage's lower bounds where feasible, else the EV decision."""
    out = {}
    for name, make in _STAGE_PROGRAMS.items():
        fp = make()
        x = fp.program.first_stage.lb
        try:
            check_first_stage_feasible(fp.program.first_stage, x)
        except ValueError:
            x = solve_expected_value_problem(fp)
        stages = scenario_stages(fp)
        out[name] = (fp, x, _stage_values(fp, stages, x, chain=False),
                     _stage_values(fp, stages, x))
    return out


@pytest.mark.parametrize("name", sorted(_STAGE_PROGRAMS))
def test_chained_scenario_values_equal_cold(chained_cases, name):
    fp, x, cold, warm = chained_cases[name]
    assert [s.warm_started for s in cold] == [False] * fp.n_scenarios
    assert [s.warm_started for s in warm] == \
        [False] + [True] * (fp.n_scenarios - 1)
    for c, w in zip(cold, warm):
        assert w.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)
    cx = float(fp.program.first_stage.c @ x)
    want = [cx + fp.program.sign * c.objective for c in cold]
    serial = scenario_values(fp, x)
    assert serial == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert scenario_values(fp, x, workers=2) == pytest.approx(
        serial, rel=1e-9, abs=1e-9)


def test_chaining_saves_iterations_on_day_ahead(chained_cases):
    _, _, cold, warm = chained_cases["day_ahead"]
    assert warm[0].iterations == cold[0].iterations
    assert sum(s.iterations for s in warm) < sum(s.iterations for s in cold)


def test_parallel_chunks_are_chained_in_order():
    fp = random_two_stage(np.random.default_rng(3), n_scen=5)
    x = solve_deterministic(fp).x
    sols = _stage_values(fp, scenario_stages(fp), x, workers=2)
    # chunks [0, 1, 2] and [3, 4]: each starts cold
    assert [s.warm_started for s in sols] == [False, True, True, False, True]


def test_returned_solutions_carry_no_inverse(monkeypatch):
    fp = rhs_chain(np.random.default_rng(4), 8, 6, 5, 0.5)
    x = fp.program.first_stage.lb
    stages = scenario_stages(fp)
    runs = [_stage_values(fp, stages, x),
            _stage_values(fp, stages, x, chain=False),
            _stage_values(fp, stages, x, workers=2)]
    seen = []

    def spy(*args, **kwargs):
        seen.append(stage_values(*args, **kwargs))
        return seen[-1]

    stage_values = core._stage_values
    monkeypatch.setattr(core, "_stage_values", spy)
    scenario_values(fp, x)
    for sols in runs + seen:
        assert len(sols) == fp.n_scenarios
        assert all(s.basis.inverse is None and s.basis.age == 0
                   for s in sols)


def test_chain_holds_one_inverse_at_a_time(monkeypatch):
    # a chained solve updates the inverse it is handed in place, so only a
    # refactorization makes a new one; refactoring after every pivot gives
    # each solve that pivots its own, and a chain that kept them would hold N
    monkeypatch.setattr(_simplex, "REFACTOR_AGE", 1)
    n = 10
    fp = rhs_chain(np.random.default_rng(5), 80, 10, n, 0.1, density=0.3)
    x = fp.program.first_stage.lb

    def peak(k):
        sub = FiniteProgram(fp.program, fp.scenarios[:k])
        stages = scenario_stages(sub)
        tracemalloc.start()
        try:
            sols = _stage_values(sub, stages, x)
            return tracemalloc.get_traced_memory()[1], sols
        finally:
            tracemalloc.stop()

    single, _ = peak(1)
    chain, sols = peak(n)
    assert [s.warm_started for s in sols] == [False] + [True] * (n - 1)
    assert all(s.factorizations for s in sols[1:])
    inverse = 80 * 80 * 8
    assert chain < single + 4 * inverse, (chain, single)


def test_long_chain_refactors_and_stays_certified():
    fp = rhs_chain(np.random.default_rng(7), 30, 20, 40, 0.5)
    x = fp.program.first_stage.lb
    stages = scenario_stages(fp)
    sols = _stage_values(fp, stages, x)
    assert sum(s.iterations for s in sols) > 2 * REFACTOR_AGE
    assert sols[0].factorizations == 0          # cold: a diagonal inverse
    assert all(s.warm_started for s in sols[1:])
    # the inverse's age runs on across solves: chained solves far shorter
    # than REFACTOR_AGE still refactor
    refactored = [s for s in sols[1:] if s.factorizations]
    assert len(refactored) >= 2
    assert all(s.iterations < REFACTOR_AGE for s in refactored)
    for st, sol in zip(stages, sols):
        lp = LinearProgram(st.q, st.W, st.senses, st.h - st.T @ x, st.lb,
                           st.ub)
        for check, worst, tol in _certificate(lp, sol):
            assert worst <= tol, check


def test_varying_w_is_rejected(rng):
    fp = random_two_stage(rng, n_scen=3)
    template = fp.program.second_stage

    def second(d):
        st = template(d)
        if d is fp.scenarios[1]:
            W = st.W.dense()
            W[0, 0] += 1.0
            st = replace(st, W=W)
        return st

    varying = FiniteProgram(TwoStageProgram(fp.program.first_stage, second),
                            fp.scenarios, fp.probabilities)
    with pytest.raises(ValueError, match="scenario 1: recourse matrix W"):
        scenario_stages(varying)


def test_infeasible_subproblem_raises():
    fs = FirstStage(c=np.array([1.0]), A=np.zeros((0, 1)), senses=(),
                    b=np.zeros(0), lb=np.zeros(1), ub=np.ones(1))

    def second(h):
        # y <= -1 with y >= 0 can never hold
        return SecondStage(q=np.array([1.0]), T=np.array([[0.0]]),
                           W=np.array([[1.0]]), senses=("<=",),
                           h=np.array([-1.0]), lb=np.zeros(1),
                           ub=np.array([np.inf]))

    fp = FiniteProgram(TwoStageProgram(fs, second, sense="min"), [0.0, 1.0])
    with pytest.raises(RuntimeError, match="scenario"):
        evaluate_decision(fp, np.array([0.5]))


def test_check_first_stage_feasible():
    fs = FirstStage(c=np.zeros(2), A=np.array([[1.0, 1.0]]), senses=("<=",),
                    b=np.array([1.0]), lb=np.zeros(2), ub=np.ones(2),
                    binaries=(0,))
    check_first_stage_feasible(fs, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="bounds"):
        check_first_stage_feasible(fs, np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="row 0"):
        check_first_stage_feasible(fs, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="binary"):
        check_first_stage_feasible(fs, np.array([0.5, 0.2]))
    with pytest.raises(ValueError, match="shape"):
        check_first_stage_feasible(fs, np.array([0.5]))


@pytest.mark.parametrize("sense", ["<=", 1])
def test_check_first_stage_feasible_reads_sense_codes(sense):
    # a row written with LinearProgram's integer code binds like its string
    fs = FirstStage(c=np.zeros(2), A=np.array([[1.0, 1.0]]), senses=(sense,),
                    b=np.array([1.0]), lb=np.zeros(2),
                    ub=np.full(2, np.inf))
    check_first_stage_feasible(fs, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="row 0 violated by 5"):
        check_first_stage_feasible(fs, np.array([3.0, 3.0]))


@pytest.mark.parametrize("A, b, senses, match", [
    (SparseMatrix.from_triplets((1, 2), [0], [0], [1.0]), [1.0], ("<=",),
     "2 columns, expected 3"),
    (np.ones((1, 2)), [1.0], ("<=",), "2 columns, expected 3"),
    (np.ones((2, 3)), [1.0], ("<=", "<="), "b has shape"),
    (np.ones((2, 3)), [1.0, 1.0, 1.0], ("<=", "<="), "b has shape"),
    (np.ones((2, 3)), [1.0, 1.0], ("<=",), "1 row senses for 2 rows"),
    (np.ones((2, 3)), [1.0, 1.0], ("<=",) * 3, "3 row senses for 2 rows"),
])
def test_first_stage_rejects_mismatched_shapes(A, b, senses, match):
    with pytest.raises(ValueError, match=match):
        FirstStage(c=np.zeros(3), A=A, senses=senses, b=np.array(b),
                   lb=np.zeros(3), ub=np.ones(3))


@pytest.mark.parametrize("lb, ub, match", [
    (np.zeros(1), np.ones(3), "lb has shape"),
    (np.zeros(3), 1.0, "ub has shape"),
])
def test_first_stage_rejects_mismatched_bounds(lb, ub, match):
    with pytest.raises(ValueError, match=match):
        FirstStage(c=np.zeros(3), A=np.ones((1, 3)), senses=("<=",),
                   b=np.array([5.0]), lb=lb, ub=ub)


# ------------------------------------------------------ expected scenario

def test_expected_scenario_single_identity():
    s = scen([10.0, 20.0], [1.0, 2.0])
    mean = expected_scenario([s])
    assert mean.price.values == pytest.approx(s.price.values)
    assert mean.inflow.values == pytest.approx(s.inflow.values)


def test_expected_scenario_uniform_mean():
    a = scen([10.0, 10.0], [1.0, 1.0])
    b = scen([30.0, 30.0], [3.0, 3.0])
    mean = expected_scenario([a, b])
    assert mean.price.values == pytest.approx([20.0, 20.0])
    assert mean.inflow.values == pytest.approx([2.0, 2.0])


def test_expected_scenario_weighted():
    a = scen([0.0], [0.0])
    b = scen([40.0], [4.0])
    mean = expected_scenario([a, b], probabilities=[0.25, 0.75])
    assert mean.price.values == pytest.approx([30.0])
    assert mean.inflow.values == pytest.approx([3.0])


def test_expected_scenario_empty_rejected():
    with pytest.raises(ValueError):
        expected_scenario([])


def test_expected_value_problem_objective():
    # mean scenario has h = 2; any x in [0, 2] attains cost 2
    fp = simple_recourse([1.0, 3.0])
    x_bar = solve_expected_value_problem(fp)
    assert x_bar.shape == (1,)
    mean_fp = simple_recourse([2.0])
    assert evaluate_decision(mean_fp, x_bar) == pytest.approx(2.0, abs=1e-9)



def test_evaluation_leaves_optional_modules_unloaded():
    # a serial evaluation needs no thread pool, and the solver stack no
    # scipy: each would only add to every run's memory
    src = os.path.dirname(os.path.dirname(hydrosp.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "import numpy as np\n"
            "import hydrosp.core, hydrosp.lshaped\n"
            "from _toys import simple_recourse\n"
            "hydrosp.core.scenario_values(simple_recourse([1.0, 3.0]),\n"
            "                             np.array([1.0]))\n"
            "loaded = [m for m in ('concurrent.futures', 'scipy.sparse',\n"
            "                      'scipy.optimize') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
