"""Two-stage containers, deterministic equivalent, and evaluation."""

from concurrent.futures import ThreadPoolExecutor
import os
import subprocess
import sys

import numpy as np
import pytest

import hydrosp
from hydrosp import _simplex, core, lshaped
from hydrosp.core import (FirstStage, Recourse, SecondStage,
                          TwoStageProgram, FiniteProgram, _stage_lp,
                          _stage_values, bunched, solve_stage,
                          build_deterministic_equivalent,
                          solve_deterministic, evaluate_decision,
                          scenario_values, scenario_stages,
                          expected_scenario, solve_expected_value_problem,
                          check_first_stage_feasible)
from hydrosp.lp import LinearProgram, SparseMatrix, _certificate, solve_lp
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
        q, T, hh = lo.program.second_stage(h)
        return -q, T, hh

    hi = FiniteProgram(TwoStageProgram(neg, lo.program.recourse, second,
                                       sense="max"), lo.scenarios)
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
    recourse = fp.program.recourse
    x = fp.program.first_stage.lb
    for st in stages:
        for attr in ("W", "senses", "lb", "ub"):
            assert getattr(st, attr) is getattr(recourse, attr), attr
        # a subproblem keeps the read-only bounds instead of copying them
        lp = _stage_lp(st, x, fp.program.sign)
        assert lp.lb is st.lb and lp.ub is st.ub
        for arr in (st.W.start, st.W.index, st.W.value, st.senses, st.ub):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            st.lb[0] = 1.0


@pytest.mark.parametrize("name", sorted(_STAGE_PROGRAMS))
def test_shared_stages_equal_direct_blocks(name):
    fp = _STAGE_PROGRAMS[name]()
    for s, st in zip(fp.scenarios, scenario_stages(fp)):
        direct = fp.program.stage(s)
        for attr in ("q", "T", "W", "h", "lb", "ub"):
            assert np.array_equal(getattr(st, attr), getattr(direct, attr)), \
                attr
        assert np.array_equal(st.senses, direct.senses)


# ------------------------------------------------ warm-started scenarios

@pytest.fixture(scope="module")
def chained_cases():
    """{name: (fp, x, own-start solutions, warm-started solutions,
    slack-basis solutions)}; x is the first stage's lower bounds where
    feasible, else the EV decision.  The own-start solves are plain
    ``solve_stage`` calls, each from the recourse's start basis (the slack
    basis without one); the slack-basis solves call ``solve_lp`` with no
    basis."""
    out = {}
    for name, make in _STAGE_PROGRAMS.items():
        fp = make()
        x = fp.program.first_stage.lb
        try:
            check_first_stage_feasible(fp.program.first_stage, x)
        except ValueError:
            x = solve_expected_value_problem(fp)
        stages = scenario_stages(fp)
        sign = fp.program.sign
        own = [solve_stage(st, x, sign) for st in stages]
        slack = [solve_lp(_stage_lp(st, x, sign)) for st in stages]
        out[name] = (fp, x, own, _stage_values(fp, stages, x), slack)
    return out


@pytest.mark.parametrize("name", sorted(_STAGE_PROGRAMS))
def test_chained_scenario_values_equal_cold(chained_cases, name):
    fp, x, own, warm, cold = chained_cases[name]
    # the model builders give their recourse a start basis; the random toy
    # has none, so its scenario 0 runs from the slack basis
    lead = fp.program.recourse.start is not None
    assert lead == (name != "random")
    assert [s.warm_started for s in cold] == [False] * fp.n_scenarios
    assert [s.warm_started for s in own] == [lead] * fp.n_scenarios
    assert [s.warm_started for s in warm] == \
        [lead] + [True] * (fp.n_scenarios - 1)
    for c, o, w in zip(cold, own, warm):
        assert w.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)
        assert o.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)
    cx = float(fp.program.first_stage.c @ x)
    want = [cx + fp.program.sign * c.objective for c in cold]
    assert scenario_values(fp, x) == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_scenario_values_ignore_the_worker_count(seed):
    # the fan-out is one serial loop and keeps no state between calls, so
    # a caller that splits its decisions among worker threads gets the
    # bytes of the serial calls whatever the number of workers
    rng = np.random.default_rng(seed)
    fp = random_two_stage(rng, n_scen=7)
    xs = rng.uniform(0.0, 4.0, (6, fp.program.first_stage.nvars))
    serial = [np.array(scenario_values(fp, x)).tobytes() for x in xs]
    for workers in (2, 3, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got = list(pool.map(lambda x: scenario_values(fp, x), xs))
        assert [np.array(v).tobytes() for v in got] == serial


def test_chaining_saves_iterations_on_day_ahead(chained_cases):
    _, _, own, warm, _ = chained_cases["day_ahead"]
    assert warm[0].iterations == own[0].iterations
    assert sum(s.iterations for s in warm) < sum(s.iterations for s in own)


def _kernel_solves(monkeypatch, stages):
    """Record ``(scenario, start basis, inverse, solution, factorizations)``
    of every kernel solve that ``_stage_values`` makes, the factorizations
    as the kernel returned them."""
    solves = []
    stage_solve = core.solve_stage

    def spy(stage, x, sign, basis=None, lp=None, inverse=None):
        sol = stage_solve(stage, x, sign, basis=basis, lp=lp,
                          inverse=inverse)
        solves.append((stages.index(stage), basis, inverse, sol,
                       sol.factorizations))
        return sol

    monkeypatch.setattr(core, "solve_stage", spy)
    return solves


def test_fallbacks_start_from_scenario_zero_and_its_inverse(monkeypatch):
    fp = rhs_chain(np.random.default_rng(6), 12, 8, 5, 0.5)
    stages = scenario_stages(fp)
    sign = fp.program.sign
    x = fp.program.first_stage.lb
    solves = _kernel_solves(monkeypatch, stages)
    sols = _stage_values(fp, stages, x)
    # the kernel solves scenario 0 from the recourse's start (this toy has
    # none: the slack basis) and then every scenario not optimal at its
    # final basis, from that basis and a copy of the bunch's inverse
    solved = [0] + [i for i in range(1, 5)
                    if sols[i].basis is not sols[0].basis]
    assert 1 < len(solved) < 5 and bunched(sols) == 5 - len(solved)
    assert solves[0][:3] == (0, None, None)
    assert [i for i, *_ in solves] == solved
    for i, basis, inverse, sol, nfact in solves[1:]:
        assert basis is sols[0].basis and inverse is not None
        assert sols[i] is sol and sol.warm_started
        # bit for bit the solve that inverts scenario 0's basis itself,
        # less that one inverse
        alone = solve_stage(stages[i], x, sign, basis=basis)
        assert (alone.iterations, alone.objective) == \
            (sol.iterations, sol.objective)
        assert nfact == alone.factorizations - 1
    # the fan-out's inverses: scenario 0's own, the bunch's one and the
    # fallbacks' refactorizations
    assert sum(s.factorizations for s in sols) == \
        solves[0][4] + 1 + sum(nfact for *_, nfact in solves[1:])
    # scenario 0 restarted from its own optimal basis needs no pivot, and
    # the other scenarios come out as before
    solves.clear()
    again = _stage_values(fp, stages, x, start=sols[0].basis)
    assert solves[0][0] == 0 and solves[0][1] is sols[0].basis
    assert again[0].warm_started and again[0].iterations == 0
    assert [s.warm_started for s in again] == [True] * fp.n_scenarios
    assert bunched(again) == bunched(sols)
    for s, a in zip(sols, again):
        assert a.objective == pytest.approx(s.objective, rel=1e-12,
                                            abs=1e-12)


def test_star_starts_every_scenario_from_the_first():
    fp = rhs_chain(np.random.default_rng(6), 12, 8, 5, 0.5)
    stages = scenario_stages(fp)
    x = fp.program.first_stage.lb
    own = [solve_stage(st, x, fp.program.sign) for st in stages]
    star = _stage_values(fp, stages, x)
    assert [s.warm_started for s in star] == [False] + [True] * 4
    assert star[0].iterations == own[0].iterations
    assert sum(s.iterations for s in star) < sum(s.iterations for s in own)
    for o, s in zip(own, star):
        assert s.objective == pytest.approx(o.objective, rel=1e-9)
        assert not (s.basis.basic.flags.writeable
                    or s.basis.status.flags.writeable)


def _long_chain_lp():
    """A cold solve of this stage takes 58 pivots, and no refactorization
    at the default ``REFACTOR_AGE``."""
    fp = rhs_chain(np.random.default_rng(7), 30, 20, 1, 0.5)
    st = scenario_stages(fp)[0]
    x = fp.program.first_stage.lb
    return LinearProgram(st.q, st.W, st.senses, st.h - st.T @ x, st.lb,
                         st.ub)


def _assert_certified(lp, sol):
    assert sol.ok
    for check, worst, tol in _certificate(
            lp.matrix, lp.senses, lp.b[None], lp.c[None], lp.lb, lp.ub,
            sol.x[None], sol.duals[None], sol.reduced_costs[None]):
        assert worst[0] <= tol, check


def _log_calls(monkeypatch, events, *names):
    """Append the name of every call of ``_simplex``'s ``names`` to
    ``events``."""
    for name in names:
        def call(*args, _fn=getattr(_simplex, name), _name=name):
            events.append(_name)
            return _fn(*args)
        monkeypatch.setattr(_simplex, name, call)


def test_long_chain_refactors_and_stays_certified(monkeypatch):
    # an inverse the probe rejects when its age reaches REFACTOR_AGE is
    # computed afresh, every REFACTOR_AGE pivots here, and the solve still
    # ends certified
    monkeypatch.setattr(_simplex, "REFACTOR_AGE", 8)
    monkeypatch.setattr(_simplex, "_fits", lambda B, Binv: False)
    lp = _long_chain_lp()
    sol = solve_lp(lp)
    assert not sol.warm_started
    assert sol.iterations > 2 * 8
    assert sol.factorizations >= 2
    _assert_certified(lp, sol)


def test_long_chain_keeps_an_inverse_that_fits(monkeypatch):
    # an inverse that passes the probe when its age reaches REFACTOR_AGE
    # is kept: the probe runs, no inverse is computed, and the solve ends
    # certified at the same optimum
    lp = _long_chain_lp()
    ref = solve_lp(lp)
    monkeypatch.setattr(_simplex, "REFACTOR_AGE", 8)
    events = []
    _log_calls(monkeypatch, events, "_fits", "_invert")
    sol = solve_lp(lp)
    assert sol.iterations > 2 * 8
    assert events.count("_fits") >= 2 and "_invert" not in events
    assert sol.factorizations == ref.factorizations == 0
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
    _assert_certified(lp, sol)


def test_drifted_inverse_is_refactored_at_the_next_probe(monkeypatch):
    # the third pivot leaves B^-1 off by 1e-5 in one entry, which the probe
    # rejects: the inverse is computed afresh at the check after the
    # eighth pivot, not later at a phase end, and the solve ends certified
    monkeypatch.setattr(_simplex, "REFACTOR_AGE", 8)
    events = []
    _log_calls(monkeypatch, events, "_invert")
    pivot = _simplex._pivot

    def drifting_pivot(Binv, w, rrow):
        pivot(Binv, w, rrow)
        events.append("_pivot")
        if events.count("_pivot") == 3:
            Binv[0, 0] += 1e-5

    monkeypatch.setattr(_simplex, "_pivot", drifting_pivot)
    lp = _long_chain_lp()
    sol = solve_lp(lp)
    assert sol.iterations > 2 * 8
    assert "_invert" in events
    assert events[:events.index("_invert")] == ["_pivot"] * 8
    assert sol.factorizations >= 1
    _assert_certified(lp, sol)


def test_infeasible_subproblem_raises():
    fs = FirstStage(c=np.array([1.0]), A=np.zeros((0, 1)), senses=(),
                    b=np.zeros(0), lb=np.zeros(1), ub=np.ones(1))

    # y <= -1 with y >= 0 can never hold
    recourse = Recourse(W=np.array([[1.0]]), senses=("<=",), lb=np.zeros(1),
                        ub=np.array([np.inf]))

    def second(h):
        return np.array([1.0]), np.array([[0.0]]), np.array([-1.0])

    fp = FiniteProgram(TwoStageProgram(fs, recourse, second, sense="min"),
                       [0.0, 1.0])
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


def _one_binary_program(binaries):
    """x in [0, 1] at cost 10 over the one recourse row x + y >= 0.5,
    y in [0, 1] at cost 1: the optimum is x = 0, y = 0.5."""
    fs = FirstStage(c=np.array([10.0]), A=np.zeros((0, 1)), senses=(),
                    b=np.zeros(0), lb=np.zeros(1), ub=np.ones(1),
                    binaries=binaries)
    recourse = Recourse(W=np.array([[1.0]]), senses=(">=",), lb=np.zeros(1),
                        ub=np.ones(1))

    def second(_):
        return np.array([1.0]), np.array([[1.0]]), np.array([0.5])

    return FiniteProgram(TwoStageProgram(fs, recourse, second), [0.0])


def test_first_stage_refuses_a_binary_past_its_columns():
    # column 1 would be the recourse's y in the deterministic equivalent
    # and the master's theta in L-shaped
    with pytest.raises(ValueError,
                       match=r"binary variable 1 is outside 0\.\.0"):
        _one_binary_program((1,))
    for binaries in ((), (0,)):
        fp = _one_binary_program(binaries)
        assert solve_deterministic(fp).objective == pytest.approx(0.5)
        assert lshaped.solve(fp).objective == pytest.approx(0.5)


@pytest.mark.parametrize("binaries, lb, ub, match", [
    ((3,), 0.0, 1.0, r"binary variable 3 is outside 0\.\.2"),
    ((-1,), 0.0, 1.0, r"binary variable -1 is outside 0\.\.2"),
    ((0, 2, 0), 0.0, 1.0, "binary variable 0 is named more than once"),
    ((1.0,), 0.0, 1.0, "binary index 1.0 is not an integer"),
    ((1,), 0.0, 2.0, r"binary variable 1 must have bounds within \[0, 1\]"),
    ((2,), -1.0, 1.0, r"binary variable 2 must have bounds within \[0, 1\]"),
])
def test_first_stage_rejects_bad_binaries(binaries, lb, ub, match):
    with pytest.raises(ValueError, match=match):
        FirstStage(c=np.zeros(3), A=np.ones((1, 3)), senses=("<=",),
                   b=np.array([5.0]), lb=np.full(3, lb), ub=np.full(3, ub),
                   binaries=binaries)


def test_first_stage_keeps_its_binaries_as_ints_in_order():
    fs = FirstStage(c=np.zeros(3), A=np.ones((1, 3)), senses=("<=",),
                    b=np.array([5.0]), lb=np.zeros(3), ub=np.ones(3),
                    binaries=(np.int64(2), 0))
    assert fs.binaries == (2, 0) and type(fs.binaries[0]) is int


# each container with its names for c, A and b: they share one check.  A
# second stage's matrix is its recourse's W, or its own T with the
# recourse's W all ones
_CONTAINERS = [
    (FirstStage, ("c", "A", "b")),
    (lambda c, A, senses, b, lb, ub: SecondStage(
        c, np.zeros((len(b), 1)), b, Recourse(A, senses, lb, ub)),
     ("q", "W", "h")),
    (lambda c, A, senses, b, lb, ub: SecondStage(
        c, A, b, Recourse(np.ones((len(b), len(c))), senses, lb, ub)),
     ("q", "T", "h")),
    (LinearProgram, ("c", "A", "b")),
]


@pytest.mark.parametrize("container, names", _CONTAINERS,
                         ids=["FirstStage", "SecondStage", "SecondStage-T",
                              "LinearProgram"])
@pytest.mark.parametrize("bad, message", [
    (dict(c=[np.nan, 1.0]), "{0} and {2} must be finite"),
    (dict(lb=[2.0, 0.0]), "lb > ub for some variable"),
    (dict(lb=[np.inf, 0.0], ub=[np.inf, 1.0]),
     "lb may not be +inf and ub may not be -inf"),
    (dict(A=[[1.0, -np.inf]]), "{1} must be finite"),
    (dict(A=[[np.nan, 1.0]]), "{1} must be finite"),
    (dict(A=[[np.inf]]), "{1} must be finite"),
], ids=["nan-cost", "crossed-bounds", "inf-lower-bound", "inf-matrix-entry",
        "nan-matrix-entry", "inf-only-entry"])
def test_containers_reject_bad_arrays_when_built(container, names, bad,
                                                 message):
    args = dict(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=(">=",), b=[1.0],
                lb=[0.0, 0.0], ub=[1.0, 1.0])
    container(**args)
    args.update(bad)
    with pytest.raises(ValueError) as exc:
        container(**args)
    assert str(exc.value) == message.format(*names)


def _short_bound_program(**fields):
    """min x + E[y0 + y1] with x + y0 + y1 >= h; ``fields`` replace the
    recourse's arguments."""
    fs = FirstStage(c=np.array([1.0]), A=np.zeros((0, 1)), senses=(),
                    b=np.zeros(0), lb=np.zeros(1), ub=np.ones(1))
    args = dict(W=np.array([[1.0, 1.0]]), senses=(">=",), lb=np.zeros(2),
                ub=np.full(2, np.inf))
    args.update(fields)

    def second(h):
        return np.ones(2), np.array([[1.0]]), np.array([float(h)])

    return FiniteProgram(TwoStageProgram(fs, Recourse(**args), second),
                         [2.0, 4.0])


@pytest.mark.parametrize("fields, match", [
    (dict(lb=np.zeros(1)), r"lb has shape \(1,\), expected \(2,\)"),
    (dict(ub=np.inf), r"ub has shape \(\), expected \(2,\)"),
    (dict(senses=(">=", ">=")), "2 row senses for 1 rows"),
    (dict(senses=()), "0 row senses for 1 rows"),
])
def test_second_stage_rejects_mismatched_rows_and_bounds(fields, match):
    # the deterministic equivalent would broadcast a short bound where a
    # subproblem solve refuses it; the recourse is refused where it is
    # built, before either path can see it
    with pytest.raises(ValueError, match=match):
        _short_bound_program(**fields)
    # the same toy with matching fields solves on both paths
    ok = _short_bound_program()
    assert solve_deterministic(ok).objective == pytest.approx(3.0)
    assert scenario_values(ok, np.array([1.0])) == pytest.approx([2.0, 4.0])


# ------------------------------------------------------ expected scenario

def test_expected_scenario_single_identity():
    s = scen([10.0, 20.0], [1.0, 2.0])
    mean = expected_scenario([s])
    assert mean.price == pytest.approx(s.price)
    assert mean.inflow == pytest.approx(s.inflow)


def test_expected_scenario_uniform_mean():
    a = scen([10.0, 10.0], [1.0, 1.0])
    b = scen([30.0, 30.0], [3.0, 3.0])
    mean = expected_scenario([a, b])
    assert mean.price == pytest.approx([20.0, 20.0])
    assert mean.inflow == pytest.approx([2.0, 2.0])


def test_expected_scenario_weighted():
    a = scen([0.0], [0.0])
    b = scen([40.0], [4.0])
    mean = expected_scenario([a, b], probabilities=[0.25, 0.75])
    assert mean.price == pytest.approx([30.0])
    assert mean.inflow == pytest.approx([3.0])


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
