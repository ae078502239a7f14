"""Decomposition layer: cut algebra and full solves."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hydrosp.core import (FiniteProgram, Recourse, SecondStage,
                          build_deterministic_equivalent, scenario_stages,
                          solve_stage, solve_deterministic)
from hydrosp import core, lshaped
from hydrosp.lp import INFEASIBLE, UNBOUNDED, LpSolution, solve_lp
from hydrosp.lshaped import (CutPool, LShapedConfig, NonConvergenceError,
                             solve, subproblem_cuts, aggregate)
from _reference import scipy_solve
from _toys import (capacity_toy, day_ahead_toy, maintenance_toy,
                   river_capacity, simple_recourse, random_two_stage)


def abs_value_stage():
    """Q(x) = |x - 1| as min y s.t. x + y >= 1, -x + y >= -1."""
    return SecondStage(q=np.array([1.0]),
                       T=np.array([[1.0], [-1.0]]),
                       h=np.array([1.0, -1.0]),
                       recourse=Recourse(W=np.array([[1.0], [1.0]]),
                                         senses=(">=", ">="),
                                         lb=np.zeros(1),
                                         ub=np.array([np.inf])))


def anchored_cut(x_hat, stage):
    """The one-cut pool of ``stage``'s subproblem solved at ``x_hat`` (min
    sense)."""
    sol = solve_stage(stage, x_hat, 1.0)
    assert sol.ok
    cut = subproblem_cuts(x_hat, [stage], [sol])
    assert len(cut) == 1 and cut.group.tolist() == [0]
    return cut


def _pool(rows):
    """A CutPool from (coef, intercept, group) triples."""
    coef, intercept, group = zip(*rows)
    return CutPool(np.array(coef, dtype=float), np.array(intercept, float),
                   np.array(group))


# ------------------------------------------------------------- cut algebra

def cut_values(pool, x):
    """Every cut's right-hand side at x."""
    return pool.intercept + pool.coef @ x


def test_anchored_cut_left_branch():
    cut = anchored_cut(np.array([0.0]), abs_value_stage())
    assert cut.intercept[0] == pytest.approx(1.0, abs=1e-9)
    assert cut.coef[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert cut_values(cut, np.array([0.0]))[0] == pytest.approx(1.0,
                                                              abs=1e-9)


def test_anchored_cut_right_branch():
    cut = anchored_cut(np.array([2.0]), abs_value_stage())
    assert cut.intercept[0] == pytest.approx(-1.0, abs=1e-9)
    assert cut.coef[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_flat_cut_without_first_stage_coupling():
    stage = SecondStage(q=np.array([1.0]), T=np.zeros((1, 1)),
                        h=np.array([3.0]),
                        recourse=Recourse(W=np.array([[1.0]]),
                                          senses=(">=",), lb=np.zeros(1),
                                          ub=np.array([np.inf])))
    cut = anchored_cut(np.array([5.0]), stage)
    assert cut.coef[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert cut.intercept[0] == pytest.approx(3.0, abs=1e-9)


def test_cuts_are_tight_and_valid_minorants(rng):
    checked = 0
    for _ in range(50):
        fp = random_two_stage(rng, n1=2, n2=2, m2=2, n_scen=1)
        stage = scenario_stages(fp)[0]
        x_hat = rng.uniform(0.0, 4.0, 2)
        cut = anchored_cut(x_hat, stage)
        q_hat = solve_stage(stage, x_hat, 1.0).objective
        assert cut_values(cut, x_hat)[0] == pytest.approx(q_hat, abs=1e-7,
                                                         rel=1e-7)
        for _ in range(5):
            x = rng.uniform(0.0, 4.0, 2)
            q = solve_stage(stage, x, 1.0).objective
            assert cut_values(cut, x)[0] <= q + 1e-7 * (1.0 + abs(q))
            checked += 1
    assert checked == 250


def test_subproblem_cuts_keep_each_scenario_in_its_own_group(rng):
    fp = random_two_stage(rng, n1=2, n2=2, m2=2, n_scen=3)
    stages = scenario_stages(fp)
    x_hat = rng.uniform(0.0, 4.0, 2)
    sols = [solve_stage(st, x_hat, 1.0) for st in stages]
    cuts = subproblem_cuts(x_hat, stages, sols)
    assert cuts.coef.shape == (3, 2) and cuts.group.tolist() == [0, 1, 2]
    for s, (st, sol) in enumerate(zip(stages, sols)):
        # row by row, each intercept as objective - g . x_hat
        coef = -(sol.duals @ st.T)
        assert cuts.coef[s].tobytes() == coef.tobytes()
        assert cuts.intercept[s] == sol.objective - float(coef @ x_hat)


def test_aggregate_opposing_cuts_to_flat():
    cuts = _pool([([-1.0], 1.0, 0), ([1.0], -1.0, 1)])
    merged = aggregate(cuts, 1, [0.5, 0.5])
    assert len(merged) == 1 and merged.group.tolist() == [0]
    assert merged.coef[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert merged.intercept[0] == pytest.approx(0.0, abs=1e-12)


def test_aggregate_identity_and_weights():
    cuts = _pool([([2.0], 1.0, 0), ([4.0], 3.0, 1)])
    same = aggregate(cuts, 2, [0.5, 0.5])
    assert len(same) == 2
    assert same.coef.tolist() == [[2.0], [4.0]]
    assert same.intercept.tolist() == [1.0, 3.0]
    assert same.group.tolist() == [0, 1]
    merged = aggregate(cuts, 1, [0.25, 0.75])
    assert merged.coef[0, 0] == pytest.approx(3.5)
    assert merged.intercept[0] == pytest.approx(2.5)


def test_aggregate_to_one_group_per_scenario_keeps_the_rows_bit_for_bit(rng):
    # signed zeros and a zero-probability scenario survive unchanged
    coef = rng.normal(size=(4, 3))
    coef[1, 2] = -0.0
    cuts = CutPool(coef, rng.normal(size=4))
    same = aggregate(cuts, 4, [0.5, 0.0, 0.25, 0.25])
    for field in ("coef", "intercept", "group"):
        assert getattr(same, field).tobytes() == getattr(cuts, field).tobytes()
    assert same.group.tolist() == [0, 1, 2, 3]


def test_aggregate_group_assignment():
    cuts = _pool([([float(s)], 0.0, s) for s in range(5)])
    groups = aggregate(cuts, 2, np.full(5, 0.2))
    # s*K//N: scenarios {0,1,2} -> group 0, {3,4} -> group 1
    assert groups.group.tolist() == [0, 1]
    assert groups.coef[:, 0] == pytest.approx([1.0, 3.5])
    assert lshaped._groups(2, 5).tolist() == [[True] * 3 + [False] * 2,
                                              [False] * 3 + [True] * 2]
    # conditional weights within each group
    weighted = aggregate(cuts, 2, [0.1, 0.1, 0.2, 0.3, 0.3])
    assert weighted.coef[:, 0] == pytest.approx([1.25, 3.5])


def test_aggregate_zero_probability_group_takes_the_plain_mean():
    cuts = _pool([([1.0], 2.0, 0), ([3.0], 4.0, 1), ([5.0], 6.0, 2),
                  ([7.0], 9.0, 3)])
    merged = aggregate(cuts, 2, [0.25, 0.75, 0.0, 0.0])
    assert merged.coef[:, 0].tolist() == [2.5, 6.0]
    assert merged.intercept.tolist() == [3.5, 7.5]


def test_aggregate_bad_group_count():
    cuts = _pool([([0.0], 0.0, 0), ([0.0], 0.0, 1)])
    with pytest.raises(ValueError):
        aggregate(cuts, 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        aggregate(cuts, 3, [0.5, 0.5])


def test_duplicate_matches_within_the_group_and_refreshes_the_twin():
    pool = _pool([([1.0, 2.0], 3.0, 0), ([1.0, 2.0], 3.0, 1),
                  ([1.0, 2.0 + 1e-9], 3.0, 2), ([1.0, 2.0], 3.0, 2)])
    new = _pool([([1.0, 2.0 + 1e-13], 3.0, 2), ([1.0, 2.0], 3.0 + 1e-9, 1),
                 ([1.0, 2.0], 3.0, 3)])
    dup = lshaped._duplicate(pool, new)
    # group 2 holds a twin (its second cut); group 1's cut is off in the
    # intercept, and group 3 has no cut at all
    assert dup.tolist() == [True, False, False]
    # several twins in the pool mark the new cut once
    twins = _pool([([0.0], 1.0, 0), ([0.0], 1.0, 0)])
    assert lshaped._duplicate(twins, _pool([([0.0], 1.0, 0)])).tolist() \
        == [True]
    empty = CutPool(np.empty((0, 2)), np.empty(0))
    assert lshaped._duplicate(empty, new).tolist() == [False] * 3


# ------------------------------------------------------------- full solves

def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= tol * (1.0 + abs(b))


def test_two_point_toy_converges():
    fp = simple_recourse([1.0, 3.0])
    res = solve(fp)
    assert res.converged
    assert res.objective == pytest.approx(2.0, abs=1e-6)
    assert res.iterations >= 1
    assert len(res.expectation_cuts) == res.iterations
    assert not res.expectation_cuts.group.any()


def test_matches_deterministic_equivalent(rng):
    for sense in ("min", "max"):
        for _ in range(8):
            fp = random_two_stage(rng, n1=2, n2=3, m2=3, n_scen=4,
                                  sense=sense)
            truth = solve_deterministic(fp).objective
            res = solve(fp)
            assert res.converged
            assert rel_close(res.objective, truth), (res.objective, truth)


def test_zero_probability_scenarios_keep_their_own_cuts(rng):
    # one cut per scenario needs no conditional probabilities, so a
    # scenario of probability 0 is no 0/0
    fp = random_two_stage(rng, n_scen=4)
    fp = FiniteProgram(fp.program, fp.scenarios, [0.5, 0.5, 0.0, 0.0])
    res = solve(fp)
    assert res.converged
    assert rel_close(res.objective, solve_deterministic(fp).objective)


def test_zero_probability_cut_group_reaches_the_optimum(rng):
    # groups {0, 1} and {2, 3}: the second has probability 0, so its cut is
    # the plain mean of its scenarios' cuts and not 0/0
    fp = random_two_stage(rng, n_scen=4)
    fp = FiniteProgram(fp.program, fp.scenarios, [0.5, 0.5, 0.0, 0.0])
    res = solve(fp, LShapedConfig(groups=2))
    assert res.converged
    assert np.all(np.isfinite(res.cuts.coef))
    assert rel_close(res.objective, solve_deterministic(fp).objective)


def test_maintenance_reaches_the_deterministic_optimum():
    # every master is a branch and bound over the schedule's binaries,
    # seeded from the previous master's schedule after the first
    _, fp = maintenance_toy(T=6, n_scen=2)
    truth = solve_deterministic(fp).objective
    res = solve(fp)
    assert res.converged
    assert rel_close(res.objective, truth), (res.objective, truth)
    x = res.x[list(fp.program.first_stage.binaries)]
    assert np.array_equal(x, np.round(x))


def test_formulations_agree(rng):
    # groups: one cut per scenario (None), single-cut (1), partial (2, 5)
    fp = random_two_stage(rng, n1=3, n2=3, m2=3, n_scen=6)
    truth = solve_deterministic(fp).objective
    for groups in (None, 1, 2, 5):
        res = solve(fp, LShapedConfig(groups=groups))
        assert res.converged
        assert rel_close(res.objective, truth)
        assert set(res.cuts.group) == set(range(groups or 6))
    # N groups is the default form, step for step
    a = solve(fp, LShapedConfig())
    b = solve(fp, LShapedConfig(groups=6))
    assert (a.x.tobytes(), a.iterations) == (b.x.tobytes(), b.iterations)
    with pytest.raises(ValueError, match="group count 7"):
        solve(fp, LShapedConfig(groups=7))


def test_day_ahead_toy_matches_highs():
    _, fp = day_ahead_toy(T=4, n_scen=2)
    res = solve(fp)
    de = build_deterministic_equivalent(fp)
    ref = scipy_solve(de.lp, binaries=de.binaries)
    assert ref.status == 0
    assert res.converged
    assert res.objective == pytest.approx(de.sign * ref.fun, rel=1e-9,
                                          abs=1e-6)


def test_group_count_must_be_positive():
    for groups in (0, -2):
        with pytest.raises(ValueError, match="groups"):
            LShapedConfig(groups=groups)
    assert LShapedConfig(groups=1).groups == 1
    assert LShapedConfig().groups is None
    with pytest.raises(TypeError):
        LShapedConfig(formulation="single")


def test_bad_gap_tolerance_or_worker_count_is_rejected():
    # a negative or NaN tolerance can never be met, and the fan-out is
    # serial, so a worker count is no setting at all
    for tol in (-1.0, -np.inf, np.nan):
        with pytest.raises(ValueError, match="gap_tol"):
            LShapedConfig(gap_tol=tol)
    for workers in (None, 1, 2):
        with pytest.raises(TypeError, match="workers"):
            LShapedConfig(workers=workers)
    assert LShapedConfig(gap_tol=0.0).gap_tol == 0.0


def _certified_gap(fp, res):
    """The gap of ``res``'s incumbent against its best master bound,
    recomputed from the log in the internal minimization sense."""
    sign = fp.program.sign
    f_inc = sign * res.objective
    best_lb = max(sign * row.master_objective for row in res.log)
    return best_lb, f_inc, (f_inc - best_lb) / (1.0 + abs(f_inc))


def test_master_bound_monotone_and_gap_closes(rng):
    fp = random_two_stage(rng, n_scen=5)
    res = solve(fp, LShapedConfig(gap_tol=1e-9))
    assert res.converged
    lbs = [row.master_objective for row in res.log]
    for a, b in zip(lbs, lbs[1:]):
        assert b >= a - 1e-9 * (1.0 + abs(a))
    assert res.log[-1].gap <= 1e-9


def test_max_sense_master_bound_monotone_decreasing(rng):
    fp = random_two_stage(rng, n_scen=4, sense="max")
    res = solve(fp)
    assert res.converged
    ubs = [row.master_objective for row in res.log]
    for a, b in zip(ubs, ubs[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))


def test_pool_cuts_minorize_group_recourse(rng):
    fp = random_two_stage(rng, n1=2, n_scen=3)
    res = solve(fp)
    assert res.converged
    stages = scenario_stages(fp)
    p = fp.probabilities
    assert res.cuts.coef.shape == (len(res.cuts), 2)
    for _ in range(10):
        x = rng.uniform(0.0, 4.0, 2)
        # multicut: group == scenario
        q = np.array([solve_stage(st, x, 1.0).objective for st in stages])
        q = q[res.cuts.group]
        assert np.all(cut_values(res.cuts, x) <= q + 1e-6 * (1.0 + np.abs(q)))


def test_iteration_limit_returns_flagged_incumbent(rng):
    fp = random_two_stage(rng, n_scen=5)
    res = solve(fp, LShapedConfig(max_iterations=1))
    assert not res.converged
    assert res.iterations == 1
    assert res.x is not None and np.all(np.isfinite(res.x))
    assert np.isfinite(res.objective)


def test_single_scenario_solves_quickly():
    fp = simple_recourse([2.0])
    res = solve(fp)
    assert res.converged
    assert res.iterations <= 3
    assert res.objective == pytest.approx(2.0, abs=1e-7)


def _same_run(a, b):
    """Whether two L-shaped results agree bit for bit."""
    assert a.converged and b.converged
    assert b.objective == a.objective
    assert b.iterations == a.iterations
    for field in ("coef", "intercept", "group"):
        assert np.array_equal(getattr(b.cuts, field), getattr(a.cuts, field))
    for field in ("subproblem_iterations", "pool_size", "bunched"):
        assert ([getattr(r, field) for r in b.log]
                == [getattr(r, field) for r in a.log]), field


def test_parallel_workers_replicate_serial(rng):
    # a solve keeps no state outside its own call, so runs in two worker
    # threads at once replicate the serial run bit for bit
    fp = random_two_stage(rng, n_scen=6)
    a = solve(fp, LShapedConfig())
    assert a.iterations > 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: solve(fp, LShapedConfig()), range(2)))
    for b in runs:
        _same_run(a, b)


def test_every_iterate_starts_from_scenario_zero(rng, monkeypatch):
    fp = random_two_stage(rng, n_scen=5)
    N = fp.n_scenarios
    # (iterate, scenario, start, inverse, start arrays before the solve,
    # solution, its factorizations, its refactorizations) per kernel solve
    calls = []
    fanouts = []                  # (given start, solutions) per iterate
    stages = []                   # the stages lshaped.solve fans out over
    stage_solve = core.solve_stage
    stage_values = lshaped._stage_values

    def spy(stage, x, sign, basis=None, lp=None, inverse=None):
        before = None
        if basis is not None:
            before = (basis.basic.copy(), basis.status.copy())
        sol = stage_solve(stage, x, sign, basis=basis, lp=lp,
                          inverse=inverse)
        refactor = None
        if inverse is not None:
            # the same start without the inverse computes it once more
            alone = stage_solve(stage, x, sign, basis=basis)
            assert alone.iterations == sol.iterations
            refactor = alone.factorizations - 1
        calls.append((len(fanouts), stages.index(stage), basis, inverse,
                      before, sol, sol.factorizations, refactor))
        return sol

    def values(fp, given, x, start=None):
        stages[:] = given
        sols = stage_values(fp, given, x, start=start)
        fanouts.append((start, sols))
        return sols

    monkeypatch.setattr(core, "solve_stage", spy)
    monkeypatch.setattr(lshaped, "_stage_values", values)
    res = solve(fp)
    assert res.converged and res.iterations > 1
    assert len(fanouts) == res.iterations
    for k, (start, sols) in enumerate(fanouts):
        # scenario 0 starts from the recourse's start at iteration 1 (this
        # toy has none: the slack basis), later from the basis it ended in
        # at the iterate before
        assert start is (None if k == 0 else fanouts[k - 1][1][0].basis)
        kernel = [c for c in calls if c[0] == k]
        _, i, basis, inverse, _, sol, _, _ = kernel[0]
        assert i == 0 and basis is start and inverse is None
        assert sol is sols[0]
        assert sols[0].warm_started == (k > 0)
        # every other scenario the kernel solves starts from scenario 0's
        # final basis, unchanged by those solves, and the bunch's inverse
        lead = sols[0].basis
        assert not lead.basic.flags.writeable
        assert not lead.status.flags.writeable
        for _, i, basis, inverse, (basic, status), sol, _, _ in kernel[1:]:
            assert i > 0 and basis is lead and inverse is not None
            assert sols[i] is sol and sol.warm_started
            assert np.array_equal(lead.basic, basic)
            assert np.array_equal(lead.status, status)
        solved = {c[1] for c in kernel}
        assert all(sols[i].basis is lead for i in range(N) if i not in solved)
        assert res.log[k].bunched == N - len(solved)
        # scenario 0's inverses, the bunch's one and the fallbacks'
        # refactorizations
        assert sum(s.factorizations for s in sols) == \
            kernel[0][6] + 1 + sum(c[7] for c in kernel[1:])


def test_river_capacity_subproblems_start_warm(monkeypatch):
    fp = river_capacity(3)
    N = fp.n_scenarios
    calls = []
    stage_solve = core.solve_stage

    def spy(*args, **kwargs):
        sol = stage_solve(*args, **kwargs)
        calls.append((sol.warm_started, sol.iterations))
        return sol

    monkeypatch.setattr(core, "solve_stage", spy)
    config = LShapedConfig()
    warm = solve(fp, config)
    assert warm.converged and warm.iterations > 2
    # every scenario is either solved by the kernel or bunched
    assert len(calls) + sum(r.bunched for r in warm.log) == \
        N * warm.iterations
    # scenario 0 starts from the model's start basis at iteration 1 and
    # from its previous basis after; every other kernel solve from
    # scenario 0's final basis
    assert [w for w, _ in calls] == [True] * len(calls)
    warm_iters = sum(i for _, i in calls)
    assert warm_iters == sum(r.subproblem_iterations for r in warm.log)

    # the reference: every subproblem solved from the slack basis
    calls.clear()

    def cold_values(fp, stages, x, start=None):
        sols = [solve_lp(core._stage_lp(st, x, fp.program.sign))
                for st in stages]
        calls.extend((s.warm_started, s.iterations) for s in sols)
        return sols

    monkeypatch.setattr(lshaped, "_stage_values", cold_values)
    cold = solve(fp, config)
    assert cold.converged
    assert not any(w for w, _ in calls)
    cold_iters = sum(i for _, i in calls)
    assert warm_iters < cold_iters
    truth = solve_deterministic(fp).objective
    for result in (warm, cold):
        assert abs(result.objective - truth) <= config.gap_tol * (
            1.0 + abs(truth))


def test_river_capacity_bunches_most_subproblems(monkeypatch):
    # the 12 scenarios of the capacity model mostly end in one basis, so
    # most subproblems are settled by the bunch's one factorization
    fp = river_capacity(12)
    N = fp.n_scenarios
    calls = []
    stage_solve = core.solve_stage

    def spy(*args, **kwargs):
        calls.append(1)
        return stage_solve(*args, **kwargs)

    monkeypatch.setattr(core, "solve_stage", spy)
    config = LShapedConfig()
    res = solve(fp, config)
    assert res.converged
    assert len(calls) + sum(r.bunched for r in res.log) == N * res.iterations
    assert len(calls) < N * res.iterations / 4
    # yet not every scenario after the first is bunched
    assert 0 < sum(r.bunched for r in res.log) < (N - 1) * res.iterations
    truth = solve_deterministic(fp).objective
    assert abs(res.objective - truth) <= config.gap_tol * (1.0 + abs(truth))


def test_river_capacity_convergence_is_certified_for_every_group_count():
    # the capacity workload's shape: 15 plants, one day at 24-hour periods,
    # 12 scenarios; multi-cut, single-cut and four groups
    fp = river_capacity(12)
    truth = solve_deterministic(fp).objective
    config = LShapedConfig()
    for groups in (None, 1, 4):
        res = solve(fp, LShapedConfig(groups=groups))
        assert res.converged, groups
        assert res.log[-1].gap <= config.gap_tol
        assert _certified_gap(fp, res)[2] == res.log[-1].gap
        assert abs(res.objective - truth) <= config.gap_tol * (
            1.0 + abs(truth)), (groups, res.objective, truth)


def test_master_bound_and_incumbent_bracket_the_optimum(rng):
    # the best master bound lies below the deterministic optimum and the
    # incumbent above it, on LP and binary first stages of both senses
    toys = [random_two_stage(rng, n_scen=4, sense=sense)
            for sense in ("min", "max")]
    toys += [random_two_stage(rng, n1=2, n_scen=3, binaries=(0, 1),
                              sense=sense) for sense in ("min", "max")]
    toys.append(maintenance_toy(T=6, n_scen=2)[1])
    for fp in toys:
        de = fp.program.sign * solve_deterministic(fp).objective
        res = solve(fp)
        assert res.converged
        best_lb, f_inc, _ = _certified_gap(fp, res)
        slack = 1e-9 * (1.0 + abs(de))
        assert best_lb <= de + slack and de <= f_inc + slack, (
            best_lb, de, f_inc)


def test_binary_first_stage_matches_enumeration(rng):
    for _ in range(5):
        fp = random_two_stage(rng, n1=2, n_scen=3, binaries=(0, 1))
        truth = solve_deterministic(fp).objective
        res = solve(fp)
        assert res.converged
        assert rel_close(res.objective, truth)


def _masters(monkeypatch):
    """The LP master solutions of the runs that follow, in order."""
    seen = []
    master_lp = lshaped.solve_lp

    def spy(*args, **kwargs):
        sol = master_lp(*args, **kwargs)
        seen.append(sol)
        return sol

    monkeypatch.setattr(lshaped, "solve_lp", spy)
    return seen


def test_every_lp_master_after_the_first_starts_warm(rng, monkeypatch):
    # each master restarts from the basis the one before it ended in, with
    # the new cuts' slacks basic, and still reaches the optimum
    toys = [capacity_toy()[1], random_two_stage(rng, n_scen=4)]
    toys += [day_ahead_toy(seed=seed)[1] for seed in range(3)]
    masters = _masters(monkeypatch)
    config = LShapedConfig()
    for fp in toys:
        truth = solve_deterministic(fp).objective
        for groups in (None, 1, fp.n_scenarios):
            masters.clear()
            res = solve(fp, LShapedConfig(groups=groups))
            assert res.converged and res.iterations > 1
            assert len(masters) == res.iterations
            assert [m.warm_started for m in masters] == \
                [False] + [True] * (res.iterations - 1), groups
            assert [r.master_iterations for r in res.log] == \
                [m.iterations for m in masters]
            assert abs(res.objective - truth) <= config.gap_tol * (
                1.0 + abs(truth)), (groups, res.objective, truth)


def test_master_start_frees_the_thetas_that_lost_their_floor():
    fp = random_two_stage(np.random.default_rng(4), n_scen=3)
    fs, N = fp.program.first_stage, fp.n_scenarios
    n1 = fs.nvars
    pg = np.full(N, 1.0 / N)
    empty = lshaped.CutPool(np.empty((0, n1)), np.empty(0))
    first = solve_lp(lshaped._build_master(fs, 1.0, empty, pg))
    assert first.ok
    # every theta sits at its floor THETA_LB in the first master
    assert list(first.basis.status[n1:n1 + N]) == [0] * N
    # the next master has cuts in groups 0 and 2 only
    pool = lshaped.CutPool(np.ones((2, n1)), np.zeros(2), np.array([0, 2]))
    lp = lshaped._build_master(fs, 1.0, pool, pg)
    start = lshaped._master_start(lp, first.basis)
    m, n = lp.matrix.shape
    assert list(start.basic) == list(first.basis.basic) + [n + m - 2,
                                                           n + m - 1]
    assert list(start.status[n1:n1 + N]) == [2, 0, 2]
    assert list(start.status[-2:]) == [3, 3]
    sol = solve_lp(lp, basis=start)
    assert sol.ok and sol.warm_started
    assert sol.objective == pytest.approx(solve_lp(lp).objective, rel=1e-12)


def test_theta_lower_bound_only_pads_cutless_groups(rng, monkeypatch):
    # a pathologically small theta floor must not change the optimum
    fp = random_two_stage(rng, n_scen=3)
    a = solve(fp).objective
    monkeypatch.setattr(lshaped, "THETA_LB", -1e6)
    b = solve(fp).objective
    assert rel_close(a, b, 1e-9)


def test_nonconvergence_error_is_runtime_error():
    assert issubclass(NonConvergenceError, RuntimeError)


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_master_without_optimum_names_the_first_stage(rng, monkeypatch,
                                                      status):
    monkeypatch.setattr(lshaped, "solve_lp",
                        lambda *args, **kwargs: LpSolution(status))
    with pytest.raises(RuntimeError) as exc:
        solve(random_two_stage(rng, n_scen=3))
    assert str(exc.value) == (
        f"master problem {status} at iteration 1; first-stage feasible set "
        "may be empty or unbounded")
