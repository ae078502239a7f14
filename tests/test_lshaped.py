"""Decomposition layer: cut algebra, trust region, and full solves."""

import numpy as np
import pytest

from hydrosp.core import (SecondStage, build_deterministic_equivalent,
                          scenario_stages, solve_stage, solve_deterministic)
from hydrosp.lshaped import (Cut, LShapedConfig, TrustRegionConfig,
                             NonConvergenceError, solve, optimality_cut,
                             aggregate, group_probabilities, consolidate,
                             trust_region_step, write_iteration_log)
from _reference import scipy_solve
from _toys import day_ahead_toy, simple_recourse, random_two_stage


def abs_value_stage():
    """Q(x) = |x - 1| as min y s.t. x + y >= 1, -x + y >= -1."""
    return SecondStage(q=np.array([1.0]),
                       T=np.array([[1.0], [-1.0]]),
                       W=np.array([[1.0], [1.0]]),
                       senses=(">=", ">="),
                       h=np.array([1.0, -1.0]),
                       lb=np.zeros(1), ub=np.array([np.inf]))


# ------------------------------------------------------------- cut algebra

def test_anchored_cut_left_branch():
    cut = optimality_cut(np.array([0.0]), abs_value_stage())
    assert cut.intercept == pytest.approx(1.0, abs=1e-9)
    assert cut.coef[0] == pytest.approx(-1.0, abs=1e-9)
    assert cut.value(np.array([0.0])) == pytest.approx(1.0, abs=1e-9)


def test_anchored_cut_right_branch():
    cut = optimality_cut(np.array([2.0]), abs_value_stage())
    assert cut.intercept == pytest.approx(-1.0, abs=1e-9)
    assert cut.coef[0] == pytest.approx(1.0, abs=1e-9)


def test_flat_cut_without_first_stage_coupling():
    stage = SecondStage(q=np.array([1.0]), T=np.zeros((1, 1)),
                        W=np.array([[1.0]]), senses=(">=",),
                        h=np.array([3.0]), lb=np.zeros(1),
                        ub=np.array([np.inf]))
    cut = optimality_cut(np.array([5.0]), stage)
    assert cut.coef[0] == pytest.approx(0.0, abs=1e-12)
    assert cut.intercept == pytest.approx(3.0, abs=1e-9)


def test_cuts_are_tight_and_valid_minorants(rng):
    checked = 0
    for _ in range(50):
        fp = random_two_stage(rng, n1=2, n2=2, m2=2, n_scen=1)
        stage = scenario_stages(fp)[0]
        x_hat = rng.uniform(0.0, 4.0, 2)
        cut = optimality_cut(x_hat, stage)
        q_hat = solve_stage(stage, x_hat, 1.0).objective
        assert cut.value(x_hat) == pytest.approx(q_hat, abs=1e-7, rel=1e-7)
        for _ in range(5):
            x = rng.uniform(0.0, 4.0, 2)
            q = solve_stage(stage, x, 1.0).objective
            assert cut.value(x) <= q + 1e-7 * (1.0 + abs(q))
            checked += 1
    assert checked == 250


def test_aggregate_opposing_cuts_to_flat():
    cuts = [Cut(coef=np.array([-1.0]), intercept=1.0),
            Cut(coef=np.array([1.0]), intercept=-1.0)]
    (merged,) = aggregate(cuts, 1)
    assert merged.coef[0] == pytest.approx(0.0, abs=1e-12)
    assert merged.intercept == pytest.approx(0.0, abs=1e-12)


def test_aggregate_identity_and_weights():
    cuts = [Cut(coef=np.array([2.0]), intercept=1.0),
            Cut(coef=np.array([4.0]), intercept=3.0)]
    same = aggregate(cuts, 2)
    assert len(same) == 2
    assert same[0].coef[0] == 2.0 and same[1].intercept == 3.0
    assert same[0].group == 0 and same[1].group == 1
    (merged,) = aggregate(cuts, 1, probabilities=[0.25, 0.75])
    assert merged.coef[0] == pytest.approx(3.5)
    assert merged.intercept == pytest.approx(2.5)


def test_aggregate_group_assignment():
    cuts = [Cut(coef=np.array([float(s)]), intercept=0.0) for s in range(5)]
    groups = aggregate(cuts, 2)
    # s*K//N: scenarios {0,1,2} -> group 0, {3,4} -> group 1
    assert [g.group for g in groups] == [0, 1]
    assert groups[0].coef[0] == pytest.approx(1.0)
    assert groups[1].coef[0] == pytest.approx(3.5)
    pg = group_probabilities(np.full(5, 0.2), 2)
    assert pg == pytest.approx([0.6, 0.4])


def test_aggregate_bad_group_count():
    cuts = [Cut(coef=np.zeros(1), intercept=0.0)]
    with pytest.raises(ValueError):
        aggregate(cuts, 0)
    with pytest.raises(ValueError):
        aggregate(cuts, 2)


def test_consolidate_age_rules():
    def pool():
        return [Cut(coef=np.zeros(1), intercept=0.0, age=a)
                for a in (0, 2, 5)]

    kept, removed = consolidate(pool(), 3)
    assert [c.age for c in kept] == [0, 2] and removed == 1
    kept, removed = consolidate(pool(), np.inf)
    assert len(kept) == 3 and removed == 0
    kept, removed = consolidate(pool(), None)
    assert len(kept) == 3 and removed == 0
    # active cuts (age 0) survive any finite limit
    kept, _ = consolidate(pool(), 1)
    assert [c.age for c in kept] == [0]


# ------------------------------------------------------------ trust region

def test_trust_region_step_rules():
    cfg = TrustRegionConfig(enabled=True, delta0=0.2, eta=0.1, expand=2.0,
                            shrink=0.5, delta_max=1.0,
                            expand_threshold=0.75)
    x = np.zeros(1)
    cand = np.ones(1)
    accept, d = trust_region_step(x, cand, predicted=-1.0, actual=5.0,
                                  delta=0.2, config=cfg)
    assert not accept and d == pytest.approx(0.1)
    accept, d = trust_region_step(x, cand, predicted=1.0, actual=0.9,
                                  delta=0.2, config=cfg)
    assert accept and d == pytest.approx(0.4)      # ratio 0.9 >= 0.75
    accept, d = trust_region_step(x, cand, predicted=1.0, actual=0.5,
                                  delta=0.2, config=cfg)
    assert accept and d == pytest.approx(0.2)      # eta <= ratio < 0.75
    accept, d = trust_region_step(x, cand, predicted=1.0, actual=0.01,
                                  delta=0.2, config=cfg)
    assert not accept and d == pytest.approx(0.1)
    accept, d = trust_region_step(x, cand, predicted=1.0, actual=2.0,
                                  delta=0.8, config=cfg)
    assert accept and d == pytest.approx(1.0)      # expansion caps at max


def test_trust_region_config_validation():
    with pytest.raises(ValueError):
        TrustRegionConfig(delta0=0.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(delta0=0.5, delta_max=0.4)
    with pytest.raises(ValueError):
        TrustRegionConfig(eta=1.5)
    with pytest.raises(ValueError):
        TrustRegionConfig(shrink=1.5)


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


def test_matches_deterministic_equivalent(rng):
    for sense in ("min", "max"):
        for _ in range(8):
            fp = random_two_stage(rng, n1=2, n2=3, m2=3, n_scen=4,
                                  sense=sense)
            truth = solve_deterministic(fp).objective
            res = solve(fp)
            assert res.converged
            assert rel_close(res.objective, truth), (res.objective, truth)


def test_formulations_agree(rng):
    fp = random_two_stage(rng, n1=3, n2=3, m2=3, n_scen=6)
    truth = solve_deterministic(fp).objective
    for cfg in (LShapedConfig(formulation="multi"),
                LShapedConfig(formulation="single"),
                LShapedConfig(formulation="partial", groups=2),
                LShapedConfig(formulation="partial", groups=5)):
        res = solve(fp, cfg)
        assert res.converged
        assert rel_close(res.objective, truth)


def test_day_ahead_toy_matches_highs():
    _, fp = day_ahead_toy(T=4, n_scen=2)
    res = solve(fp)
    de = build_deterministic_equivalent(fp)
    ref = scipy_solve(de.lp, binaries=de.binaries)
    assert ref.status == 0
    assert res.converged
    assert res.objective == pytest.approx(de.sign * ref.fun, rel=1e-9,
                                          abs=1e-6)


def test_partial_needs_group_count():
    with pytest.raises(ValueError, match="group"):
        LShapedConfig(formulation="partial")
    with pytest.raises(ValueError, match="formulation"):
        LShapedConfig(formulation="benders")


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
    for cut in res.cuts:
        s = cut.group                      # multicut: group == scenario
        for _ in range(10):
            x = rng.uniform(0.0, 4.0, 2)
            q = solve_stage(stages[s], x, 1.0).objective
            assert cut.value(x) <= q + 1e-6 * (1.0 + abs(q))


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


def test_parallel_workers_replicate_serial(rng):
    fp = random_two_stage(rng, n_scen=6)
    a = solve(fp, LShapedConfig(workers=None))
    b = solve(fp, LShapedConfig(workers=2))
    assert a.converged and b.converged
    assert b.objective == a.objective
    assert b.iterations == a.iterations
    assert len(b.cuts) == len(a.cuts)
    for ca, cb in zip(a.cuts, b.cuts):
        assert np.array_equal(ca.coef, cb.coef)
        assert ca.intercept == cb.intercept


def test_trust_region_reaches_same_optimum(rng):
    for _ in range(8):
        fp = random_two_stage(rng, n_scen=4)
        plain = solve(fp)
        tr = solve(fp, LShapedConfig(
            trust_region=TrustRegionConfig(enabled=True)))
        assert plain.converged and tr.converged
        assert rel_close(tr.objective, plain.objective)


def test_consolidation_age_preserves_optimum(rng):
    fp = random_two_stage(rng, n_scen=5)
    ref = solve(fp).objective
    for age in (2, 5, np.inf):
        res = solve(fp, LShapedConfig(consolidation_age=age))
        assert res.converged
        assert rel_close(res.objective, ref)


def test_binary_first_stage_matches_enumeration(rng):
    for _ in range(5):
        fp = random_two_stage(rng, n1=2, n_scen=3, binaries=(0, 1))
        truth = solve_deterministic(fp).objective
        res = solve(fp)
        assert res.converged
        assert rel_close(res.objective, truth)


def test_theta_lower_bound_only_pads_cutless_groups(rng):
    # a pathologically small theta floor must not change the optimum
    fp = random_two_stage(rng, n_scen=3)
    a = solve(fp, LShapedConfig(theta_lb=-1e10)).objective
    b = solve(fp, LShapedConfig(theta_lb=-1e6)).objective
    assert rel_close(a, b, 1e-9)


def test_iteration_log_write(tmp_path, rng):
    fp = random_two_stage(rng, n_scen=3)
    res = solve(fp)
    path = tmp_path / "iters.csv"
    write_iteration_log(path, res.log)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,")
    assert len(lines) == 1 + len(res.log)


def test_nonconvergence_error_is_runtime_error():
    assert issubclass(NonConvergenceError, RuntimeError)
