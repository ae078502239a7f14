"""Sampling statistics: quantiles, confidence reports, and estimators."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from hydrosp.core import scenario_values, solve_deterministic
from hydrosp.lshaped import NonConvergenceError
from hydrosp.saa import (ConfidenceReport, child_seed, decision_value_interval,
                         optimal_value_bound, vrp_interval, saa_refine,
                         eev_interval, vss_interval)
from _toys import simple_recourse


# ----------------------------------------------------------- child seeds

def test_child_seed_is_deterministic_and_distinct():
    assert child_seed(7, 1, 3) == child_seed(7, 1, 3)
    seen = {child_seed(7, role, idx) for role in range(5)
            for idx in range(10)}
    assert len(seen) == 50
    assert child_seed(8, 1, 3) != child_seed(7, 1, 3)
    assert isinstance(child_seed(0, 0, 0), int)


# --------------------------------------------------------------- reports

def test_report_validation_and_width():
    rep = ConfidenceReport("upper", 1.0, 3.0, 2.0, 0.05)
    assert rep.width == 2.0
    with pytest.raises(ValueError, match="kind"):
        ConfidenceReport("sideways", 0.0, 1.0, 0.5, 0.05)
    with pytest.raises(ValueError, match="alpha"):
        ConfidenceReport("upper", 0.0, 1.0, 0.5, 0.7)
    with pytest.raises(ValueError, match="empty"):
        ConfidenceReport("upper", 2.0, 1.0, 1.5, 0.05)


def test_report_json_round_trip():
    rep = ConfidenceReport("VRP", 1.0, 4.0, 2.5, 0.05, N=10, M=3, T=5,
                           seed=42)
    text = rep.to_json()
    payload = json.loads(text)
    assert sorted(payload) == ["M", "N", "T", "alpha", "estimate", "hi",
                               "kind", "lo", "seed"]
    assert "significant" not in payload
    back = ConfidenceReport.from_json(text)
    assert back == ConfidenceReport("VRP", 1.0, 4.0, 2.5, 0.05, N=10, M=3,
                                    T=5, seed=42)


# ------------------------------------------------------------ estimators

def batch_sampler(values):
    """Sampler whose batches evaluate, at x=0, to the given values."""
    queue = iter(values)

    def sampler(seed, n):
        return simple_recourse([float(next(queue))] * max(n, 1))

    return sampler


def test_decision_value_interval_two_batches():
    rep = decision_value_interval(np.zeros(1), batch_sampler([1.0, 3.0]),
                                  N=5, T=2, alpha=0.05)
    assert rep.kind == "upper"
    assert rep.estimate == pytest.approx(2.0)
    assert rep.lo == pytest.approx(-10.706, abs=1e-3)
    assert rep.hi == pytest.approx(14.706, abs=1e-3)
    assert (rep.N, rep.T, rep.seed) == (5, 2, 0)
    with pytest.raises(ValueError, match="two batches"):
        decision_value_interval(np.zeros(1), batch_sampler([1.0]), 5, 1,
                                0.05)


def fake_solver(objectives):
    queue = iter(objectives)
    return lambda fp: SimpleNamespace(x=np.zeros(1),
                                      objective=float(next(queue)))


def test_optimal_value_bound_two_instances():
    sampler = batch_sampler([2.0, 2.0])
    rep = optimal_value_bound(sampler, N=4, M=2, alpha=0.05,
                              solver=fake_solver([10.0, 12.0]))
    assert rep.kind == "lower"
    assert rep.estimate == pytest.approx(11.0)
    assert rep.lo == pytest.approx(11.0 - 12.7062, abs=1e-3)
    assert rep.hi == pytest.approx(11.0 + 12.7062, abs=1e-3)
    assert (rep.N, rep.M) == (4, 2)
    with pytest.raises(ValueError, match="two instances"):
        optimal_value_bound(sampler, 4, 1, 0.05, fake_solver([1.0]))


def test_nonconvergent_solver_raises():
    def solver(fp):
        return SimpleNamespace(x=np.zeros(1), objective=0.0,
                               converged=False)

    with pytest.raises(NonConvergenceError, match="converge"):
        optimal_value_bound(batch_sampler([2.0] * 5), 4, 2, 0.05, solver)


def rng_sampler(sense="min"):
    def sampler(seed, n):
        rng = np.random.default_rng(seed)
        return simple_recourse(rng.uniform(1.0, 3.0, n).tolist(),
                               sense=sense)

    return sampler


def test_vrp_assembles_min_sense_bounds():
    sampler = rng_sampler("min")
    solver = solve_deterministic
    rep = vrp_interval(sampler, N=6, M=3, T=3, alpha=0.05, solver=solver,
                       seed=11)
    x_hat = solver(sampler(child_seed(11, 2, 0), 6)).x
    up = decision_value_interval(x_hat, sampler, 6, 3, 0.05, seed=11)
    low = optimal_value_bound(sampler, 6, 3, 0.05, solver, seed=11)
    assert rep.lo == pytest.approx(min(low.lo, up.hi))
    assert rep.hi == pytest.approx(max(low.lo, up.hi))
    assert rep.estimate == pytest.approx(up.estimate)
    assert rep.kind == "VRP"
    # the true optimum of this family is 2; the interval should be nearby
    assert rep.lo < 2.5 and rep.hi > 1.5


def test_vrp_mirrors_for_max_sense():
    sampler = rng_sampler("max")
    solver = solve_deterministic
    rep = vrp_interval(sampler, N=6, M=3, T=3, alpha=0.05, solver=solver,
                       seed=11)
    x_hat = solver(sampler(child_seed(11, 2, 0), 6)).x
    up = decision_value_interval(x_hat, sampler, 6, 3, 0.05, seed=11)
    low = optimal_value_bound(sampler, 6, 3, 0.05, solver, seed=11)
    assert rep.lo == pytest.approx(min(up.lo, low.hi))
    assert rep.hi == pytest.approx(max(up.lo, low.hi))


def test_single_atom_family_collapses():
    sampler = batch_sampler([2.0] * 50)
    rep = vrp_interval(sampler, N=2, M=2, T=2, alpha=0.05,
                       solver=solve_deterministic)
    assert rep.width == pytest.approx(0.0, abs=1e-9)
    assert rep.estimate == pytest.approx(2.0)
    eev = eev_interval(np.array([1.0]), sampler, n_eval=2, alpha=0.05)
    vss = vss_interval(rep, eev)
    assert vss.estimate == pytest.approx(0.0, abs=1e-9)
    assert vss.width == pytest.approx(0.0, abs=1e-9)
    assert not vss.significant


def test_eev_interval_example():
    # recourse values {0, 2} plus first-stage cost 1 at x_bar
    sampler = batch_sampler([0.0])

    def sampler2(seed, n):
        return simple_recourse([1.0, 3.0])

    rep = eev_interval(np.array([1.0]), sampler2, n_eval=2, alpha=0.05)
    assert rep.kind == "EEV"
    assert rep.estimate == pytest.approx(2.0)
    hw = 1.959964 * math.sqrt(2.0) / math.sqrt(2.0)
    assert rep.hi - rep.estimate == pytest.approx(hw, abs=1e-4)
    with pytest.raises(ValueError, match="two scenarios"):
        eev_interval(np.array([1.0]), sampler2, 1, 0.05)


def test_eev_interval_weights_the_spread():
    # values {1, 3, 7} with probabilities 1/2, 1/4, 1/4: mean 3, unbiased
    # weighted variance 6 / (1 - 3/8) = 9.6, standard error of the weighted
    # mean sqrt(9.6 * 3/8)
    def sampler(seed, n):
        return simple_recourse([1.0, 3.0, 7.0], probs=[0.5, 0.25, 0.25])

    rep = eev_interval(np.array([1.0]), sampler, n_eval=3, alpha=0.05)
    assert rep.estimate == pytest.approx(3.0, rel=1e-12)
    want = stats.norm.ppf(0.975) * math.sqrt(9.6 * 0.375)
    assert _half_width(rep) == pytest.approx(want, rel=1e-9)

    with pytest.raises(ValueError, match="positive probability"):
        eev_interval(np.array([1.0]),
                     lambda seed, n: simple_recourse([1.0, 3.0],
                                                     probs=[1.0, 0.0]),
                     n_eval=2, alpha=0.05)


def test_eev_interval_uniform_weights_unchanged():
    hs = np.random.default_rng(5).uniform(0.0, 8.0, 9)

    def sampler(seed, n):
        return simple_recourse(hs)

    x = np.array([1.0])
    rep = eev_interval(x, sampler, n_eval=len(hs), alpha=0.1)
    vals = scenario_values(sampler(0, len(hs)), x)
    hw = stats.norm.ppf(0.95) * vals.std(ddof=1) / math.sqrt(len(hs))
    assert rep.estimate == pytest.approx(vals.mean(), rel=1e-12)
    assert _half_width(rep) == pytest.approx(hw, rel=1e-12)


# ------------------------------------------------------------- quantiles
# The intervals take the two-sided level alpha = 2 * tail.  A tail of 0.25
# is alpha = 0.5, outside the (0, 0.5) they accept, so there the check is
# that they reject it.

def _half_width(rep):
    return 0.5 * (rep.hi - rep.lo)


def _check_half_width(interval, alpha_half, want):
    """interval(alpha) has half-width want, or rejects an alpha >= 0.5."""
    if alpha_half >= 0.25:
        with pytest.raises(ValueError, match="alpha"):
            interval(2.0 * alpha_half)
        return
    assert _half_width(interval(2.0 * alpha_half)) == pytest.approx(
        want, rel=1e-9)


def test_t_quantile_pinned_values():
    # sd / sqrt(n) = 1 in the first and last case, so the half-width is the
    # quantile itself; the normal quantile is the t quantile at df -> inf
    rep = decision_value_interval(np.zeros(1), batch_sampler([1.0, 3.0]),
                                  N=1, T=2, alpha=0.05)
    assert _half_width(rep) == pytest.approx(12.7062, abs=1e-4)
    objectives = np.arange(11.0)
    rep = optimal_value_bound(batch_sampler([0.0] * 11), N=1, M=11,
                              alpha=0.1, solver=fake_solver(objectives))
    scale = objectives.std(ddof=1) / math.sqrt(11)
    assert _half_width(rep) / scale == pytest.approx(1.8125, abs=1e-4)
    rep = eev_interval(np.array([1.0]),
                       lambda seed, n: simple_recourse([1.0, 3.0]),
                       n_eval=2, alpha=0.05)
    assert _half_width(rep) == pytest.approx(1.95996, abs=1e-4)


@pytest.mark.parametrize("alpha_half", [0.005, 0.025, 0.05, 0.1, 0.25])
@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1000])
def test_t_quantile_matches_reference(alpha_half, df):
    T = df + 1
    values = np.random.default_rng(df).uniform(1.0, 3.0, T)

    def interval(alpha):
        return decision_value_interval(np.zeros(1), batch_sampler(values),
                                       N=1, T=T, alpha=alpha)

    want = (stats.t.ppf(1.0 - alpha_half, df)
            * values.std(ddof=1) / math.sqrt(T))
    _check_half_width(interval, alpha_half, want)


@pytest.mark.parametrize("alpha_half", [0.001, 0.005, 0.025, 0.05, 0.25])
def test_normal_quantile_matches_reference(alpha_half):
    # recourse values {0, 2}: sd / sqrt(n_eval) = 1
    def interval(alpha):
        return eev_interval(np.array([1.0]),
                            lambda seed, n: simple_recourse([1.0, 3.0]),
                            n_eval=2, alpha=alpha)

    _check_half_width(interval, alpha_half,
                      stats.norm.ppf(1.0 - alpha_half))


def test_vss_interval_endpoint_arithmetic():
    vrp = ConfidenceReport("VRP", 10.0, 12.0, 11.0, 0.05, N=4, M=2, T=2,
                           seed=0)
    eev = ConfidenceReport("EEV", 8.0, 9.0, 8.5, 0.05, N=100, seed=0)
    vss = vss_interval(vrp, eev)
    assert (vss.lo, vss.hi) == (1.0, 4.0)
    assert vss.estimate == pytest.approx(2.5)
    assert vss.significant
    overlapping = ConfidenceReport("EEV", 11.0, 13.0, 12.0, 0.05, N=100,
                                   seed=0)
    vss2 = vss_interval(vrp, overlapping)
    assert (vss2.lo, vss2.hi) == (-3.0, 1.0)
    assert not vss2.significant
    with pytest.raises(ValueError, match="VRP report"):
        vss_interval(eev, eev)
    with pytest.raises(ValueError, match="alpha"):
        vss_interval(vrp, ConfidenceReport("EEV", 8.0, 9.0, 8.5, 0.01,
                                           N=100, seed=0))


def test_refine_stops_when_tight():
    sampler = batch_sampler([2.0] * 100)
    report, history = saa_refine(sampler, 0.05, rel_width_tol=1e-6,
                                 solver=solve_deterministic,
                                 schedule=(2, 4, 8), M=2, T=2, seed=5)
    assert len(history) == 1            # degenerate family is tight at once
    assert report is history[0]
    assert report.N == 2
    assert report.seed == child_seed(5, 3, 0)


def test_refine_exhausts_schedule_when_noisy():
    report, history = saa_refine(rng_sampler("min"), 0.05,
                                 rel_width_tol=1e-12,
                                 solver=solve_deterministic,
                                 schedule=(2, 3), M=2, T=2, seed=5)
    assert len(history) == 2
    assert report is history[-1]
    assert [r.N for r in history] == [2, 3]
    assert history[0].seed != history[1].seed
    with pytest.raises(ValueError, match="positive"):
        saa_refine(rng_sampler(), 0.05, 0.0, solve_deterministic)


def test_parallel_evaluation_matches_serial():
    sampler = rng_sampler("min")
    a = decision_value_interval(np.array([1.0]), sampler, N=8, T=3,
                                alpha=0.05, seed=3)
    b = decision_value_interval(np.array([1.0]), sampler, N=8, T=3,
                                alpha=0.05, seed=3, workers=2)
    assert (a.lo, a.hi, a.estimate) == (b.lo, b.hi, b.estimate)
