"""Simplex kernel versus an independent reference solver.

scipy.optimize.linprog (HiGHS) acts as the oracle for statuses and
objective values; dual correctness is checked through the subgradient
inequality and bounded-variable strong duality rather than by comparing
marginal sign conventions.  The certificate tests tamper with the kernel's
output and check that ``solve_lp`` refuses to call it optimal.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hydrosp import lp as lp_module
from hydrosp.core import build_deterministic_equivalent
from hydrosp.lp import (Basis, LinearProgram, solve_lp, OPTIMAL, INFEASIBLE,
                        UNBOUNDED, LIMIT)
from _reference import scipy_solve
from _toys import random_two_stage

REL = 1e-7


def assert_matches_reference(lp):
    sol = solve_lp(lp)
    ref = scipy_solve(lp)
    if ref.status == 0:
        assert sol.status == OPTIMAL, f"reference optimal, got {sol.status}"
        assert sol.objective == pytest.approx(ref.fun, abs=REL, rel=REL)
        assert np.all(sol.x >= lp.lb - 1e-7)
        assert np.all(sol.x <= lp.ub + 1e-7)
        resid = lp.A @ sol.x - lp.b
        for r, s in zip(resid, lp.sense_strings()):
            if s == "<=":
                assert r <= 1e-7
            elif s == ">=":
                assert r >= -1e-7
            else:
                assert abs(r) <= 1e-7
    elif ref.status == 2:
        assert sol.status == INFEASIBLE
    elif ref.status == 3:
        assert sol.status == UNBOUNDED
    return sol


def random_lp(rng, m=None, n=None, neg_lb=False, eq_rows=True):
    n = int(n if n is not None else rng.integers(1, 7))
    m = int(m if m is not None else rng.integers(1, 7))
    A = rng.uniform(-2.0, 2.0, (m, n))
    choices = ("<=", ">=", "=") if eq_rows else ("<=", ">=")
    senses = tuple(choices[int(k)] for k in rng.integers(0, len(choices), m))
    b = rng.uniform(-2.0, 3.0, m)
    lb = rng.uniform(-2.0, 0.0, n) if neg_lb else np.zeros(n)
    ub = lb + rng.uniform(0.5, 4.0, n)
    c = rng.uniform(-2.0, 2.0, n)
    return LinearProgram(c, A, senses, b, lb, ub)


def feasible_lp(rng, neg_lb=False):
    """Random LP with an interior point baked into the rhs."""
    lp = random_lp(rng, neg_lb=neg_lb)
    x0 = lp.lb + rng.uniform(0.2, 0.8, lp.nvars) * (lp.ub - lp.lb)
    b = lp.A @ x0
    for i, s in enumerate(lp.sense_strings()):
        if s == "<=":
            b[i] += rng.uniform(0.0, 1.0)
        elif s == ">=":
            b[i] -= rng.uniform(0.0, 1.0)
    return LinearProgram(lp.c, lp.A, lp.senses, b, lp.lb, lp.ub)


# ------------------------------------------------------- pinned examples

def test_single_variable_lower_bound_dual():
    lp = LinearProgram(c=[1.0], A=[[1.0]], senses=(">=",), b=[3.0],
                       lb=[0.0], ub=[np.inf])
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_box_lp_binding_row_dual():
    lp = LinearProgram(c=[-1.0, -1.0], A=[[1.0, 1.0]], senses=("<=",),
                       b=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(-1.0, abs=1e-9)


def test_infeasible_box():
    lp = LinearProgram(c=[1.0], A=[[1.0], [1.0]], senses=(">=", "<="),
                       b=[1.0, 0.0], lb=[0.0], ub=[np.inf])
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_ray():
    lp = LinearProgram(c=[-1.0], A=[[1.0]], senses=(">=",), b=[1.0],
                       lb=[0.0], ub=[np.inf])
    assert solve_lp(lp).status == UNBOUNDED


def test_unbounded_without_rows():
    lp = LinearProgram(c=[-1.0], A=np.zeros((0, 1)), senses=(), b=[],
                       lb=[0.0], ub=[np.inf])
    assert solve_lp(lp).status == UNBOUNDED


def test_iteration_limit_reported():
    rng = np.random.default_rng(7)
    lp = random_lp(rng, m=6, n=6)
    assert solve_lp(lp, max_iter=1).status == LIMIT


def test_empty_lp_trivial():
    lp = LinearProgram(c=np.zeros(0), A=np.zeros((2, 0)), senses=("<=", "<="),
                       b=[1.0, 2.0], lb=np.zeros(0), ub=np.zeros(0))
    sol = solve_lp(lp)
    assert sol.ok and sol.objective == 0.0


@pytest.mark.parametrize("c, m, senses, b, lb, ub, status, objective", [
    # rows but no columns: 0 >= 1 cannot hold, 0 <= 1 always does
    ([], 1, (">=",), [1.0], [], [], INFEASIBLE, None),
    ([], 1, ("<=",), [1.0], [], [], OPTIMAL, 0.0),
    # columns but no rows: each column sits at its cheaper bound
    ([1.0, -2.0, 0.0], 0, (), [], [1.0, -1.0, 0.0], [5.0, 3.0, 4.0],
     OPTIMAL, -5.0),
    ([1.0, -2.0], 0, (), [], [0.0, -1.0], [5.0, np.inf], UNBOUNDED, None),
], ids=["no-columns-infeasible", "no-columns-feasible", "no-rows-bounded",
        "no-rows-unbounded"])
def test_empty_dimension_statuses(c, m, senses, b, lb, ub, status,
                                  objective):
    lp = LinearProgram(c=np.array(c), A=np.zeros((m, len(c))), senses=senses,
                       b=b, lb=np.array(lb), ub=np.array(ub))
    sol = solve_lp(lp)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, abs=1e-12)
        assert np.all(lp.lb <= sol.x) and np.all(sol.x <= lp.ub)


# ----------------------------------------------------- randomized oracle

def test_random_lps_match_reference(rng):
    statuses = set()
    for _ in range(60):
        sol = assert_matches_reference(random_lp(rng))
        statuses.add(sol.status)
    assert OPTIMAL in statuses and INFEASIBLE in statuses


def test_random_lps_negative_bounds(rng):
    for _ in range(30):
        assert_matches_reference(random_lp(rng, neg_lb=True))


def test_dense_lp_exercises_refactorization(rng):
    # needs well over 128 pivots, so the basis is rebuilt mid-solve
    n = 60
    A = rng.uniform(0.0, 1.0, (40, n))
    lp = LinearProgram(c=rng.uniform(-1.0, 1.0, n), A=A,
                       senses=("<=",) * 40, b=rng.uniform(5.0, 15.0, 40),
                       lb=np.zeros(n), ub=np.full(n, 2.0))
    sol = assert_matches_reference(lp)
    assert sol.iterations > 0


def test_degenerate_transportation_lp():
    # many ties in the ratio test; optimal assignment cost is 3
    c = np.array([1.0, 2.0, 2.0, 1.0])
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    lp = LinearProgram(c, A, ("=",) * 4, [1.0, 1.0, 1.0, 1.0],
                       np.zeros(4), np.full(4, np.inf))
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_lp_de_matches_highs():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        de = build_deterministic_equivalent(random_two_stage(rng, n_scen=3))
        sol = solve_lp(de.lp)
        ref = scipy_solve(de.lp)
        assert ref.status == 0
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------- duality

def test_dual_subgradient_inequality(rng):
    hits = 0
    for _ in range(40):
        lp = feasible_lp(rng)
        sol = solve_lp(lp)
        assert sol.ok
        hits += 1
        delta = rng.uniform(-1e-3, 1e-3, lp.nrows)
        pert = LinearProgram(lp.c, lp.A, lp.senses, lp.b + delta,
                             lp.lb, lp.ub)
        psol = solve_lp(pert)
        if not psol.ok:
            continue
        lhs = psol.objective
        rhs = sol.objective + sol.duals @ delta
        assert lhs >= rhs - 1e-8 * (1.0 + abs(sol.objective))
    assert hits >= 10


def test_strong_duality_with_bounds(rng):
    checked = 0
    for _ in range(40):
        lp = feasible_lp(rng, neg_lb=bool(rng.integers(0, 2)))
        sol = solve_lp(lp)
        assert sol.ok
        checked += 1
        dual_obj = float(sol.duals @ lp.b)
        for j in range(lp.nvars):
            dj = sol.reduced_costs[j]
            if dj > 0.0:
                assert np.isfinite(lp.lb[j]) or abs(dj) < 1e-7
                if np.isfinite(lp.lb[j]):
                    dual_obj += dj * lp.lb[j]
            elif dj < 0.0:
                assert np.isfinite(lp.ub[j]) or abs(dj) < 1e-7
                if np.isfinite(lp.ub[j]):
                    dual_obj += dj * lp.ub[j]
        assert dual_obj == pytest.approx(sol.objective,
                                         abs=1e-6, rel=1e-6)
    assert checked >= 10


# ---------------------------------------------------------- warm start

def _perturbed(lp, rng, scale):
    return LinearProgram(lp.c + rng.uniform(-scale, scale, lp.nvars), lp.A,
                         lp.senses, lp.b + rng.uniform(-scale, scale, lp.nrows),
                         lp.lb, lp.ub)


def test_warm_start_from_own_basis_is_immediate(rng):
    for _ in range(20):
        lp = feasible_lp(rng, neg_lb=bool(rng.integers(0, 2)))
        cold = solve_lp(lp)
        warm = solve_lp(lp, basis=cold.basis)
        assert warm.ok and warm.warm_started and not cold.warm_started
        assert warm.iterations == 1
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-12)


def test_warm_start_after_perturbation_matches_cold(rng):
    warm_used = 0
    for k in range(60):
        lp = feasible_lp(rng, neg_lb=bool(k % 2))
        base = solve_lp(lp)
        assert base.ok
        pert = _perturbed(lp, rng, 0.5)
        cold = solve_lp(pert)
        warm = solve_lp(pert, basis=base.basis)
        ref = scipy_solve(pert)
        assert warm.status == cold.status
        warm_used += warm.warm_started
        if cold.ok:
            assert ref.status == 0
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                                   abs=1e-9)
            assert warm.objective == pytest.approx(ref.fun, rel=1e-9,
                                                   abs=1e-9)
            assert np.all(warm.x >= pert.lb - 1e-9)
            assert np.all(warm.x <= pert.ub + 1e-9)
    assert warm_used == 60


def test_warm_start_reports_infeasible(rng):
    checked = 0
    for _ in range(30):
        lp = feasible_lp(rng)
        base = solve_lp(lp)
        rows = [i for i, s in enumerate(lp.sense_strings()) if s != "<="]
        if not rows:
            continue
        # push one >= or = row beyond the most its row can reach in the box
        i = rows[0]
        reach = np.maximum(lp.A[i] * lp.lb, lp.A[i] * lp.ub).sum()
        b = lp.b.copy()
        b[i] = reach + 1.0
        bad = LinearProgram(lp.c, lp.A, lp.senses, b, lp.lb, lp.ub)
        warm = solve_lp(bad, basis=base.basis)
        assert warm.warm_started
        assert warm.status == INFEASIBLE
        assert scipy_solve(bad).status == 2
        checked += 1
    assert checked >= 10


def _assert_cold_fallback(lp, basis):
    cold = solve_lp(lp)
    warm = solve_lp(lp, basis=basis)
    assert not warm.warm_started
    assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
    assert np.array_equal(warm.x, cold.x)
    assert warm.objective == cold.objective


def test_unusable_basis_starts_cold(rng):
    lp = feasible_lp(rng)
    while lp.nrows < 2:
        lp = feasible_lp(rng)
    good = solve_lp(lp).basis
    m, n = lp.nrows, lp.nvars

    art = good.basic.copy()
    art[0] = n + m                   # an artificial column
    _assert_cold_fallback(lp, Basis(art, good.status))

    dup = good.basic.copy()
    dup[1] = dup[0]                  # a column basic twice
    _assert_cold_fallback(lp, Basis(dup, good.status))

    _assert_cold_fallback(lp, Basis(good.basic[:-1], good.status))


def test_infinite_nonbasic_bound_starts_cold():
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]],
                       senses=(">=", "<="), b=[1.0, 0.5], lb=[0.0, 0.0],
                       ub=[np.inf, np.inf])
    basis = solve_lp(lp).basis
    # every column but the >= row's slack has an infinite upper bound
    status = basis.status.copy()
    j = int(np.flatnonzero((status == 0) & (np.arange(4) != 2))[0])
    status[j] = 1
    _assert_cold_fallback(lp, Basis(basis.basic, status))


def test_singular_basis_starts_cold(rng):
    # column n repeats column 0, so a basis holding both is singular; its
    # LU factors show that exactly (a zero pivot) on some instances and
    # only to rounding (|det| near 1e-16) on others
    for _ in range(6):
        lp = feasible_lp(rng)
        while lp.nrows < 2:
            lp = feasible_lp(rng)
        m, n = lp.nrows, lp.nvars
        twin = LinearProgram(np.append(lp.c, lp.c[0]),
                             np.hstack([lp.A, lp.A[:, :1]]), lp.senses, lp.b,
                             np.append(lp.lb, lp.lb[0]),
                             np.append(lp.ub, lp.ub[0]))
        basic = np.array([0, n] + [n + 1 + i for i in range(2, m)],
                         dtype=np.int64)
        status = np.zeros(n + 1 + m, dtype=np.int64)
        status[basic] = 3
        # nonbasic slacks of >= rows sit at their finite upper bound 0
        for i, s in enumerate(twin.senses):
            if status[n + 1 + i] != 3 and s == 2:
                status[n + 1 + i] = 1
        _assert_cold_fallback(twin, Basis(basic, status))


# ---------------------------------------------------------- certificate

def _three_row_lp():
    """min -x0 - x1 + x2  s.t.  x0 + x1 <= 1,  x2 >= 0.5,  x0 + x2 = 1,
    0 <= x <= 1: optimum x = (0.5, 0.5, 0.5), y = (-1, 1, 0), d = 0."""
    return LinearProgram(c=[-1.0, -1.0, 1.0],
                         A=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                            [1.0, 0.0, 1.0]],
                         senses=("<=", ">=", "="), b=[1.0, 0.5, 1.0],
                         lb=np.zeros(3), ub=np.ones(3))


def test_three_row_lp_is_certified():
    sol = solve_lp(_three_row_lp())
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert sol.duals == pytest.approx([-1.0, 1.0, 0.0], abs=1e-12)
    assert sol.reduced_costs == pytest.approx(np.zeros(3), abs=1e-12)


# (check, kernel output slot, index, value): the slots are 1 x, 2 y, 3 d
@pytest.mark.parametrize("check, slot, index, value", [
    ("primal", 1, 0, 0.51),          # x0 + x1 <= 1 violated by 0.01
    ("dual sign", 2, 0, 1.0),        # y > 0 on a <= row
    ("reduced cost", 3, 1, -0.5),    # x1 could still rise at d1 < 0
    ("gap", 2, 2, 0.3),              # b y off by 0.3; '=' duals are free
])
def test_tampered_optimum_is_refused(monkeypatch, caplog, check, slot,
                                     index, value):
    kernel = lp_module.simplex_kernel

    def tampered(*args):
        out = list(kernel(*args))
        arr = out[slot].copy()
        arr[index] = value
        out[slot] = arr
        return tuple(out)

    monkeypatch.setattr(lp_module, "simplex_kernel", tampered)
    with caplog.at_level(logging.WARNING, logger="hydrosp.lp"):
        sol = solve_lp(_three_row_lp())
    assert sol.status == LIMIT
    assert sol.duals is None and sol.basis is None
    assert [r.name for r in caplog.records] == ["hydrosp.lp"]
    assert f"fails the {check} check" in caplog.records[0].getMessage()


def test_singular_kernel_basis_reports_limit(monkeypatch, caplog):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lp_module, "simplex_kernel", singular)
    with caplog.at_level(logging.WARNING, logger="hydrosp.lp"):
        sol = solve_lp(_three_row_lp())
    assert sol.status == LIMIT
    assert "singular basis" in caplog.records[0].getMessage()


# ------------------------------------------------------ property checks

@given(st.integers(0, 10_000))
def test_property_random_lp_matches_reference(seed):
    rng = np.random.default_rng(seed)
    assert_matches_reference(random_lp(rng, eq_rows=bool(seed % 2)))


def test_sense_validation():
    with pytest.raises(ValueError, match="sense"):
        LinearProgram(c=[1.0], A=[[1.0]], senses=("~",), b=[1.0],
                      lb=[0.0], ub=[1.0])
