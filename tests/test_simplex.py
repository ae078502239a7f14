"""Simplex kernel versus an independent reference solver.

scipy.optimize.linprog (HiGHS) acts as the oracle for statuses and
objective values; dual correctness is checked through the subgradient
inequality and bounded-variable strong duality rather than by comparing
marginal sign conventions.  The certificate tests tamper with the kernel's
output and check that ``solve_lp`` refuses to call it optimal.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hydrosp import _simplex, lp as lp_module
from hydrosp._simplex import _pivot, _ratio_test, _usable, simplex_kernel
from hydrosp.core import (_stage_lp, build_deterministic_equivalent,
                          scenario_stages)
from hydrosp.lp import (Basis, LinearProgram, solve_lp, OPTIMAL, INFEASIBLE,
                        UNBOUNDED, LIMIT)
from hydrosp.sparse import SparseMatrix
from hydrosp.tolerances import OPTIMALITY_TOL
from _reference import full_row_ratio_test, scalar_usable, scipy_solve
from _toys import random_two_stage, river_capacity

REL = 1e-7


def assert_matches_reference(lp, basis=None):
    sol = solve_lp(lp, basis=basis)
    ref = scipy_solve(lp)
    if ref.status == 0:
        assert sol.status == OPTIMAL, f"reference optimal, got {sol.status}"
        assert sol.objective == pytest.approx(ref.fun, abs=REL, rel=REL)
        assert np.all(sol.x >= lp.lb - 1e-7)
        assert np.all(sol.x <= lp.ub + 1e-7)
        resid = lp.A @ sol.x - lp.b
        # sense codes: 0 '=', 1 '<=', 2 '>='
        for r, s in zip(resid, lp.senses):
            if s == 1:
                assert r <= 1e-7
            elif s == 2:
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
    for i, s in enumerate(lp.senses):
        if s == 1:              # '<='
            b[i] += rng.uniform(0.0, 1.0)
        elif s == 2:            # '>='
            b[i] -= rng.uniform(0.0, 1.0)
    return LinearProgram(lp.c, lp.A, lp.senses, b, lp.lb, lp.ub)


def sparse_lp(rng, m=8, n=12, density=0.3):
    """Feasible, bounded random LP with about ``density`` of A nonzero (the
    rest exact zeros, some of them -0.0), column 0 and row m-1 all zero,
    and columns 1 and 2 free and costless.  The zero row is a ``<=`` row
    with b >= 1, so it stays feasible when b moves by up to 0.5."""
    A = rng.uniform(-2.0, 2.0, (m, n)) * (rng.uniform(size=(m, n)) < density)
    A[:, 0] = 0.0
    A[m - 1, :] = 0.0
    senses = [("<=", ">=", "=")[int(k)] for k in rng.integers(0, 3, m)]
    senses[m - 1] = "<="
    lb = rng.uniform(-2.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 4.0, n)
    x0 = lb + rng.uniform(0.2, 0.8, n) * (ub - lb)
    lb[1:3] = -np.inf
    ub[1:3] = np.inf
    b = A @ x0
    for i, s in enumerate(senses):
        if s == "<=":
            b[i] += rng.uniform(0.0, 1.0)
        elif s == ">=":
            b[i] -= rng.uniform(0.0, 1.0)
    b[m - 1] = 1.0 + rng.uniform(0.0, 1.0)
    c = rng.uniform(-2.0, 2.0, n)
    c[1:3] = 0.0
    return LinearProgram(c, A, tuple(senses), b, lb, ub)


def _basics_out_of_bounds(lp, basis):
    """Whether some structural column basic in ``basis`` lies outside its
    bounds in ``lp``: a warm start from it needs an artificial copy of that
    column."""
    m, n = lp.nrows, lp.nvars
    W = np.hstack([lp.A, np.eye(m)])
    lo = np.concatenate([lp.lb, np.where(lp.senses == 2, -np.inf, 0.0)])
    hi = np.concatenate([lp.ub, np.where(lp.senses == 1, np.inf, 0.0)])
    x = np.where(basis.status == 1, hi, lo)
    x[basis.status >= 2] = 0.0
    xb = np.linalg.solve(W[:, basis.basic], lp.b - W @ x)
    k = basis.basic < n
    return bool(np.any((xb[k] < lo[basis.basic[k]] - 1e-9)
                       | (xb[k] > hi[basis.basic[k]] + 1e-9)))


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


def test_sparse_lps_match_reference(rng):
    for _ in range(40):
        assert assert_matches_reference(sparse_lp(rng)).ok


def test_sparse_lps_warm_start_after_perturbation(rng):
    warm_used = copies = 0
    for _ in range(40):
        lp = sparse_lp(rng)
        base = solve_lp(lp)
        assert base.ok
        pert = _perturbed(lp, rng, 0.5)
        copies += _basics_out_of_bounds(pert, base.basis)
        warm = assert_matches_reference(pert, basis=base.basis)
        warm_used += warm.warm_started
    assert warm_used == 40
    assert copies >= 5


def _wide_sparse_lp(rng, m=100, n=1000):
    """A seeded m x n LP with 1 % of A nonzero.  x = 0 satisfies the <=
    rows and c >= 0, so a cold solve is a short phase 1 on the ten = rows,
    and the returned ``shift(delta)`` moves their right-hand sides."""
    A = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.01)
    senses = np.ones(m, dtype=np.int64)
    senses[:10] = 0
    ax = A @ rng.uniform(0.2, 0.8, n)
    b = np.where(senses == 1, np.maximum(ax, 0.0) + 0.5, ax)
    c = rng.uniform(0.0, 1.0, n)

    def shift(delta):
        return LinearProgram(c, A, senses, b + np.where(senses == 0, delta,
                                                        0.0),
                             np.zeros(n), np.ones(n))
    return shift(0.0), shift


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_stores_the_matrix_sparsely():
    # a dense [A | I | artificials] working matrix takes m (n + 2m) doubles;
    # tracemalloc slows each pivot 50-fold, so the LP needs few
    lp, _ = _wide_sparse_lp(np.random.default_rng(3))
    m, n = lp.nrows, lp.nvars
    tracemalloc.start()
    try:
        out = simplex_kernel(lp.c, lp.matrix, lp.senses, lp.b, lp.lb, lp.ub,
                             OPTIMALITY_TOL, 10**6, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[0] == 0 and out[5] > 10
    assert peak < m * (n + 2 * m) * 8 / 2


def test_warm_solve_peaks_near_a_cold_solve():
    # a warm start does not keep the dense basis matrix B: its inverse is
    # computed from scratch and B dropped after inv
    rng = np.random.default_rng(3)
    lp, shift = _wide_sparse_lp(rng)
    base = solve_lp(lp)
    moved = shift(rng.normal(0.0, 0.05, lp.nrows))
    cold, cold_peak = _traced_peak(lambda: solve_lp(moved))
    fresh, fresh_peak = _traced_peak(
        lambda: solve_lp(moved, basis=base.basis))
    assert cold.ok and not cold.warm_started and cold.factorizations == 0
    assert fresh.warm_started and fresh.factorizations == 1
    assert fresh.objective == pytest.approx(cold.objective, rel=1e-9)
    assert fresh_peak <= 1.1 * cold_peak


def test_pivot_matches_the_row_loop(rng):
    # the rank-1 update over the nonzero rows of w does the loop's
    # arithmetic, row by row, so the results are equal bit for bit
    m = 40
    for rrow in (0, 17, m - 1):
        Binv = rng.standard_normal((m, m))
        w = rng.standard_normal(m) * (rng.uniform(size=m) < 0.2)
        w[rrow] = rng.uniform(0.5, 2.0)
        want = Binv.copy()
        want[rrow, :] *= 1.0 / w[rrow]
        for i in range(m):
            if i != rrow and w[i] != 0.0:
                want[i, :] -= w[i] * want[rrow, :]
        _pivot(Binv, w, rrow)
        assert np.array_equal(Binv, want)


def _ratio_case(rng, m=30):
    """Seeded ratio-test inputs: ``w`` mostly exact zeros, with entries of
    |w| <= 1e-10, repeated magnitudes (pivot ties), basic values at their
    bounds (ratio ties) or just past them, and infinite bounds."""
    ntot = 3 * m
    base = rng.integers(-2, 1, ntot).astype(float)
    lo = np.where(rng.uniform(size=ntot) < 0.25, -np.inf, base)
    hi = np.where(rng.uniform(size=ntot) < 0.25, np.inf,
                  base + rng.integers(0, 3, ntot))
    xval = base + rng.choice([0.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, -1e-12], ntot)
    w = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, -1e-10, 1e-10, 3e-11],
                   m)
    w[rng.uniform(size=m) < 0.6] = 0.0
    return (w, rng.choice([-1.0, 1.0]), rng.permutation(ntot)[:m], xval, lo,
            hi, rng.choice([np.inf, 0.0, 0.5, 1.0, 3.0]),
            bool(rng.uniform() < 0.3))


def test_ratio_test_matches_the_full_row_loop(rng):
    # the skipped rows have w == 0, which the loops over every row skip
    # too, and the nonzero rows come in ascending order, so the minimum
    # ratio, the slack bound and the chosen row are the same bit for bit
    seen = set()
    for _ in range(2000):
        w, tdir, basis, xval, lo, hi, flipd, bland = _ratio_case(rng)
        got = _ratio_test(w, np.flatnonzero(w).tolist(), tdir, basis, xval,
                          lo, hi, flipd, bland)
        want = full_row_ratio_test(w, tdir, basis, xval, lo, hi, flipd,
                                   bland)
        assert got == want
        rrow, step = got
        if rrow >= 0:
            seen.add("bland pivot" if bland else "pivot")
            ties = np.flatnonzero(np.abs(w) == abs(w[rrow]))
            if not bland and ties.size > 1:
                seen.add("pivot tie")
        else:
            seen.add("unbounded" if step == np.inf else "flip")
    assert seen == {"pivot", "bland pivot", "pivot tie", "flip", "unbounded"}


def _usable_case(rng, m=12, n=20):
    """A seeded valid starting basis: columns with every mix of finite and
    infinite bounds, m distinct basic ones, and each nonbasic column at a
    finite bound (lower first) or free.  Returns the inputs of ``_usable``
    and ``pick``: nonbasic columns bounded below only (1), above only (2)
    and free (3)."""
    nm = n + m
    lo = np.full(nm + m, 0.0)
    hi = np.full(nm + m, 0.0)
    kind = np.arange(nm) % 4      # boxed, below only, above only, free
    lo[:nm] = np.where(kind >= 2, -np.inf, rng.uniform(-2.0, 0.0, nm))
    hi[:nm] = np.where(kind % 2 == 1, np.inf, rng.uniform(0.0, 2.0, nm))
    order = rng.permutation(nm)
    basis0 = order[:m].copy()
    vstat0 = np.where(lo[:nm] > -np.inf, 0, np.where(hi[:nm] < np.inf, 1, 2))
    vstat0[basis0] = 3
    nonbasic = order[m:]
    pick = {k: nonbasic[kind[nonbasic] == k][0] for k in (1, 2, 3)}
    return basis0, vstat0, lo, hi, m, nm, pick


def test_usable_matches_the_scalar_loops(rng):
    # every rejection case, and the valid bases they come from, give the
    # scalar loops' answer
    seen = set()
    for _ in range(200):
        basis0, vstat0, lo, hi, m, nm, pick = _usable_case(rng)
        cases = {"valid": (basis0, vstat0)}
        cases["short basis"] = (basis0[:-1], vstat0)
        cases["short states"] = (basis0, vstat0[:-1])
        b = basis0.copy()
        b[rng.integers(m)] = nm + rng.integers(m)
        cases["artificial"] = (b, vstat0)
        b = basis0.copy()
        i, j = rng.choice(m, 2, replace=False)
        b[i] = b[j]
        cases["repeated column"] = (b, vstat0)
        for name, bad in (("negative index", -1),
                          ("index past the artificials", nm + m)):
            b = basis0.copy()
            b[rng.integers(m)] = bad
            cases[name] = (b, vstat0)
        v = vstat0.copy()
        v[pick[2]] = 0             # at lower, but lower is -inf
        cases["lower bound infinite"] = (basis0, v)
        v = vstat0.copy()
        v[pick[1]] = 1             # at upper, but upper is +inf
        cases["upper bound infinite"] = (basis0, v)
        v = vstat0.copy()
        v[pick[1]] = 2             # free, but bounded above
        cases["free but bounded"] = (basis0, v)
        v = vstat0.copy()
        v[pick[3]] = 7
        cases["unknown state"] = (basis0, v)
        v = vstat0.copy()
        v[pick[3]] = 3             # one basic state too many
        cases["extra basic state"] = (basis0, v)
        for name, (b, v) in cases.items():
            got = _usable(b, v, lo, hi, m, nm)
            assert got is scalar_usable(b, v, lo, hi, m, nm), name
            assert got is (name == "valid"), name
            seen.add(name)
    assert len(seen) == 12
    assert _usable(None, None, lo, hi, m, nm) is False


def test_dense_lp_exercises_refactorization(rng):
    # a dense LP; its 12 pivots never reach REFACTOR_AGE, so the probe and
    # the refactorization it triggers are pinned by the long-chain tests of
    # test_core.py
    n = 60
    A = rng.uniform(0.0, 1.0, (40, n))
    lp = LinearProgram(c=rng.uniform(-1.0, 1.0, n), A=A,
                       senses=("<=",) * 40, b=rng.uniform(5.0, 15.0, 40),
                       lb=np.zeros(n), ub=np.full(n, 2.0))
    sol = assert_matches_reference(lp)
    assert sol.iterations > 0


def _kernel_events(monkeypatch, lp):
    """Solve ``lp`` in the kernel from the slack basis and log, in order,
    each pricing (``y @ W``), pivot, refactorization and ratio test (one per
    iteration)."""
    events = []

    def logged(name, fn):
        def call(*args):
            events.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(SparseMatrix, "__rmatmul__",
                        logged("price", SparseMatrix.__rmatmul__))
    for name in ("_pivot", "_invert", "_ratio_test"):
        monkeypatch.setattr(_simplex, name,
                            logged(name, getattr(_simplex, name)))
    out = simplex_kernel(lp.c, lp.matrix, lp.senses, lp.b, lp.lb, lp.ub,
                         OPTIMALITY_TOL, 10**6, None, None)
    return out, events


def test_bound_flips_do_not_price_again(monkeypatch):
    # min -sum x over the unit box with one loose <= row: every iteration
    # flips a column to its upper bound and B^-1 = I never changes, so the
    # phase prices once; the other pricing reads off the returned duals
    n = 12
    lp = LinearProgram(-np.ones(n), np.ones((1, n)), ("<=",), [2.0 * n],
                       np.zeros(n), np.ones(n))
    out, events = _kernel_events(monkeypatch, lp)
    assert out[0] == 0 and out[5] == n
    assert np.array_equal(out[1], np.ones(n))
    assert events.count("_ratio_test") == n
    assert events.count("price") == 2


@pytest.mark.parametrize("age", [0, 2])
def test_pricing_follows_every_change_of_the_inverse(monkeypatch, age):
    # flips and pivots interleave; the probe rejects every inverse it
    # checks, so at REFACTOR_AGE 0 every pass refactors, after a flip too.
    # Every iteration prices with the current B^-1, and no pricing repeats
    # that of an unchanged B^-1
    monkeypatch.setattr(_simplex, "REFACTOR_AGE", age)
    monkeypatch.setattr(_simplex, "_fits", lambda B, Binv: False)
    rng = np.random.default_rng(5)
    m, n = 10, 30
    lp = LinearProgram(rng.uniform(-1.0, 0.0, n),
                       rng.uniform(0.0, 1.0, (m, n)), ("<=",) * m,
                       rng.uniform(3.0, 6.0, m), np.zeros(n), np.ones(n))
    out, events = _kernel_events(monkeypatch, lp)
    assert out[0] == 0
    assert out[4] == pytest.approx(scipy_solve(lp).fun, rel=REL, abs=REL)
    assert 0 < events.count("_pivot") < out[5]
    assert "_invert" in events
    stale = True                    # the slack basis is not priced yet
    for event in events[:-1]:       # the last pricing reads off the duals
        if event == "price":
            assert stale
            stale = False
        elif event in ("_pivot", "_invert"):
            stale = True
        else:
            assert not stale
    assert events[-1] == "price"


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
        assert warm.iterations == 0
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-12)


def _slack_basis(lp):
    """The basis a cold solve starts from: every structural at a finite
    bound (lower first) or free, and every slack basic."""
    m, n = lp.nrows, lp.nvars
    status = np.full(n + m, 3, dtype=np.int64)
    status[:n] = np.where(lp.lb > -np.inf, 0, np.where(lp.ub < np.inf, 1, 2))
    return Basis(n + np.arange(m), status)


def _bits(v):
    return None if v is None else np.asarray(v).tobytes()


def test_slack_basis_start_is_the_cold_start(rng):
    # a cold start is the start from the slack basis with B^-1 = I and no
    # factorization; given explicitly, that basis is factored once (the
    # inverse of I is I) and every pivot after it is the cold solve's
    lps = [make(rng) for make in (feasible_lp, random_lp, sparse_lp,
                                  lambda r: random_lp(r, neg_lb=True))
           for _ in range(15)]
    fp = river_capacity(1)
    stage = scenario_stages(fp)[0]
    lps.append(_stage_lp(stage, fp.program.first_stage.lb, fp.program.sign))
    statuses = set()
    for lp in lps:
        cold = solve_lp(lp)
        slack = solve_lp(lp, basis=_slack_basis(lp))
        statuses.add(cold.status)
        assert not cold.warm_started and slack.warm_started
        assert slack.factorizations == cold.factorizations + 1
        assert (slack.status, slack.iterations) == (cold.status,
                                                    cold.iterations)
        for f in ("x", "duals", "reduced_costs", "objective"):
            assert _bits(getattr(slack, f)) == _bits(getattr(cold, f))
        if cold.ok:
            assert _bits(slack.basis.basic) == _bits(cold.basis.basic)
            assert _bits(slack.basis.status) == _bits(cold.basis.status)
    assert lps[-1].nrows > 40 and cold.ok and cold.iterations > 0
    assert {OPTIMAL, INFEASIBLE} <= statuses


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
        rows = list(np.flatnonzero(lp.senses != 1))     # '>=' and '='
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


def _assert_cold_fallback(lp, basis, caplog):
    cold = solve_lp(lp)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hydrosp.lp"):
        warm = solve_lp(lp, basis=basis)
    assert not warm.warm_started
    # the refused start is logged, with the LP's size
    assert [(r.name, r.levelno) for r in caplog.records] == \
        [("hydrosp.lp", logging.DEBUG)]
    assert (f"start basis of a {lp.nrows}x{lp.nvars} LP refused"
            in caplog.records[0].getMessage())
    assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
    assert np.array_equal(warm.x, cold.x)
    assert warm.objective == cold.objective


def test_unusable_basis_starts_cold(rng, caplog):
    lp = feasible_lp(rng)
    while lp.nrows < 2:
        lp = feasible_lp(rng)
    good = solve_lp(lp).basis
    m, n = lp.nrows, lp.nvars

    art = good.basic.copy()
    art[0] = n + m                   # an artificial column
    _assert_cold_fallback(lp, Basis(art, good.status), caplog)

    dup = good.basic.copy()
    dup[1] = dup[0]                  # a column basic twice
    _assert_cold_fallback(lp, Basis(dup, good.status), caplog)

    _assert_cold_fallback(lp, Basis(good.basic[:-1], good.status),
                          caplog)


def test_inaccurate_inverse_is_refactored_at_phase_end(rng, monkeypatch):
    # each pivot leaves B^-1 a relative 1e-8 off, so the basic values it
    # gives at the end of a phase miss B x_B = r by more than
    # BASIS_RESIDUAL_TOL allows; the inverse is then computed afresh, and
    # the result still passes the certificate (solve_lp reports it optimal)
    pivot = _simplex._pivot

    def noisy_pivot(Binv, w, rrow):
        pivot(Binv, w, rrow)
        Binv *= 1.0 + 1e-8 * rng.standard_normal(Binv.shape)

    refactored = 0
    for _ in range(20):
        lp = feasible_lp(rng)
        clean = solve_lp(lp)
        monkeypatch.setattr(_simplex, "_pivot", noisy_pivot)
        noisy = solve_lp(lp)
        monkeypatch.setattr(_simplex, "_pivot", pivot)
        assert noisy.ok
        assert noisy.objective == pytest.approx(clean.objective, rel=1e-9,
                                                abs=1e-12)
        # a cold solve starts from a diagonal inverse and computes none
        # unless the probe or a phase end asks for it
        assert clean.factorizations == 0
        refactored += noisy.factorizations > 0
    assert refactored >= 10


def test_infinite_nonbasic_bound_starts_cold(caplog):
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]],
                       senses=(">=", "<="), b=[1.0, 0.5], lb=[0.0, 0.0],
                       ub=[np.inf, np.inf])
    basis = solve_lp(lp).basis
    # every column but the >= row's slack has an infinite upper bound
    status = basis.status.copy()
    j = int(np.flatnonzero((status == 0) & (np.arange(4) != 2))[0])
    status[j] = 1
    _assert_cold_fallback(lp, Basis(basis.basic, status), caplog)


def test_singular_basis_starts_cold(rng, caplog):
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
        _assert_cold_fallback(twin, Basis(basic, status), caplog)


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


@pytest.mark.parametrize("senses", [(">=",), (">=",) * 4, (2,), (2,) * 4])
def test_sense_count_must_match_the_rows(senses):
    # every row needs its own sense: none is broadcast or left unset
    with pytest.raises(ValueError, match="senses for 3 rows"):
        LinearProgram(c=[1.0, 1.0], A=np.ones((3, 2)), senses=senses,
                      b=[1.0, 1.0, 1.0])
