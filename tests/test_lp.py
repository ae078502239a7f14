"""Branch-and-bound over binary variables, checked against enumeration."""

import itertools

import numpy as np
import pytest

import hydrosp.lp
from hydrosp.core import build_deterministic_equivalent
from hydrosp.lp import (Basis, LinearProgram, solve_lp, solve_mbp,
                        OPTIMAL, INFEASIBLE, LIMIT)
from _reference import scipy_solve
from _toys import maintenance_toy, random_two_stage
from test_simplex import feasible_lp, random_lp


def enumerate_binaries(lp, binaries):
    """Best objective over all binary fixings, solved as plain LPs."""
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lb = lp.lb.copy()
        ub = lp.ub.copy()
        for j, v in zip(binaries, bits):
            lb[j] = v
            ub[j] = v
        sol = solve_lp(LinearProgram(lp.c, lp.A, lp.senses, lp.b, lb, ub))
        if sol.ok and (best is None or sol.objective < best):
            best = sol.objective
    return best


@pytest.fixture
def lp_calls(monkeypatch):
    """Every ``solve_lp`` call ``solve_mbp`` makes, in order, as (basis
    handed, solution returned)."""
    calls = []

    def recorded(lp, max_iter=None, basis=None):
        sol = solve_lp(lp, max_iter, basis)
        calls.append((basis, sol))
        return sol

    monkeypatch.setattr(hydrosp.lp, "solve_lp", recorded)
    return calls


def knapsack(n=8):
    """A binary knapsack whose branch and bound takes a dozen nodes."""
    rng = np.random.default_rng(5)
    return LinearProgram(c=rng.uniform(-1.0, 0.0, n),
                         A=rng.uniform(0.3, 1.0, (1, n)), senses=("<=",),
                         b=[2.3], lb=np.zeros(n), ub=np.ones(n))


def maintenance_de():
    """The deterministic equivalent of a two-scenario maintenance toy,
    whose branch and bound takes three nodes."""
    _, fp = maintenance_toy(T=6, n_scen=2)
    return build_deterministic_equivalent(fp)


def test_integral_relaxation_short_circuits():
    # relaxation optimum already lies on {0, 1}: no branching needed
    lp = LinearProgram(c=[-1.0, -1.0], A=[[1.0, 1.0]], senses=("<=",),
                       b=[2.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = solve_mbp(lp, binaries=(0, 1))
    assert sol.ok
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.nodes <= 1


def test_fractional_relaxation_branches():
    lp = LinearProgram(c=[-1.0, -1.0], A=[[1.0, 1.0]], senses=("<=",),
                       b=[1.5], lb=[0.0, 0.0], ub=[1.0, 1.0])
    relax = solve_lp(lp)
    assert relax.objective == pytest.approx(-1.5, abs=1e-9)
    sol = solve_mbp(lp, binaries=(0, 1))
    assert sol.ok
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert set(np.round(sol.x[:2], 6)) <= {0.0, 1.0}
    assert sol.nodes > 1


def test_infeasible_mbp():
    lp = LinearProgram(c=[1.0], A=[[1.0], [1.0]], senses=(">=", "<="),
                       b=[0.4, 0.6], lb=[0.0], ub=[1.0])
    assert solve_mbp(lp, binaries=(0,)).status == INFEASIBLE


def test_random_mbps_match_enumeration(rng):
    solved = 0
    for k in range(30):
        if k % 2:
            lp = random_lp(rng, m=int(rng.integers(1, 5)),
                           n=int(rng.integers(2, 7)))
        else:
            lp = feasible_lp(rng)
        nb = int(rng.integers(1, min(lp.nvars, 5) + 1))
        binaries = tuple(int(j) for j in
                         rng.choice(lp.nvars, size=nb, replace=False))
        lb = lp.lb.copy()
        ub = lp.ub.copy()
        for j in binaries:
            lb[j] = 0.0
            ub[j] = 1.0
        lp = LinearProgram(lp.c, lp.A, lp.senses, lp.b, lb, ub)
        truth = enumerate_binaries(lp, binaries)
        sol = solve_mbp(lp, binaries)
        if truth is None:
            assert sol.status == INFEASIBLE
        else:
            solved += 1
            assert sol.ok
            assert sol.objective == pytest.approx(truth, abs=1e-7, rel=1e-7)
            for j in binaries:
                assert abs(sol.x[j] - round(sol.x[j])) < 1e-6
    assert solved >= 8


def test_node_limit_reports_limit_status():
    rng = np.random.default_rng(5)
    n = 8
    lp = LinearProgram(c=rng.uniform(-1.0, 0.0, n),
                       A=rng.uniform(0.3, 1.0, (1, n)), senses=("<=",),
                       b=[2.3], lb=np.zeros(n), ub=np.ones(n))
    sol = solve_mbp(lp, binaries=tuple(range(n)), node_limit=1)
    assert sol.status == LIMIT


def test_warm_start_matches_cold(rng):
    for _ in range(10):
        lp = random_lp(rng, m=3, n=5)
        binaries = (0, 1)
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for j in binaries:
            lb[j], ub[j] = 0.0, 1.0
        lp = LinearProgram(lp.c, lp.A, lp.senses, lp.b, lb, ub)
        cold = solve_mbp(lp, binaries)
        warm = solve_mbp(lp, binaries, warm=np.full(lp.nvars, 0.5))
        assert cold.status == warm.status
        if cold.ok:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_mbp_de_matches_highs():
    rng = np.random.default_rng(42)
    fp = random_two_stage(rng, n_scen=2, binaries=(0, 1))
    de = build_deterministic_equivalent(fp)
    sol = solve_mbp(de.lp, de.binaries)
    ref = scipy_solve(de.lp, binaries=de.binaries)
    assert ref.status == 0
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("warm", [False, True])
def test_mbp_iterations_sum_every_lp_solved(lp_calls, warm):
    lp = knapsack()
    start = np.zeros(lp.nvars) if warm else None
    sol = solve_mbp(lp, binaries=range(lp.nvars), warm=start)
    assert sol.ok and sol.nodes > 1
    # the warm probe is one solve more than the nodes
    assert len(lp_calls) == sol.nodes + warm
    assert sol.iterations == sum(s.iterations for _, s in lp_calls)
    # a node LP's duals are not the MIP's
    assert sol.duals is None and sol.reduced_costs is None


def test_child_nodes_start_from_their_parents_basis(lp_calls):
    de = maintenance_de()
    sol = solve_mbp(de.lp, de.binaries)
    assert sol.ok and sol.nodes == len(lp_calls) > 1
    (root_basis, _), children = lp_calls[0], lp_calls[1:]
    assert root_basis is None
    for k, (basis, child) in enumerate(children, start=1):
        assert isinstance(basis, Basis)
        assert child.warm_started
        # the arrays of a basis an earlier node returned, not a copy
        assert any(s.basis is not None and basis.basic is s.basis.basic
                   and basis.status is s.basis.status
                   for _, s in lp_calls[:k])


def test_warm_root_starts_from_the_probes_point(lp_calls):
    lp = knapsack()
    warm = np.zeros(lp.nvars)
    warm[:2] = 1.0
    sol = solve_mbp(lp, binaries=range(lp.nvars), warm=warm)
    assert sol.ok
    (probe_basis, probe), (root_basis, root) = lp_calls[:2]
    assert probe_basis is None and probe.ok
    assert root_basis is not None and root.warm_started
    assert np.array_equal(root_basis.basic, probe.basis.basic)
    # each nonbasic binary at the bound that holds the probe's value: 0 at
    # lower, 1 at upper; the slacks' states as the probe left them
    n = lp.nvars
    nonbasic = probe.basis.status[:n] != 3
    assert nonbasic.any()
    assert np.array_equal(root_basis.status[:n][nonbasic], warm[nonbasic])
    assert np.array_equal(root_basis.status[n:], probe.basis.status[n:])


def test_mbp_repeats_exactly():
    de = maintenance_de()
    for warm in (None, np.full(de.lp.nvars, 0.5)):
        a = solve_mbp(de.lp, de.binaries, warm=warm)
        b = solve_mbp(de.lp, de.binaries, warm=warm)
        assert a.ok
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.nodes, a.iterations) == (b.nodes, b.iterations)


def test_infeasible_warm_child_is_pruned(lp_calls):
    # the relaxation sits at x0 = 0.5; the child x0 = 0 is infeasible
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 0.0], [1.0, 1.0]],
                       senses=(">=", ">="), b=[0.4, 0.5],
                       lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = solve_mbp(lp, binaries=(0,))
    assert sol.ok and sol.nodes == 3
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == 1.0
    statuses = [(s.status, s.warm_started) for _, s in lp_calls[1:]]
    assert sorted(statuses) == [(INFEASIBLE, True), (OPTIMAL, True)]
