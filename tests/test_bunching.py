"""Bunching: ``lp.BasisBunch`` settles stacked programs that share a
matrix at one basis, and ``core._stage_values`` sends every program it
cannot settle to the simplex kernel."""

from concurrent.futures import ThreadPoolExecutor
import weakref

import numpy as np
import pytest

import hydrosp.lp
from hydrosp import _simplex, core, lshaped
from hydrosp.core import (FiniteProgram, _stage_lp, _stage_values, bunched,
                          scenario_stages)
from hydrosp.lp import Basis, BasisBunch, _certificate, solve_lp
from hydrosp.models import compute_water_value
from _reference import per_program_settle
from _toys import (hydro_scenarios, random_two_stage, rhs_chain,
                   river_capacity, two_plant)


def _lps(fp, x):
    sign = fp.program.sign
    return [_stage_lp(st, x, sign) for st in scenario_stages(fp)]


def _stacked(lps):
    """The right-hand sides and costs of ``lps``, one row each."""
    return [np.array([getattr(lp, f) for lp in lps]) for f in ("b", "c")]


def _settle(lps, basis):
    return BasisBunch(lps[0], basis).settle(*_stacked(lps))


def _certified(lp, sol):
    """Whether ``sol`` passes the certificate as the one program of a
    stack."""
    b, c = _stacked([lp])
    return all(worst[0] <= tol for _, worst, tol in _certificate(
        lp.matrix, lp.senses, b, c, lp.lb, lp.ub, sol.x[None],
        sol.duals[None], sol.reduced_costs[None]))


def _programs(seeds):
    """(program, first stage) pairs: scenarios differing in h alone, and
    scenarios differing in q, T and h."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        fp = rhs_chain(rng, 12, 8, 8, 0.3)
        yield fp, fp.program.first_stage.lb
        fp = random_two_stage(rng, n_scen=8)
        yield fp, rng.uniform(0.0, 4.0, fp.program.first_stage.nvars)


def test_bunched_solutions_match_warm_kernel_solves():
    settled = refused = 0
    for fp, x in _programs(range(10)):
        lps = _lps(fp, x)
        lead = solve_lp(lps[0])
        assert lead.ok
        # a program is always optimal at its own optimal basis
        assert _settle(lps[:1], lead.basis)[0] is not None
        for lp, sol in zip(lps[1:], _settle(lps[1:], lead.basis)):
            if sol is None:
                refused += 1
                continue
            settled += 1
            assert sol.ok and sol.iterations == 0 and sol.warm_started
            assert sol.basis is lead.basis
            assert _certified(lp, sol)
            kernel = solve_lp(lp, basis=lead.basis)
            assert kernel.ok and kernel.warm_started
            assert sol.objective == pytest.approx(kernel.objective, rel=1e-9,
                                                  abs=1e-9)
    assert settled and refused


def _same_bits(a, b):
    """Assert that two lists of solutions agree bit for bit: the same
    programs settled, with identical x, duals, reduced costs and
    objective."""
    assert [s is None for s in a] == [s is None for s in b]
    for s, t in zip(a, b):
        if s is not None:
            assert s.basis is t.basis and s.iterations == t.iterations == 0
            assert s.objective == t.objective
            for f in ("x", "duals", "reduced_costs"):
                assert getattr(s, f).tobytes() == getattr(t, f).tobytes(), f


def test_stacked_settle_matches_the_per_program_settle_bit_for_bit():
    settled = 0
    for fp, x in _programs(range(10)):
        lps = _lps(fp, x)
        bunch = BasisBunch(lps[0], solve_lp(lps[0]).basis)
        got = bunch.settle(*_stacked(lps[1:]))
        _same_bits(got, per_program_settle(bunch, *_stacked(lps[1:])))
        settled += sum(s is not None for s in got)
    assert settled


def test_settle_takes_stacked_arrays_of_the_bunch_shape():
    a = _lps(rhs_chain(np.random.default_rng(0), 4, 3, 2, 0.1),
             np.zeros(2))
    bunch = BasisBunch(a[0], solve_lp(a[0]).basis)
    b, c = _stacked(a)
    assert bunch.settle(b[:0], c[:0]) == []
    with pytest.raises(ValueError, match="expected"):
        bunch.settle(b[:, :-1], c)
    with pytest.raises(ValueError, match="expected"):
        bunch.settle(b, c[:1])


def test_programs_must_share_matrix_and_senses():
    # a bunch settles its programs against its own matrix, senses and
    # bounds, so the fan-out's stages must share them: they hold the
    # program's one recourse
    fp = random_two_stage(np.random.default_rng(0), n_scen=3)
    stages = scenario_stages(fp)
    assert all(st.senses is stages[0].senses for st in stages)


def test_basis_with_an_artificial_settles_nothing():
    # the kernel leaves an artificial basic on a redundant row; no basis
    # matrix of [A | I] can be formed from it
    fp = rhs_chain(np.random.default_rng(0), 6, 4, 3, 0.1)
    lps = _lps(fp, fp.program.first_stage.lb)
    lead = solve_lp(lps[0])
    m, n = lps[0].matrix.shape
    basic = lead.basis.basic.copy()
    basic[0] = n + m
    assert _settle(lps, Basis(basic, lead.basis.status)) == [None] * len(lps)


# ------------------------------------------------- fallbacks to the kernel

def _three(variant):
    """A program of scenario 0, an exact copy of it (which bunches) and
    ``variant(scenario 0, its kernel solution)``."""
    fp = rhs_chain(np.random.default_rng(11), 12, 8, 1, 0.0)
    base = fp.scenarios[0]
    x = fp.program.first_stage.lb
    lead = solve_lp(_lps(fp, x)[0])
    scens = [base, dict(base), variant(base, lead)]
    return FiniteProgram(fp.program, scens), x


def _kernel_runs(monkeypatch, fp, x):
    """``_stage_values`` at x, and the scenarios the kernel solved."""
    stages = scenario_stages(fp)
    solved = []
    stage_solve = core.solve_stage

    def spy(stage, x, sign, basis=None, lp=None):
        solved.append(stages.index(stage))
        return stage_solve(stage, x, sign, basis=basis, lp=lp)

    monkeypatch.setattr(core, "solve_stage", spy)
    return _stage_values(fp, stages, x), solved


def _certificates(monkeypatch):
    """Count the programs ``BasisBunch.settle`` hands to the certificate."""
    seen = []
    real = hydrosp.lp._certificate

    def counted(A, senses, b, *args):
        seen.extend([1] * len(b))
        return real(A, senses, b, *args)

    monkeypatch.setattr(hydrosp.lp, "_certificate", counted)
    return seen


def _cold(fp, x):
    return [solve_lp(lp) for lp in _lps(fp, x)]


def test_primal_infeasible_at_the_basis_reaches_the_kernel(monkeypatch):
    rng = np.random.default_rng(3)

    def moved(base, lead):
        return dict(base, h=base["h"] + 5.0 * rng.normal(size=base["h"].size))

    fp, x = _three(moved)
    lps = _lps(fp, x)
    lead = solve_lp(lps[0])
    seen = _certificates(monkeypatch)
    out = _settle(lps[1:], lead.basis)
    # the moved scenario has scenario 0's costs and bounds, so only its
    # basic values can fail, and it never reaches the certificate
    assert out[0] is not None and out[1] is None and len(seen) == 1
    sols, solved = _kernel_runs(monkeypatch, fp, x)
    assert solved == [0, 2] and bunched(sols) == 1
    assert sols[1].basis is sols[0].basis
    assert sols[2].basis is not sols[0].basis and sols[2].iterations > 0
    for s, c in zip(sols, _cold(fp, x)):
        assert s.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)


def test_dual_infeasible_at_the_basis_reaches_the_kernel(monkeypatch):
    def repriced(base, lead):
        # make one nonbasic column of scenario 0's basis improving; the
        # first n2 = 8 columns are bounded, so the program stays bounded
        n2 = 8
        j = next(j for j in range(n2) if lead.basis.status[j] in (0, 1))
        q = base["q"].copy()
        d = lead.reduced_costs[j]
        q[j] += -(d + 1.0) if lead.basis.status[j] == 0 else 1.0 - d
        return dict(base, q=q)

    fp, x = _three(repriced)
    lps = _lps(fp, x)
    lead = solve_lp(lps[0])
    seen = _certificates(monkeypatch)
    out = _settle(lps[1:], lead.basis)
    # the repriced scenario has scenario 0's basic values, so only its
    # reduced costs can fail, and it never reaches the certificate
    assert out[0] is not None and out[1] is None and len(seen) == 1
    sols, solved = _kernel_runs(monkeypatch, fp, x)
    assert solved == [0, 2] and bunched(sols) == 1
    assert sols[2].iterations > 0
    for s, c in zip(sols, _cold(fp, x)):
        assert s.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)


def test_singular_basis_matrix_reaches_the_kernel(monkeypatch):
    fp = rhs_chain(np.random.default_rng(6), 12, 8, 5, 0.5)
    x = fp.program.first_stage.lb
    plain = _stage_values(fp, scenario_stages(fp), x)
    assert bunched(plain) > 0

    def raise_singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    start_inverse = hydrosp.lp._start_inverse

    def singular(*args):
        # the bunch's inverse only: the kernel inverts its bases as before
        with monkeypatch.context() as patch:
            patch.setattr(_simplex, "_invert", raise_singular)
            return start_inverse(*args)

    monkeypatch.setattr(hydrosp.lp, "_start_inverse", singular)
    sols, solved = _kernel_runs(monkeypatch, fp, x)
    assert sorted(solved) == list(range(5)) and bunched(sols) == 0
    for s, p in zip(sols, plain):
        assert s.objective == pytest.approx(p.objective, rel=1e-9, abs=1e-9)


def test_tampered_bunched_solution_is_refused_by_the_certificate(
        monkeypatch):
    fp = rhs_chain(np.random.default_rng(6), 12, 8, 5, 0.5)
    x = fp.program.first_stage.lb
    plain = _stage_values(fp, scenario_stages(fp), x)
    assert bunched(plain) > 0
    refused = []
    real = hydrosp.lp._certificate
    settle = BasisBunch.settle

    def tampered(A, senses, b, c, lb, ub, x, y, d):
        # shift every stacked candidate the bunch certifies off its optimum
        checks = real(A, senses, b, c, lb, ub, x + 1e-3, y, d)
        refused.extend(np.any([worst > tol for _, worst, tol in checks],
                              axis=0))
        return checks

    def tampering(self, *args):
        monkeypatch.setattr(hydrosp.lp, "_certificate", tampered)
        try:
            return settle(self, *args)
        finally:
            monkeypatch.setattr(hydrosp.lp, "_certificate", real)

    monkeypatch.setattr(BasisBunch, "settle", tampering)
    sols, solved = _kernel_runs(monkeypatch, fp, x)
    assert len(refused) == bunched(plain) and all(refused)
    assert sorted(solved) == list(range(5)) and bunched(sols) == 0
    for s, p in zip(sols, plain):
        assert s.objective == pytest.approx(p.objective, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------ chunked fan-out

def test_chunks_share_one_inverse_and_workers_change_no_bit(monkeypatch):
    fp = rhs_chain(np.random.default_rng(6), 12, 8, 9, 0.5)
    stages = scenario_stages(fp)
    x = fp.program.first_stage.lb
    whole = _stage_values(fp, stages, x)
    assert 0 < bunched(whole) < fp.n_scenarios - 1
    kernel = [0] + [i for i, s in enumerate(whole)
                    if i and s.basis is not whole[0].basis]
    inverses = []
    built = []
    bunches = []
    start_inverse, stage_lp = hydrosp.lp._start_inverse, core._stage_lp

    def counted_inverse(*args):
        inverses.append(1)
        return start_inverse(*args)

    def counted_lp(stage, *args):
        built.append(stages.index(stage))
        alive.append(sum(b() is not None for b in bunches))
        return stage_lp(stage, *args)

    def tracked_bunch(*args):
        bunch = BasisBunch(*args)
        bunches.append(weakref.ref(bunch))
        return bunch

    monkeypatch.setattr(hydrosp.lp, "_start_inverse", counted_inverse)
    monkeypatch.setattr(core, "_stage_lp", counted_lp)
    monkeypatch.setattr(core, "BasisBunch", tracked_bunch)
    for chunk in (1, 2, 4):
        monkeypatch.setattr(core, "BUNCH_CHUNK", chunk)
        inverses.clear()
        built.clear()
        alive = []
        sols = _stage_values(fp, stages, x)
        # one inverse for every chunk; a LinearProgram is built for
        # scenario 0 and for each scenario the kernel solves, once, and
        # for no bunched one
        assert len(inverses) == 1
        assert sorted(built) == kernel
        # the bunch, with its inverse, is gone before the first fallback
        assert alive == [0] * len(kernel)
        assert [s.basis is sols[0].basis for s in sols] == \
            [w.basis is whole[0].basis for w in whole]
        for s, w in zip(sols, whole):
            # a product with more rows may round differently in BLAS
            assert s.objective == pytest.approx(w.objective, rel=1e-12)
        # the fan-out keeps no state between calls, so the same fan-out
        # run in worker threads at once changes no bit
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(lambda _: _stage_values(fp, stages, x),
                                 range(2)))
        for again in runs:
            assert [s.basis is again[0].basis for s in again] == \
                [s.basis is sols[0].basis for s in sols]
            for s, w in zip(again, sols):
                assert s.objective == w.objective
                assert s.x.tobytes() == w.x.tobytes()


def test_river_capacity_fan_outs_match_the_per_program_settle(monkeypatch):
    # every fan-out of L-shaped runs on 12 instances of the capacity
    # workload's model: the stacked test settles what the per-program one
    # settled, bit for bit
    settle = BasisBunch.settle
    compared = []

    def both(self, b, c):
        got = settle(self, b, c)
        _same_bits(got, per_program_settle(self, b, c))
        compared.append(sum(s is not None for s in got))
        return got

    monkeypatch.setattr(BasisBunch, "settle", both)
    for seed in range(12):
        compared.clear()
        res = lshaped.solve(river_capacity(12, seed=seed))
        assert res.converged
        assert len(compared) == res.iterations and sum(compared) > 0


def test_one_scenario_fan_out_builds_no_bunch(monkeypatch):
    # with no other scenario to test, a bunch would only invert scenario
    # 0's basis matrix: one m x m inverse per L-shaped iteration and
    # water-value anchor
    def no_bunch(*args, **kwargs):
        raise AssertionError("a bunch built for a single scenario")

    monkeypatch.setattr(core, "BasisBunch", no_bunch)
    rng = np.random.default_rng(29)
    fp = random_two_stage(rng, n_scen=1)
    x = rng.uniform(0.0, 4.0, fp.program.first_stage.nvars)
    cold = solve_lp(_lps(fp, x)[0])
    cx = float(fp.program.first_stage.c @ x)
    assert core.scenario_values(fp, x)[0] == pytest.approx(
        cx + fp.program.sign * cold.objective, rel=1e-9, abs=1e-9)
    net = two_plant()
    pool = compute_water_value(net, hydro_scenarios(rng, net, 8, 1),
                               horizon_hours=8)
    assert len(pool) >= 1
