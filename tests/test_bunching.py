"""Bunching: ``lp.BasisBunch`` settles stacked programs that share a
matrix at one basis, and ``core._stage_values`` sends every program it
cannot settle to the simplex kernel."""

from concurrent.futures import ThreadPoolExecutor
import gc
import tracemalloc
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
                   river_capacity, river_day_ahead, two_plant)


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

    def spy(stage, x, sign, basis=None, lp=None, inverse=None):
        solved.append(stages.index(stage))
        return stage_solve(stage, x, sign, basis=basis, lp=lp,
                           inverse=inverse)

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
    start_inverse, stage_lp = hydrosp.lp._start_inverse, core._stage_lp

    def counted_inverse(*args):
        inverses.append(1)
        return start_inverse(*args)

    def counted_lp(stage, *args):
        built.append(stages.index(stage))
        return stage_lp(stage, *args)

    monkeypatch.setattr(hydrosp.lp, "_start_inverse", counted_inverse)
    monkeypatch.setattr(core, "_stage_lp", counted_lp)
    inverted = _inversions(monkeypatch)
    for chunk in (1, 2, 4):
        monkeypatch.setattr(core, "BUNCH_CHUNK", chunk)
        inverses.clear()
        built.clear()
        inverted.clear()
        sols = _stage_values(fp, stages, x)
        # one inverse for every chunk; a LinearProgram is built for
        # scenario 0 and for each scenario the kernel solves, once, and
        # for no bunched one
        assert len(inverses) == 1
        assert sum(s.factorizations for s in sols) == len(inverted)
        assert sorted(built) == kernel
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


# ------------------------------------------------ one inverse per fan-out

@pytest.fixture(scope="module")
def day_ahead():
    """The day-ahead evaluation at N=6 on the 15-plant river: no scenario
    bunches, so all five after the first fall back to the kernel."""
    fp, x = river_day_ahead(6)
    return fp, x, scenario_stages(fp)


def _fingerprint(B):
    return B.start.tobytes(), B.index.tobytes(), B.value.tobytes()


def _inversions(monkeypatch):
    """The basis matrix of every ``_simplex._invert`` call, fingerprinted:
    the kernel's starts and refactorizations and the bunch's."""
    seen = []
    invert = _simplex._invert

    def counted(B):
        seen.append(_fingerprint(B))
        return invert(B)

    monkeypatch.setattr(_simplex, "_invert", counted)
    return seen


def _same_solve(a, b):
    """Assert that two kernel solves agree bit for bit."""
    assert a.ok and b.ok and a.warm_started and b.warm_started
    assert (a.objective, a.iterations) == (b.objective, b.iterations)
    for f in ("x", "duals", "reduced_costs"):
        assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
    for f in ("basic", "status"):
        assert getattr(a.basis, f).tobytes() == \
            getattr(b.basis, f).tobytes(), f


def _bunches(monkeypatch):
    """Every bunch ``core`` builds, with a copy of its inverse as built."""
    made = []

    def kept(*args):
        bunch = BasisBunch(*args)
        made.append((bunch, None if bunch.inverse is None
                     else bunch.inverse.copy()))
        return bunch

    monkeypatch.setattr(core, "BasisBunch", kept)
    return made


def test_a_solve_from_a_given_inverse_pivots_a_copy():
    fp = rhs_chain(np.random.default_rng(3), 12, 8, 3, 0.5)
    lps = _lps(fp, fp.program.first_stage.lb)
    lead = solve_lp(lps[0])
    bunch = BasisBunch(lps[0], lead.basis)
    built = bunch.inverse.copy()
    for lp in lps[1:]:
        own = solve_lp(lp, basis=lead.basis)
        given = solve_lp(lp, basis=lead.basis, inverse=bunch.inverse)
        _same_solve(given, own)
        assert given.factorizations == own.factorizations - 1
    assert bunch.inverse.tobytes() == built.tobytes()
    with pytest.raises(ValueError, match="needs the basis"):
        solve_lp(lps[1], inverse=bunch.inverse)


def test_fallbacks_start_from_the_bunchs_inverse_bit_for_bit(monkeypatch,
                                                            day_ahead):
    fp, x, stages = day_ahead
    sign = fp.program.sign
    inverted = _inversions(monkeypatch)
    made = _bunches(monkeypatch)
    _, sols = core.scenario_solutions(fp, x)
    lead = sols[0]
    assert bunched(sols) == 0
    # scenario 0's final basis is inverted once, by the bunch, and every
    # fallback starts from it without an inverse of its own
    final = _fingerprint(_simplex._with_slacks(stages[0].W).take(
        lead.basis.basic))
    assert inverted.count(final) == 1
    # factorizations count every inverse, the bunch's once
    assert sum(s.factorizations for s in sols) == len(inverted)
    # the kernels pivoted copies: the shared array is as the bunch built
    # it, and read-only
    [(bunch, built)] = made
    assert bunch.inverse.tobytes() == built.tobytes()
    assert not bunch.inverse.flags.writeable
    monkeypatch.undo()
    for i in range(1, fp.n_scenarios):
        own = core.solve_stage(stages[i], x, sign, basis=lead.basis)
        _same_solve(sols[i], own)
        # the fallback's own inverse of scenario 0's basis is the one
        # factorization it did not make
        assert own.factorizations == sols[i].factorizations + 1


def _held_arrays(obj, seen):
    """Every numpy array reachable from obj through lists, tuples and
    instance attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _held_arrays(item, seen)


def test_the_shared_inverse_lives_only_for_the_fan_out(monkeypatch,
                                                      day_ahead):
    fp, x, stages = day_ahead
    m = stages[0].W.shape[0]
    inverses = []

    def tracked(*args):
        bunch = BasisBunch(*args)
        inverses.append(weakref.ref(bunch.inverse))
        return bunch

    monkeypatch.setattr(core, "BasisBunch", tracked)
    _, sols = core.scenario_solutions(fp, x)
    gc.collect()
    assert len(inverses) == 1 and inverses[0]() is None
    held = list(_held_arrays(sols, set()))
    assert held and max(a.size for a in held) < m * m


def test_a_refused_bunch_leaves_each_fallback_its_own_inverse(monkeypatch,
                                                             day_ahead):
    fp, x, stages = day_ahead
    shared = _stage_values(fp, stages, x)
    start_inverse = hydrosp.lp._start_inverse

    def refused(*args):
        # the bunch's probe fails: the kernel probes its starts as before
        with monkeypatch.context() as patch:
            patch.setattr(_simplex, "_fits", lambda B, Binv: False)
            return start_inverse(*args)

    monkeypatch.setattr(hydrosp.lp, "_start_inverse", refused)
    inverted = _inversions(monkeypatch)
    made = _bunches(monkeypatch)
    own = _stage_values(fp, stages, x)
    [(bunch, _)] = made
    assert bunch.inverse is None and bunch.factorizations == 1
    assert sum(s.factorizations for s in own) == len(inverted)
    # each fallback inverts scenario 0's basis itself, with the same bits
    _same_solve(own[0], shared[0])
    for s, o in zip(shared[1:], own[1:]):
        _same_solve(o, s)
        assert o.factorizations == s.factorizations + 1


def test_sharing_the_inverse_raises_no_peak(monkeypatch, day_ahead):
    # sharing disabled: the fallbacks get no inverse and compute their
    # own; the fan-out's peak with sharing is no higher
    fp, x, stages = day_ahead
    stage_solve = core.solve_stage

    def unshared(stage, x, sign, basis=None, lp=None, inverse=None):
        return stage_solve(stage, x, sign, basis=basis, lp=lp)

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sols = _stage_values(fp, stages, x)
            return tracemalloc.get_traced_memory()[1] - base, sols
        finally:
            tracemalloc.stop()

    # a first call may allocate what later calls reuse
    _stage_values(fp, stages, x)
    shared_peak, shared = peak()
    monkeypatch.setattr(core, "solve_stage", unshared)
    own_peak, own = peak()
    assert shared_peak <= own_peak
    for s, o in zip(shared, own):
        assert s.x.tobytes() == o.x.tobytes()
