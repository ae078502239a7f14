"""Two-stage stochastic program containers and whole-problem operations.

A TwoStageProgram holds the first-stage LP/MBP data and a template that
turns a ScenarioSample into the second-stage block (q, T, W, h, bounds);
a FiniteProgram pins down a scenario list with probabilities.  All
internal solves are minimization; max-sense programs are negated at entry
and results reported back in the user's sense.  The stages check their
arrays with ``lp.program_arrays``, as ``LinearProgram`` does, and
``embed_first_stage`` is the one routine that places the first stage in
a larger LP: the deterministic equivalent here, the L-shaped master in
``lshaped``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lp import (BasisBunch, LinearProgram, LpSolution, SparseMatrix,
                 program_arrays, solve_lp, solve_mbp, INFEASIBLE)
from .scenarios import ScenarioSample, PriceCurve, InflowVector
from .tolerances import FEASIBILITY_TOL, INTEGRALITY_TOL


@dataclass(frozen=True, eq=False)
class FirstStage:
    """min/max c'x s.t. A x (sense) b, lb <= x <= ub, the ``binaries`` in
    {0, 1}.  The arrays pass ``lp.program_arrays``, the check of
    ``lp.LinearProgram``: ``A`` becomes a SparseMatrix and the senses
    read-only int64 codes."""

    c: np.ndarray
    A: SparseMatrix
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binaries: tuple = ()

    def __post_init__(self):
        arrays = program_arrays(self.c, self.A, self.senses, self.b,
                                self.lb, self.ub)
        for name, v in zip(("c", "A", "senses", "b", "lb", "ub"), arrays):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "binaries", tuple(int(j) for j in self.binaries))

    @property
    def nvars(self):
        return len(self.c)


@dataclass(frozen=True, eq=False)
class SecondStage:
    """One scenario's recourse block: min/max q'y s.t. T x + W y (sense) h.

    All but ``T`` pass ``FirstStage``'s check, its messages naming q, W
    and h; ``T`` is a SparseMatrix with a row per entry of ``h``, a dense
    array converted.  The stages of a ``models`` builder share one
    immutable ``W``, senses, ``lb`` and ``ub``; use ``dataclasses.replace``
    to derive a block with others.
    """

    q: np.ndarray
    T: SparseMatrix
    W: SparseMatrix
    senses: np.ndarray
    h: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        arrays = program_arrays(self.q, self.W, self.senses, self.h,
                                self.lb, self.ub, names=("q", "W", "h"))
        for name, v in zip(("q", "W", "senses", "h", "lb", "ub"), arrays):
            object.__setattr__(self, name, v)
        m2 = len(self.h)
        T = self.T
        if not isinstance(T, SparseMatrix):
            T = np.asarray(T, dtype=np.float64)
            if T.ndim != 2:
                T = T.reshape(m2, -1) if T.size else T.reshape(m2, 0)
            T = SparseMatrix.from_dense(T)
        if T.shape[0] != m2:
            raise ValueError(f"T has {T.shape[0]} rows, expected {m2}")
        object.__setattr__(self, "T", T)

    @property
    def nvars(self):
        return len(self.q)

    @property
    def nrows(self):
        return len(self.h)


@dataclass(frozen=True, eq=False)
class TwoStageProgram:
    first_stage: FirstStage
    second_stage: object          # callable ScenarioSample -> SecondStage
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")

    @property
    def sign(self):
        # internal canonical sense is minimization
        return 1.0 if self.sense == "min" else -1.0


@dataclass(frozen=True, eq=False)
class FiniteProgram:
    program: TwoStageProgram
    scenarios: list
    probabilities: np.ndarray = None

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        n = len(self.scenarios)
        p = (np.full(n, 1.0 / n) if self.probabilities is None
             else np.asarray(self.probabilities, dtype=np.float64))
        if len(p) != n:
            raise ValueError("probability count must match scenario count")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "probabilities", p)

    @property
    def n_scenarios(self):
        return len(self.scenarios)


def scenario_stages(fp):
    """Instantiate all second-stage blocks and check structural invariants.

    Recourse must be fixed: every scenario's ``W`` and row senses must be
    the first one's (as the model builders return them) or equal them, and
    an equal copy is replaced by the first, so the N blocks hold a single
    copy of the immutable column store and of the sense codes; each stage
    keeps its own sparse ``T``.
    """
    n1 = fp.program.first_stage.nvars
    stages = []
    first = None
    for i, s in enumerate(fp.scenarios):
        try:
            st = fp.program.second_stage(s)
        except ValueError as exc:
            raise ValueError(f"scenario {i}: {exc}") from exc
        if st.T.shape[1] != n1:
            raise ValueError(
                f"scenario {i}: T has {st.T.shape[1]} first-stage columns, "
                f"expected {n1}")
        if first is None:
            first = st
        elif st.W is not first.W or st.senses is not first.senses:
            if st.W != first.W:
                raise ValueError(f"scenario {i}: recourse matrix W varies "
                                 "across scenarios (fixed recourse required)")
            if not np.array_equal(st.senses, first.senses):
                raise ValueError(f"scenario {i}: row senses vary across "
                                 "scenarios (fixed recourse required)")
            st = replace(st, W=first.W, senses=first.senses)
        stages.append(st)
    return stages


# scenarios tested at scenario 0's basis at a time: bounds the stacked
# test arrays a fan-out holds at once
BUNCH_CHUNK = 32


def _stage_lp(stage, x, sign):
    """One scenario's subproblem at a fixed first stage (internal min)."""
    return LinearProgram(sign * stage.q, stage.W, stage.senses,
                         stage.h - stage.T @ x, stage.lb, stage.ub)


def solve_stage(stage, x, sign, basis=None, lp=None):
    """Solve one scenario subproblem at a fixed first stage (internal min);
    ``basis`` is passed on to ``solve_lp`` as its starting basis, and
    ``lp`` is the subproblem when the caller has built it already."""
    return solve_lp(_stage_lp(stage, x, sign) if lp is None else lp,
                    basis=basis)


def _stage_values(fp, stages, x, bases=None):
    """Solve every scenario subproblem at x; returns the solutions in
    scenario order.

    Every fan-out follows one rule, built on bunching (Wets 1988; Birge &
    Louveaux, section 5.4).  The stages share one recourse matrix ``W``, so
    a basis of one subproblem is a basis of all of them:

    1. the kernel solves scenario 0 from its start;
    2. every other scenario is tested at the basis scenario 0 ended in
       (``lp.BasisBunch``: one inverse of its basis matrix for them all,
       tested on the stacked right-hand sides ``h - T x``, costs and
       bounds of a chunk), and those optimal there are settled without a
       simplex call; they carry that very basis object (see ``bunched``);
    3. only the scenarios that fail the test go to ``solve_stage``, which
       builds their subproblems; no other scenario's ``LinearProgram`` is
       built.

    Without ``bases`` scenario 0 runs cold and the others fall back from
    its basis.  With ``bases``, a list of N bases (or ``None``), scenario
    i starts from ``bases[i]`` and ``None`` means a cold start; L-shaped
    hands each scenario of an iterate the basis its previous solve ended
    in.  The scenarios after the first are tested and solved
    ``BUNCH_CHUNK`` at a time, so the memory of a fan-out does not grow
    with N.  No basis passes from one fallback to another, so each result
    depends only on its own scenario, start and scenario 0's basis.

    A start basis that cannot be reused (it holds an artificial, or its
    matrix is singular) makes that one solve start cold (see
    ``solve_lp``).  The returned bases' ``basic`` and ``status`` arrays are
    read-only, since one basis may start or settle many solves.
    """
    sign = fp.program.sign
    n = len(stages)
    if bases is not None and len(bases) != n:
        raise ValueError(f"{len(bases)} start bases for {n} scenarios")

    def solve(i, start, lp=None):
        sol = solve_stage(stages[i], x, sign, basis=start, lp=lp)
        if sol.status == INFEASIBLE:
            raise RuntimeError(
                f"scenario {i}: second stage infeasible at the given "
                "first stage (models are expected to have complete "
                "recourse)")
        if not sol.ok:
            raise RuntimeError(f"scenario {i}: subproblem solve failed "
                               f"({sol.status})")
        sol.basis.basic.flags.writeable = False
        sol.basis.status.flags.writeable = False
        return sol

    lp0 = _stage_lp(stages[0], x, sign)
    lead = solve(0, None if bases is None else bases[0], lp0)
    bunch = BasisBunch(lp0, lead.basis)
    starts = [lead.basis] * n if bases is None else bases
    sols = [lead]
    for first in range(1, n, BUNCH_CHUNK):
        idx = range(first, min(first + BUNCH_CHUNK, n))
        chunk = [stages[i] for i in idx]
        tx = ([st.T @ x for st in chunk]
              if any(st.T is not chunk[0].T for st in chunk)
              else chunk[0].T @ x)
        got = bunch.settle(np.array([st.h for st in chunk]) - tx,
                           sign * np.array([st.q for st in chunk]),
                           np.array([st.lb for st in chunk]),
                           np.array([st.ub for st in chunk]))
        sols += [solve(i, starts[i]) if sol is None else sol
                 for i, sol in zip(idx, got)]
    return sols


def bunched(sols):
    """How many of the solutions ``_stage_values`` returned were settled at
    scenario 0's basis without a simplex call."""
    return sum(sol.basis is sols[0].basis for sol in sols[1:])


def embed_first_stage(fs, sign, c, lb, ub, rows, cols, vals, senses, b):
    """The internal-min LP of the first stage's columns and rows followed
    by extra columns (costs ``c``, bounds ``lb``, ``ub``) and extra rows
    (``senses``, right-hand side ``b``).  The extra rows' nonzeros are the
    triplets in the lists of arrays ``rows``, ``cols`` and ``vals``, a row
    counted from the first extra row and a column in the whole program."""
    m1 = fs.A.shape[0]
    i, j, v = fs.A.triplets()
    A = SparseMatrix.from_triplets(
        (m1 + len(b), fs.nvars + len(c)),
        np.concatenate([i, m1 + np.concatenate(rows)]),
        np.concatenate([j, *cols]), np.concatenate([v, *vals]))
    return LinearProgram(np.concatenate([sign * fs.c, c]), A,
                         np.concatenate([fs.senses, senses]),
                         np.concatenate([fs.b, b]),
                         np.concatenate([fs.lb, lb]),
                         np.concatenate([fs.ub, ub]))


@dataclass(frozen=True, eq=False)
class DeterministicEquivalent:
    lp: LinearProgram             # internal min sense
    binaries: tuple
    n_first: int
    y_offsets: tuple              # start column of each scenario block
    stages: list
    sign: float


def build_deterministic_equivalent(fp):
    """One monolithic LP/MBP over (x, y_1..y_N), in internal min sense:
    ``embed_first_stage`` with, per scenario, the columns of y_s and rows
    holding ``T`` in the first-stage columns and ``W`` in y_s's own."""
    fs = fp.program.first_stage
    stages = scenario_stages(fp)
    sign = fp.program.sign
    offs, rows, cols, vals = [], [], [], []
    off, r = fs.nvars, 0
    for st in stages:
        offs.append(off)
        for block, shift in ((st.T, 0), (st.W, off)):
            i, j, v = block.triplets()
            rows.append(i + r)
            cols.append(j + shift)
            vals.append(v)
        off += st.nvars
        r += st.nrows
    lp = embed_first_stage(
        fs, sign,
        np.concatenate([sign * p * st.q
                        for st, p in zip(stages, fp.probabilities)]),
        np.concatenate([st.lb for st in stages]),
        np.concatenate([st.ub for st in stages]), rows, cols, vals,
        np.concatenate([st.senses for st in stages]),
        np.concatenate([st.h for st in stages]))
    return DeterministicEquivalent(lp, fs.binaries, fs.nvars, tuple(offs),
                                   stages, sign)


@dataclass(frozen=True, eq=False)
class DeterministicSolution:
    x: np.ndarray
    objective: float              # user sense
    ys: list
    solution: LpSolution


def solve_deterministic(fp):
    de = build_deterministic_equivalent(fp)
    if de.binaries:
        sol = solve_mbp(de.lp, de.binaries)
    else:
        sol = solve_lp(de.lp)
    if not sol.ok:
        raise RuntimeError(f"deterministic equivalent solve failed: {sol.status}")
    x = sol.x[:de.n_first].copy()
    ys = [sol.x[off:off + st.nvars].copy()
          for off, st in zip(de.y_offsets, de.stages)]
    return DeterministicSolution(x, de.sign * sol.objective, ys, sol)


def check_first_stage_feasible(fs, x, tol=FEASIBILITY_TOL):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fs.nvars,):
        raise ValueError(f"first-stage vector has shape {x.shape}, "
                         f"expected ({fs.nvars},)")
    if np.any(x < fs.lb - tol) or np.any(x > fs.ub + tol):
        raise ValueError("first-stage decision violates variable bounds")
    res = fs.A @ x - fs.b
    # each row's violation: |res| for '=', res for '<=', -res for '>='
    bad = np.flatnonzero(np.choose(fs.senses, (np.abs(res), res, -res)) > tol)
    if bad.size:
        i = bad[0]
        raise ValueError(f"first-stage row {i} violated by {res[i]:.3e}")
    for j in fs.binaries:
        if abs(x[j] - round(x[j])) > INTEGRALITY_TOL:
            raise ValueError(f"first-stage variable {j} must be binary")


def scenario_values(fp, x):
    """Per-scenario totals c'x + Q(x, xi_s) in the user's sense."""
    x = np.asarray(x, dtype=np.float64)
    fs = fp.program.first_stage
    check_first_stage_feasible(fs, x)
    stages = scenario_stages(fp)
    sols = _stage_values(fp, stages, x)
    sign = fp.program.sign
    cx = float(fs.c @ x)
    return np.array([cx + sign * s.objective for s in sols])


def evaluate_decision(fp, x):
    """Expected objective of a fixed first-stage decision (user sense)."""
    vals = scenario_values(fp, x)
    return float(fp.probabilities @ vals)


def expected_scenario(scenarios, probabilities=None):
    """Probability-weighted component mean of the scenario payloads.

    Hydro samples average price and inflow component-wise; plain numeric
    payloads (scalars or arrays) average directly.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    n = len(scenarios)
    p = (np.full(n, 1.0 / n) if probabilities is None
         else np.asarray(probabilities, dtype=np.float64))
    p = p / p.sum()
    first = scenarios[0]
    if hasattr(first, "price") and hasattr(first, "inflow"):
        prices = sum(w * s.price.values for w, s in zip(p, scenarios))
        inflows = sum(w * s.inflow.values for w, s in zip(p, scenarios))
        return ScenarioSample(PriceCurve(prices), InflowVector(inflows))
    try:
        arrs = [np.asarray(s, dtype=np.float64) for s in scenarios]
    except (TypeError, ValueError):
        raise TypeError(
            "scenarios are neither hydro samples nor numeric payloads; "
            "cannot form their mean") from None
    mean = sum(w * a for w, a in zip(p, arrs))
    return float(mean) if np.ndim(mean) == 0 else mean


def solve_expected_value_problem(fp):
    """First-stage optimizer of the single-scenario mean problem."""
    mean = expected_scenario(fp.scenarios, fp.probabilities)
    ev = FiniteProgram(fp.program, [mean], np.array([1.0]))
    return solve_deterministic(ev).x

