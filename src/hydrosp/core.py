"""Two-stage stochastic program containers and whole-problem operations.

A TwoStageProgram holds the first-stage LP/MBP data, the one Recourse
(W, senses, bounds and the model's start basis) of every scenario, and a
template that turns a ScenarioSample into the scenario's (q, T, h); a
FiniteProgram pins down a scenario list with probabilities.  All internal
solves are minimization; max-sense programs are negated at entry and
results reported back in the user's sense.  Each array is checked once,
where it is built, and ``embed_first_stage`` is the one routine that
places the first stage in a larger LP: the deterministic equivalent
here, the L-shaped master in ``lshaped``.
"""

from dataclasses import dataclass

import numpy as np

from .lp import (Basis, BasisBunch, LinearProgram, LpSolution, SparseMatrix,
                 binary_columns, constraint_arrays, program_arrays, solve_lp,
                 solve_mbp, INFEASIBLE)
from .scenarios import ScenarioSample
from .tolerances import FEASIBILITY_TOL, INTEGRALITY_TOL


@dataclass(frozen=True, eq=False)
class FirstStage:
    """min/max c'x s.t. A x (sense) b, lb <= x <= ub, the ``binaries`` in
    {0, 1}.  The arrays pass ``lp.program_arrays``, the check of
    ``lp.LinearProgram``: ``A`` becomes a SparseMatrix, the senses
    read-only int64 codes and the bounds read-only arrays.  The binaries
    pass ``lp.binary_columns``, the check of ``lp.solve_mbp``."""

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
        object.__setattr__(self, "binaries", binary_columns(
            self.binaries, self.lb, self.ub))

    @property
    def nvars(self):
        return len(self.c)


@dataclass(frozen=True, eq=False)
class Recourse:
    """The rows ``W y (sense)`` and bounds ``lb <= y <= ub`` that every
    scenario's second stage shares: fixed recourse.  The arrays pass
    ``lp.constraint_arrays`` once, here, so every stage, subproblem and
    bunch holds these read-only objects.

    ``start``, if given, is the model's start basis, a crash basis in the
    sense of Bixby (1992): the column of ``[W | I]`` basic on each of the
    m rows (structural ``0..n-1``, the slack of row r at ``n + r``), m
    distinct columns kept as a read-only int64 array.  ``solve_stage``
    starts a subproblem from it when the caller gives no basis; the
    kernel still vets it as it does any start basis."""

    W: SparseMatrix
    senses: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    start: np.ndarray = None

    def __post_init__(self):
        arrays = constraint_arrays(self.W, self.senses, self.lb, self.ub,
                                   name="W")
        for name, v in zip(("W", "senses", "lb", "ub"), arrays):
            object.__setattr__(self, name, v)
        if self.start is not None:
            object.__setattr__(self, "start", _start_columns(
                self.start, *self.W.shape))

    def start_basis(self):
        """The ``lp.Basis`` of ``start``, None without one.  Its status
        array is built here, on every call, so the recourse holds only the
        m columns: a nonbasic structural sits at its lower bound, else its
        upper, else it is free (the kernel's slack-basis rule); a nonbasic
        slack at its one finite bound, the upper on a ``>=`` row."""
        if self.start is None:
            return None
        status = np.concatenate([
            np.where(self.lb > -np.inf, 0, np.where(self.ub < np.inf, 1, 2)),
            np.where(self.senses == 2, 1, 0)])
        status[self.start] = 3
        return Basis(self.start, status)


def _start_columns(start, m, n):
    """``start`` checked as the basic columns of an m-row recourse with n
    columns: m distinct integers in ``0..n+m-1``, as read-only int64."""
    cols = np.asarray(start)
    if cols.shape != (m,) or (cols.size and cols.dtype.kind not in "iu"):
        raise ValueError(f"start has shape {cols.shape} and dtype "
                         f"{cols.dtype}, expected ({m},) integers")
    cols = cols.astype(np.int64)
    bad = np.flatnonzero((cols < 0) | (cols >= n + m))
    if bad.size:
        raise ValueError(f"start column {cols[bad[0]]} of row {bad[0]} is "
                         f"outside 0..{n + m - 1}")
    seen = np.bincount(cols, minlength=n + m)
    if seen.max(initial=0) > 1:
        raise ValueError(f"start names column {np.argmax(seen)} more than "
                         "once")
    cols.flags.writeable = False
    return cols


@dataclass(frozen=True, eq=False)
class SecondStage:
    """One scenario's recourse block: min/max q'y s.t. T x + W y (sense) h,
    lb <= y <= ub.  ``W``, ``senses``, ``lb`` and ``ub`` are its
    ``recourse``'s own objects, not checked again; ``q`` and ``h`` must be
    finite and fit ``W``, and ``T`` is a SparseMatrix with a row per entry
    of ``h``, a dense 2-d array converted.  ``nvars`` and ``nrows`` are
    the shape of ``W``."""

    q: np.ndarray
    T: SparseMatrix
    h: np.ndarray
    recourse: Recourse

    def __post_init__(self):
        r = self.recourse
        m, n = r.W.shape
        q, h = (np.asarray(v, dtype=np.float64) for v in (self.q, self.h))
        if q.shape != (n,) or h.shape != (m,):
            raise ValueError(f"q and h have shapes {q.shape} and {h.shape}, "
                             f"expected ({n},) and ({m},)")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(h))):
            raise ValueError("q and h must be finite")
        T = (self.T if isinstance(self.T, SparseMatrix)
             else SparseMatrix.from_dense(self.T, "T"))
        if T.shape[0] != m:
            raise ValueError(f"T has {T.shape[0]} rows, expected {m}")
        for name, v in zip(
                ("q", "T", "h", "W", "senses", "lb", "ub", "nrows", "nvars"),
                (q, T, h, r.W, r.senses, r.lb, r.ub, m, n)):
            object.__setattr__(self, name, v)


@dataclass(frozen=True, eq=False)
class TwoStageProgram:
    first_stage: FirstStage
    recourse: Recourse
    second_stage: object          # callable ScenarioSample -> (q, T, h)
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")

    def stage(self, sample):
        """The SecondStage of ``sample``: its (q, T, h) and the recourse."""
        return SecondStage(*self.second_stage(sample), self.recourse)

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
    """The second-stage block of every scenario, in order: all hold the
    program's one recourse, and each its own ``T``, which must have a
    column per first-stage variable."""
    n1 = fp.program.first_stage.nvars
    stages = []
    for i, s in enumerate(fp.scenarios):
        try:
            st = fp.program.stage(s)
        except ValueError as exc:
            raise ValueError(f"scenario {i}: {exc}") from exc
        if st.T.shape[1] != n1:
            raise ValueError(
                f"scenario {i}: T has {st.T.shape[1]} first-stage columns, "
                f"expected {n1}")
        stages.append(st)
    return stages


# scenarios tested at scenario 0's basis at a time: bounds the stacked
# test arrays a fan-out holds at once
BUNCH_CHUNK = 32


def _stage_lp(stage, x, sign):
    """One scenario's subproblem at a fixed first stage (internal min)."""
    return LinearProgram(sign * stage.q, stage.W, stage.senses,
                         stage.h - stage.T @ x, stage.lb, stage.ub)


def solve_stage(stage, x, sign, basis=None, lp=None, inverse=None):
    """Solve one scenario subproblem at a fixed first stage (internal min);
    ``basis`` is passed on to ``solve_lp`` as its starting basis, the
    recourse's start basis if None (the slack basis if it has none), and
    ``lp`` is the subproblem when the caller has built it already.
    ``inverse``, the inverse of ``basis``'s matrix that a ``BasisBunch`` of
    the recourse holds, is passed on too: the solve starts from a copy."""
    if basis is None:
        basis = stage.recourse.start_basis()
    return solve_lp(_stage_lp(stage, x, sign) if lp is None else lp,
                    basis=basis, inverse=inverse)


def _stage_values(fp, stages, x, start=None):
    """Solve every scenario subproblem at x; returns the solutions in
    scenario order.

    Every fan-out follows one rule, built on bunching (Wets 1988; Birge &
    Louveaux, section 5.4).  The stages share one recourse, so a basis of
    one subproblem is a basis of all of them:

    1. the kernel solves scenario 0 from ``start``, else from the
       recourse's start basis (see ``solve_stage``); L-shaped passes the
       basis scenario 0 ended in at the previous iterate;
    2. every other scenario is tested at the basis scenario 0 ended in
       (``lp.BasisBunch``: one inverse of its basis matrix for them all,
       tested on the stacked right-hand sides ``h - T x`` and costs of
       ``BUNCH_CHUNK`` scenarios at a time), and those optimal there are
       settled without a simplex call; they carry that very basis object
       (see ``bunched``).  With one scenario no bunch is built;
    3. only the scenarios that fail the test go to ``solve_stage``, which
       builds their subproblems (no other scenario gets a
       ``LinearProgram``).  They start from scenario 0's final basis and a
       copy of the bunch's inverse of it, so that basis matrix is inverted
       once per fan-out, not once per fallback; the copy takes the place
       of the dense ``B`` a fallback would hold while inverting, and
       nothing the fan-out returns holds the inverse.

    No basis passes from one fallback to another, so each result depends
    only on its own scenario, ``start`` and scenario 0's basis, and a
    fallback is bit for bit the solve that inverts scenario 0's basis
    itself.  Scenario 0's solution also counts the bunch's factorization,
    so the ``factorizations`` of the returned solutions sum to the inverses
    the fan-out computed.

    A start basis that cannot be reused (it holds an artificial, or its
    matrix is singular) makes that one solve start from the slack basis
    (see ``solve_lp``).  The returned bases' ``basic`` and ``status``
    arrays are read-only, since one basis may start or settle many solves.
    """
    sign = fp.program.sign

    def solve(i, basis, lp=None, inverse=None):
        sol = solve_stage(stages[i], x, sign, basis=basis, lp=lp,
                          inverse=inverse)
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
    lead = solve(0, start, lp0)
    if len(stages) == 1:
        return [lead]
    bunch = BasisBunch(lp0, lead.basis)
    lead.factorizations += bunch.factorizations
    sols = [lead]
    for first in range(1, len(stages), BUNCH_CHUNK):
        chunk = stages[first:first + BUNCH_CHUNK]
        tx = ([st.T @ x for st in chunk]
              if any(st.T is not chunk[0].T for st in chunk)
              else chunk[0].T @ x)
        sols += bunch.settle(np.array([st.h for st in chunk]) - tx,
                             sign * np.array([st.q for st in chunk]))
    return [solve(i, lead.basis, inverse=bunch.inverse) if sol is None
            else sol for i, sol in enumerate(sols)]


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
    solution: LpSolution


def solve_deterministic(fp):
    de = build_deterministic_equivalent(fp)
    if de.binaries:
        sol = solve_mbp(de.lp, de.binaries)
    else:
        sol = solve_lp(de.lp)
    if not sol.ok:
        raise RuntimeError(f"deterministic equivalent solve failed: {sol.status}")
    return DeterministicSolution(sol.x[:de.n_first].copy(),
                                 de.sign * sol.objective, sol)


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


def scenario_solutions(fp, x):
    """Per-scenario totals c'x + Q(x, xi_s) in the user's sense of a
    feasible x, and the ``_stage_values`` solutions they come from."""
    x = np.asarray(x, dtype=np.float64)
    fs = fp.program.first_stage
    check_first_stage_feasible(fs, x)
    sols = _stage_values(fp, scenario_stages(fp), x)
    cx = float(fs.c @ x)
    return np.array([cx + fp.program.sign * s.objective for s in sols]), sols


def scenario_values(fp, x):
    """Per-scenario totals c'x + Q(x, xi_s) in the user's sense."""
    return scenario_solutions(fp, x)[0]


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
    if isinstance(scenarios[0], ScenarioSample):
        return ScenarioSample(sum(w * s.price for w, s in zip(p, scenarios)),
                              sum(w * s.inflow for w, s in zip(p, scenarios)))
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

