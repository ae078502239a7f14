"""Two-stage stochastic program containers and whole-problem operations.

A TwoStageProgram holds the first-stage LP/MBP data and a template that
turns a ScenarioSample into the second-stage block (q, T, W, h, bounds);
a FiniteProgram pins down a scenario list with probabilities.  All
internal solves are minimization; max-sense programs are negated at entry
and results reported back in the user's sense.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lp import (LinearProgram, LpSolution, SparseMatrix, _as_sense_codes,
                 solve_lp, solve_mbp, INFEASIBLE)
from .scenarios import ScenarioSample, PriceCurve, InflowVector
from .tolerances import FEASIBILITY_TOL, INTEGRALITY_TOL


@dataclass(frozen=True, eq=False)
class FirstStage:
    """min/max c'x s.t. A x (sense) b, lb <= x <= ub, the ``binaries`` in
    {0, 1}.  ``A`` is a SparseMatrix; a dense array is converted."""

    c: np.ndarray
    A: SparseMatrix
    senses: tuple
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binaries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        n = len(self.c)
        A = self.A
        if not isinstance(A, SparseMatrix):
            A = np.asarray(A, dtype=np.float64)
            if A.ndim != 2:
                A = A.reshape(-1, n) if A.size else A.reshape(0, n)
            A = SparseMatrix.from_dense(A)
        m = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"A has {A.shape[1]} columns, expected {n}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        if len(self.senses) != m:
            raise ValueError(f"{len(self.senses)} row senses for {m} rows")
        for name in ("lb", "ub"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (n,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "binaries", tuple(int(j) for j in self.binaries))

    @property
    def nvars(self):
        return len(self.c)


@dataclass(frozen=True, eq=False)
class SecondStage:
    """One scenario's recourse block: min/max q'y s.t. T x + W y (sense) h.

    ``T`` and ``W`` are SparseMatrix column stores; dense arrays are
    converted.  The stages from ``scenario_stages`` share one ``W``, which
    is immutable; use ``dataclasses.replace`` to derive a block with a
    different one.
    """

    q: np.ndarray
    T: SparseMatrix
    W: SparseMatrix
    senses: tuple
    h: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))
        n2 = len(self.q)
        m2 = len(np.asarray(self.h))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        W = self.W
        if not isinstance(W, SparseMatrix):
            W = SparseMatrix.from_dense(
                np.asarray(W, dtype=np.float64).reshape(m2, n2))
        elif W.shape != (m2, n2):
            raise ValueError(f"W has shape {W.shape}, expected {(m2, n2)}")
        object.__setattr__(self, "W", W)
        T = self.T
        if not isinstance(T, SparseMatrix):
            T = np.asarray(T, dtype=np.float64)
            if T.ndim != 2:
                T = T.reshape(m2, -1) if T.size else T.reshape(m2, 0)
            T = SparseMatrix.from_dense(T)
        if T.shape[0] != m2:
            raise ValueError(f"T has {T.shape[0]} rows, expected {m2}")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "lb", np.asarray(self.lb, dtype=np.float64))
        object.__setattr__(self, "ub", np.asarray(self.ub, dtype=np.float64))

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

    Recourse must be fixed: every scenario's ``W`` must equal the first
    one's.  All returned stages then share that one immutable column store
    (its arrays are read-only), so the N blocks hold a single copy of
    ``W``; each stage keeps its own sparse ``T``.
    """
    n1 = fp.program.first_stage.nvars
    stages = []
    W0 = None
    for i, s in enumerate(fp.scenarios):
        st = fp.program.second_stage(s)
        if st.T.shape[1] != n1:
            raise ValueError(
                f"scenario {i}: T has {st.T.shape[1]} first-stage columns, "
                f"expected {n1}")
        if W0 is None:
            W0 = st.W
        elif st.W != W0:
            raise ValueError(f"scenario {i}: recourse matrix W varies across "
                             "scenarios (fixed recourse required)")
        else:
            st = replace(st, W=W0)
        stages.append(st)
    return stages


def solve_stage(stage, x, sign, basis=None):
    """Solve one scenario subproblem at a fixed first stage (internal min);
    ``basis`` is passed on to ``solve_lp`` as its starting basis."""
    rhs = stage.h - stage.T @ x
    lp = LinearProgram(sign * stage.q, stage.W, stage.senses, rhs,
                       stage.lb, stage.ub)
    return solve_lp(lp, basis=basis)


def _stage_values(fp, stages, x, workers=None, chain=True):
    """Solve every scenario subproblem at x; returns the solutions in
    scenario order.

    With ``chain`` each solve starts from the basis the previous scenario's
    solve ended in (basis reuse, as in bunching: Wets 1988).  The stages
    share one recourse matrix ``W``, so that basis stays a basis of the next
    subproblem and usually needs only a few pivots to become optimal again;
    only the first solve of a chain runs cold.  Serial runs chain all
    scenarios in order; with ``workers > 1`` the scenarios are split into
    one contiguous chunk per worker and each chunk is chained.  A basis that
    cannot be reused (it holds an artificial, or its matrix is singular)
    makes that one solve start cold (see ``solve_lp``).

    The basis is handed on with its inverse ``B^-1``, so a chained solve
    starts without a factorization, and the inverse's age carries along
    the chain until the kernel refactors.  The returned solutions keep
    their bases without the inverse: an N-scenario chain holds one
    inverse at a time, not N.
    """
    sign = fp.program.sign

    def run(indices):
        sols = []
        basis = None
        for i in indices:
            sol = solve_stage(stages[i], x, sign, basis=basis)
            if sol.status == INFEASIBLE:
                raise RuntimeError(
                    f"scenario {i}: second stage infeasible at the given "
                    "first stage (models are expected to have complete "
                    "recourse)")
            if not sol.ok:
                raise RuntimeError(f"scenario {i}: subproblem solve failed "
                                   f"({sol.status})")
            if chain:
                basis = sol.basis
            sol.basis = replace(sol.basis, inverse=None, age=0)
            sols.append(sol)
        return sols

    n = len(stages)
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        parts = np.array_split(np.arange(n), min(workers, n) if chain else n)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return [sol for part in pool.map(run, parts) for sol in part]
    return run(range(n))


@dataclass(frozen=True, eq=False)
class DeterministicEquivalent:
    lp: LinearProgram             # internal min sense
    binaries: tuple
    n_first: int
    y_offsets: tuple              # start column of each scenario block
    stages: list
    sign: float


def build_deterministic_equivalent(fp):
    """One monolithic LP/MBP over (x, y_1..y_N), in internal min sense.

    The constraint matrix is assembled from the blocks' nonzeros: the
    first-stage rows, then per scenario ``T`` in the first-stage columns
    and ``W`` in the scenario's own columns."""
    fs = fp.program.first_stage
    stages = scenario_stages(fp)
    sign = fp.program.sign
    n1 = fs.nvars
    offs = []
    n = n1
    for st in stages:
        offs.append(n)
        n += st.nvars
    m1 = fs.A.shape[0]
    m = m1 + sum(st.nrows for st in stages)

    c = np.zeros(n)
    c[:n1] = sign * fs.c
    lb = np.empty(n)
    ub = np.empty(n)
    lb[:n1] = fs.lb
    ub[:n1] = fs.ub
    b = np.empty(m)
    b[:m1] = fs.b
    senses = list(fs.senses)
    i, j, v = fs.A.triplets()
    rows, cols, vals = [i], [j], [v]

    r = m1
    for st, off, prob in zip(stages, offs, fp.probabilities):
        k, nv = st.nrows, st.nvars
        c[off:off + nv] = sign * prob * st.q
        lb[off:off + nv] = st.lb
        ub[off:off + nv] = st.ub
        for block, shift in ((st.T, 0), (st.W, off)):
            i, j, v = block.triplets()
            rows.append(i + r)
            cols.append(j + shift)
            vals.append(v)
        b[r:r + k] = st.h
        senses.extend(st.senses)
        r += k

    A = SparseMatrix.from_triplets((m, n), np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))
    lp = LinearProgram(c, A, senses, b, lb, ub)
    return DeterministicEquivalent(lp, fs.binaries, n1, tuple(offs), stages, sign)


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
    codes = _as_sense_codes(fs.senses, len(res))
    # each row's violation: |res| for '=', res for '<=', -res for '>='
    bad = np.flatnonzero(np.choose(codes, (np.abs(res), res, -res)) > tol)
    if bad.size:
        i = bad[0]
        raise ValueError(f"first-stage row {i} violated by {res[i]:.3e}")
    for j in fs.binaries:
        if abs(x[j] - round(x[j])) > INTEGRALITY_TOL:
            raise ValueError(f"first-stage variable {j} must be binary")


def scenario_values(fp, x, workers=None):
    """Per-scenario totals c'x + Q(x, xi_s) in the user's sense."""
    x = np.asarray(x, dtype=np.float64)
    fs = fp.program.first_stage
    check_first_stage_feasible(fs, x)
    stages = scenario_stages(fp)
    sols = _stage_values(fp, stages, x, workers=workers)
    sign = fp.program.sign
    cx = float(fs.c @ x)
    return np.array([cx + sign * s.objective for s in sols])


def evaluate_decision(fp, x, workers=None):
    """Expected objective of a fixed first-stage decision (user sense)."""
    vals = scenario_values(fp, x, workers=workers)
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

