"""Benders / L-shaped decomposition for two-stage programs.

The master carries the first-stage variables plus K epigraph variables
theta_g, one per cut group; ``LShapedConfig.groups`` sets K (N, one per
scenario, by default; 1 for the single-cut form; or a count in between).
Subproblem duals yield anchored optimality cuts

    theta_g >= Q(x_hat) - (T' lambda)' (x - x_hat)

which stay valid for any x because the dual feasible set of a subproblem
with fixed recourse does not depend on x.  Everything here works in an
internal minimization space; max-sense programs are negated on entry and
results mapped back.

The loop is the plain one: solve the master, cut at its solution, and stop
once the best master bound certifies the incumbent to ``gap_tol``, or once
no subproblem adds a new cut.  There is no regularizer: a trust region
around the incumbent took more iterations than the plain loop on every
model shipped here, because the multi-cut master already moves little
once its cuts are in place.  Nor are cuts ever dropped: each cut is exact
at the point it was taken at, where every other cut of its group is a
minorant, so it supports its group's model at that point for good, and an
age rule that keeps supporting cuts never removes one.
"""

from dataclasses import dataclass
import csv
import math
import time

import numpy as np

from .lp import LinearProgram, SparseMatrix, solve_lp, solve_mbp, OPTIMAL
from .core import bunched, scenario_stages, _stage_values


class NonConvergenceError(RuntimeError):
    """An iteration limit was reached before the gap closed."""


@dataclass(eq=False, slots=True)
class CutPool:
    """Affine cuts as exact-size arrays, one row r per cut:
    theta_group[r] >= intercept[r] + coef[r] . x (internal min convention).
    Left out, ``group`` puts cut r in group r."""

    coef: np.ndarray              # k x n1
    intercept: np.ndarray
    group: np.ndarray = None

    def __post_init__(self):
        if self.group is None:
            self.group = np.arange(len(self.intercept))

    def __len__(self):
        return len(self.intercept)

    def values(self, x):
        """Every cut's right-hand side at x."""
        return self.intercept + self.coef @ x

    def take(self, rows):
        """The pool of the cuts selected by ``rows`` (a mask or indices)."""
        return CutPool(self.coef[rows], self.intercept[rows], self.group[rows])

    def extend(self, other):
        """This pool followed by ``other``'s cuts, in new arrays."""
        return CutPool(*(np.concatenate([getattr(self, f), getattr(other, f)])
                         for f in ("coef", "intercept", "group")))


THETA_LB = -1e10            # floor on theta_g while group g has no cut


@dataclass(frozen=True)
class LShapedConfig:
    groups: int = None           # cut count K: None gives one per scenario
    max_iterations: int = 200
    gap_tol: float = 1e-7
    workers: int = None          # threads for the subproblems; None: serial

    def __post_init__(self):
        if self.groups is not None and self.groups < 1:
            raise ValueError("groups must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        # a negative or NaN tolerance would leave no gap small enough
        if not self.gap_tol >= 0:
            raise ValueError(f"gap_tol must be at least 0, got {self.gap_tol}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


@dataclass(slots=True)
class IterationRow:
    iteration: int
    master_objective: float      # user sense
    expected_recourse: float     # user sense, at the iteration's candidate
    gap: float
    cuts_added: int
    wall_time_ms: float
    subproblem_iterations: int   # simplex iterations of the N subproblems
    pool_size: int               # cuts in the pool after the iteration
    bunched: int                 # subproblems settled without a simplex call
    # no cut is ever dropped; the field stays, always 0, because the
    # benchmark harness reports it as lshaped.cuts_removed
    cuts_removed: int = 0


@dataclass(slots=True)
class LShapedResult:
    x: np.ndarray
    objective: float             # user sense
    converged: bool
    iterations: int
    cuts: CutPool
    expectation_cuts: CutPool    # one aggregated (K=1) cut per iteration
    log: list


def subproblem_cuts(x_hat, stages, sols):
    """The anchored cuts of the scenario subproblem solutions ``sols`` at
    ``x_hat``, cut s in group s, in the internal minimization convention:
    theta_s >= intercept[s] + coef[s] . x."""
    coef = np.array([-(sol.duals @ st.T) for st, sol in zip(stages, sols)])
    intercept = np.array([sol.objective - float(g @ x_hat)
                          for g, sol in zip(coef, sols)])
    return CutPool(coef, intercept)


def _groups(K, N):
    """The K x N membership matrix of the cut groups: scenario s belongs
    to group (s * K) // N."""
    if not 1 <= K <= N:
        raise ValueError(f"group count {K} must be in [1, {N}]")
    return np.arange(K)[:, None] == np.arange(N) * K // N


def aggregate(cuts, K, p):
    """Probability-blend the N scenario cuts ``cuts`` into K group cuts,
    cut g in group g, with the conditional probabilities p_s / p_g of the
    scenarios in each group.  A group of probability 0 takes the plain mean
    of its cuts: a valid cut whose theta costs nothing in the master.  K = N
    returns ``cuts`` itself."""
    if K == len(cuts):
        return cuts
    member = _groups(K, len(cuts))
    w = member * p
    empty = ~w.any(axis=1)
    w[empty] = member[empty]
    w /= w.sum(axis=1, keepdims=True)
    return CutPool(w @ cuts.coef, w @ cuts.intercept)


def _duplicate(pool, new, rtol=1e-12):
    """Mask of the cuts in ``new`` whose group already holds an essentially
    identical cut in ``pool``; ``new`` has at most one cut per group, as
    ``aggregate`` returns them: re-adding such a cut cannot change the
    master."""
    dup = np.zeros(len(new), dtype=bool)
    if not len(pool) or not len(new):
        return dup
    slot = np.full(max(pool.group.max(), new.group.max()) + 1, -1)
    slot[new.group] = np.arange(len(new))
    j = slot[pool.group]
    rows = np.flatnonzero(j >= 0)
    j = j[rows]
    scale = rtol * (1.0 + np.abs(new.coef).max(axis=1, initial=0.0))
    twin = ((np.abs(pool.intercept[rows] - new.intercept[j])
             <= rtol * (1.0 + np.abs(new.intercept[j])))
            & (np.abs(pool.coef[rows] - new.coef[j]).max(axis=1, initial=0.0)
               <= scale[j]))
    dup[j[twin]] = True
    return dup


def _build_master(fs, sign, pool, pg):
    n1 = fs.nvars
    K = len(pg)
    n = n1 + K
    c = np.zeros(n)
    c[:n1] = sign * fs.c
    c[n1:] = pg
    # groups already covered by a cut get a free theta: the artificial
    # floor only guards groups with no cut yet, and dropping it spares the
    # simplex a long climb from THETA_LB every solve
    tlb = np.full(K, THETA_LB)
    tlb[pool.group] = -np.inf
    lb = np.concatenate([fs.lb, tlb])
    ub = np.concatenate([fs.ub, np.full(K, np.inf)])

    m1, k = fs.A.shape[0], len(pool)
    b = np.concatenate([fs.b, pool.intercept])
    senses = list(fs.senses) + [">="] * k
    i, j, v = fs.A.triplets()
    # cut row r: theta_group - coef . x >= intercept
    r = m1 + np.arange(k)
    rows = [i, np.repeat(r, n1), r]
    cols = [j, np.tile(np.arange(n1), k), n1 + pool.group]
    vals = [v, -pool.coef.ravel(), np.ones(k)]
    A = SparseMatrix.from_triplets((m1 + k, n), np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))
    return LinearProgram(c, A, senses, b, lb, ub)


def _solve_master(lp, fs, warm=None):
    if fs.binaries:
        return solve_mbp(lp, fs.binaries, warm=warm)
    return solve_lp(lp)


def solve(fp, config=None):
    """Run the L-shaped method on a finite two-stage program."""
    if config is None:
        config = LShapedConfig()
    fs = fp.program.first_stage
    sign = fp.program.sign
    stages = scenario_stages(fp)
    N = len(stages)
    probs = fp.probabilities

    K = N if config.groups is None else config.groups
    pg = _groups(K, N) @ probs

    n1 = fs.nvars
    pool = CutPool(np.empty((0, n1)), np.empty(0))
    bases = None
    expectation_cuts = CutPool(np.empty((0, n1)), np.empty(0))
    log = []
    x_inc = None
    f_inc = math.inf      # internal objective at incumbent
    best_lb = -math.inf
    converged = False
    warm = None

    for it in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()

        msol = _solve_master(_build_master(fs, sign, pool, pg), fs, warm=warm)
        if msol.status != OPTIMAL:
            raise RuntimeError(
                f"master problem {msol.status} at iteration {it}; "
                "first-stage feasible set may be empty or unbounded")
        x_cand = msol.x[:n1].copy()
        master_obj = msol.objective
        warm = msol.x

        # scenario 0 restarts from the basis its subproblem ended in at the
        # previous iterate: only the right-hand side h - T x has moved, so
        # that basis is usually a few pivots from the new optimum.  Every
        # other scenario optimal at scenario 0's new basis is settled there
        # by one factorization (bunching, see _stage_values); the rest
        # restart from their own previous bases.  Iteration 1 has no such
        # bases: scenario 0 runs cold and the rest start from its final
        # basis, which shares W with theirs.  No start depends on another
        # worker's scenarios, so the worker count changes no bit.
        sols = _stage_values(fp, stages, x_cand, workers=config.workers,
                             bases=bases)
        bases = [s.basis for s in sols]
        q_int = np.array([s.objective for s in sols])
        recourse = float(probs @ q_int)
        f_cand = sign * float(fs.c @ x_cand) + recourse

        raw = subproblem_cuts(x_cand, stages, sols)
        new_cuts = aggregate(raw, K, probs)
        new_cuts = new_cuts.take(~_duplicate(pool, new_cuts))
        pool = pool.extend(new_cuts)
        expectation_cuts = expectation_cuts.extend(aggregate(raw, 1, probs))

        if f_cand < f_inc:
            f_inc, x_inc = f_cand, x_cand
        # every master bounds the optimum from below, so the best of them
        # certifies the incumbent
        best_lb = max(best_lb, master_obj)
        gap = (f_inc - best_lb) / (1.0 + abs(f_inc))

        elapsed = (time.perf_counter() - t0) * 1e3
        log.append(IterationRow(
            iteration=it,
            master_objective=sign * master_obj,
            expected_recourse=sign * recourse,
            gap=gap,
            cuts_added=len(new_cuts),
            wall_time_ms=elapsed,
            subproblem_iterations=sum(int(s.iterations) for s in sols),
            pool_size=len(pool),
            bunched=bunched(sols),
        ))
        if gap <= config.gap_tol:
            converged = True
            break
        if not len(new_cuts):
            # every subproblem reproduced an existing cut, so the next
            # master is identical to this one; the gap cannot move
            break

    return LShapedResult(
        x=x_inc.copy(),
        objective=sign * f_inc,
        converged=converged,
        iterations=len(log),
        cuts=pool,
        expectation_cuts=expectation_cuts,
        log=log,
    )


def write_iteration_log(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "master_objective", "expected_recourse",
                    "gap", "cuts_added"])
        for r in rows:
            w.writerow([
                r.iteration,
                repr(float(r.master_objective)),
                repr(float(r.expected_recourse)),
                repr(float(r.gap)),
                r.cuts_added,
            ])


def write_timings(path, rows):
    """Per-iteration wall times and work counts (the subproblems' simplex
    iterations, the pool size and the subproblems settled without a
    simplex call), kept apart from the deterministic log so that its
    columns stay as they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "wall_time_ms", "subproblem_iterations",
                    "pool_size", "bunched"])
        for r in rows:
            w.writerow([r.iteration, repr(float(r.wall_time_ms)),
                        r.subproblem_iterations, r.pool_size, r.bunched])
