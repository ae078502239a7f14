"""Benders / L-shaped decomposition for two-stage programs.

The master carries the first-stage variables plus K epigraph variables
theta_g, one per cut group; ``LShapedConfig.groups`` sets K (N, one per
scenario, by default; 1 for the single-cut form; or a count in between).
``core.embed_first_stage`` places the thetas and the cut rows after the
first stage, as it places the deterministic equivalent's scenarios.
Subproblem duals yield anchored optimality cuts

    theta_g >= Q(x_hat) - (T' lambda)' (x - x_hat)

which stay valid for any x because the dual feasible set of a subproblem
with fixed recourse does not depend on x.  Everything here works in an
internal minimization space; max-sense programs are negated on entry and
results mapped back.

The loop is the plain one: solve the master, cut at its solution, and stop
once the best master bound certifies the incumbent to ``gap_tol``, or once
no subproblem adds a new cut.  Each master only appends rows to the one
before it, so an LP master restarts from the basis its predecessor ended
in, with the new cuts' slacks basic.  There is no regularizer: a trust
region around the incumbent took more iterations than the plain loop on
every model shipped here, because the multi-cut master already moves
little once its cuts are in place.  Nor are cuts ever dropped: each cut is exact
at the point it was taken at, where every other cut of its group is a
minorant, so it supports its group's model at that point for good, and an
age rule that keeps supporting cuts never removes one.
"""

from dataclasses import dataclass
import math
import time

import numpy as np

from .lp import Basis, solve_lp, solve_mbp, LIMIT, OPTIMAL
from .core import bunched, embed_first_stage, scenario_stages, _stage_values


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

    def __post_init__(self):
        if self.groups is not None and self.groups < 1:
            raise ValueError("groups must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        # a negative or NaN tolerance would leave no gap small enough
        if not self.gap_tol >= 0:
            raise ValueError(f"gap_tol must be at least 0, got {self.gap_tol}")


@dataclass(slots=True)
class IterationRow:
    iteration: int
    master_objective: float      # user sense
    expected_recourse: float     # user sense, at the iteration's candidate
    gap: float
    cuts_added: int
    wall_time_ms: float
    subproblem_iterations: int   # simplex iterations of the N subproblems
    master_iterations: int       # simplex iterations of the master's LPs
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
    """The master over x and the K thetas (``core.embed_first_stage``), one
    row per cut: theta_group - coef . x >= intercept."""
    n1, K, k = fs.nvars, len(pg), len(pool)
    # groups already covered by a cut get a free theta: the artificial
    # floor only guards groups with no cut yet, and dropping it spares the
    # simplex a long climb from THETA_LB every solve
    tlb = np.full(K, THETA_LB)
    tlb[pool.group] = -np.inf
    r = np.arange(k)
    return embed_first_stage(
        fs, sign, pg, tlb, np.full(K, np.inf), [np.repeat(r, n1), r],
        [np.tile(np.arange(n1), k), n1 + pool.group],
        [-pool.coef.ravel(), np.ones(k)], np.full(k, 2, dtype=np.int64),
        pool.intercept)


def _master_start(lp, basis):
    """The basis a master ended in, extended to ``lp``, the next master:
    ``lp`` keeps its columns and rows and appends the new cut rows, whose
    slacks enter the basis.  A theta nonbasic at ``THETA_LB`` whose group
    has since gained a cut, and so lost that bound, is marked free."""
    m, n = lp.matrix.shape
    old = len(basis.basic)
    status = np.concatenate([basis.status, np.full(m - old, 3)])
    status[:n][(status[:n] == 0) & np.isneginf(lp.lb)] = 2
    return Basis(np.concatenate([basis.basic, n + np.arange(old, m)]), status)


def _solve_master(lp, fs, warm=None, basis=None):
    """Solve a master.  An LP master starts from ``basis``, the previous
    master's final basis, if given; a binary master's branch and bound
    starts its warm probe from the previous incumbent ``warm``."""
    if fs.binaries:
        return solve_mbp(lp, fs.binaries, warm=warm)
    return solve_lp(lp, basis=None if basis is None
                    else _master_start(lp, basis))


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
    start = None
    expectation_cuts = CutPool(np.empty((0, n1)), np.empty(0))
    log = []
    x_inc = None
    f_inc = math.inf      # internal objective at incumbent
    best_lb = -math.inf
    converged = False
    warm = master_basis = None

    for it in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()

        msol = _solve_master(_build_master(fs, sign, pool, pg), fs, warm=warm,
                             basis=master_basis)
        if msol.status == LIMIT:
            raise RuntimeError(
                f"master problem stopped at a limit at iteration {it}: its "
                "iteration limit, a singular basis or an optimum that failed "
                "its certificate" + (", or branch and bound's node limit"
                                     if fs.binaries else "")
                + "; a warning on the hydrosp.lp log names a singular basis "
                "or a failed check")
        if msol.status != OPTIMAL:
            raise RuntimeError(
                f"master problem {msol.status} at iteration {it}; "
                "first-stage feasible set may be empty or unbounded")
        x_cand = msol.x[:n1].copy()
        master_obj = msol.objective
        warm, master_basis = msol.x, msol.basis

        # scenario 0 restarts from the basis its subproblem ended in at the
        # previous iterate: only the right-hand side h - T x has moved, so
        # that basis is usually a few pivots from the new optimum.  Every
        # other scenario is settled at scenario 0's new basis or falls back
        # from it (see _stage_values).  Iteration 1 has no such basis:
        # scenario 0 starts from the recourse's start basis.
        sols = _stage_values(fp, stages, x_cand, start=start)
        start = sols[0].basis
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
            master_iterations=int(msol.iterations),
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

