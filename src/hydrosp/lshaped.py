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
"""

from dataclasses import dataclass
import csv
import math
import time

import numpy as np

from .lp import LinearProgram, SparseMatrix, solve_lp, solve_mbp, OPTIMAL
from .core import bunched, scenario_stages, _stage_values
from .tolerances import OPTIMALITY_TOL


class NonConvergenceError(RuntimeError):
    """An iteration limit was reached before the gap closed."""


@dataclass(eq=False, slots=True)
class CutPool:
    """Affine cuts as exact-size arrays, one row r per cut:
    theta_group[r] >= intercept[r] + coef[r] . x (internal min convention).
    ``age[r]`` counts the iterations since cut r was last active.  Left
    out, ``group`` puts cut r in group r and ``age`` is 0."""

    coef: np.ndarray              # k x n1
    intercept: np.ndarray
    group: np.ndarray = None
    age: np.ndarray = None

    def __post_init__(self):
        k = len(self.intercept)
        self.group = np.arange(k) if self.group is None else self.group
        self.age = np.zeros(k, dtype=np.int64) if self.age is None else self.age

    def __len__(self):
        return len(self.intercept)

    def values(self, x):
        """Every cut's right-hand side at x."""
        return self.intercept + self.coef @ x

    def take(self, rows):
        """The pool of the cuts selected by ``rows`` (a mask or indices)."""
        return CutPool(self.coef[rows], self.intercept[rows],
                       self.group[rows], self.age[rows])

    def extend(self, other):
        """This pool followed by ``other``'s cuts, in new arrays."""
        return CutPool(*(np.concatenate([getattr(self, f), getattr(other, f)])
                         for f in ("coef", "intercept", "group", "age")))


# trust-region constants: initial, largest radius (as fractions of each
# variable's range), acceptance ratio, ratio that expands the radius, and
# the expand/shrink factors
DELTA0 = 0.1
DELTA_MAX = 1.0
ETA = 0.1
EXPAND_THRESHOLD = 0.75
EXPAND = 2.0
SHRINK = 0.5
DEFAULT_SPAN = 1e4          # stands in for infinite bound ranges
THETA_LB = -1e10            # floor on theta_g while group g has no cut


@dataclass(frozen=True)
class LShapedConfig:
    groups: int = None           # cut count K: None gives one per scenario
    consolidation_age: float = None   # default: 5 for MBP masters, inf for LP
    trust_region: bool = False
    max_iterations: int = 200
    gap_tol: float = 1e-7
    workers: int = None

    def __post_init__(self):
        if not isinstance(self.trust_region, bool):
            raise ValueError(f"trust_region must be true or false, got "
                             f"{self.trust_region!r}")
        if self.groups is not None and self.groups < 1:
            raise ValueError("groups must be positive")
        # a limit below 1 would drop the active cuts (age 0) as well
        if self.consolidation_age is not None and not self.consolidation_age >= 1:
            raise ValueError("consolidation_age must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(slots=True)
class IterationRow:
    iteration: int
    master_objective: float      # user sense
    expected_recourse: float     # user sense, at the iteration's candidate
    gap: float
    delta: float                 # trust-region radius ('' when TR off)
    cuts_added: int
    cuts_removed: int
    wall_time_ms: float
    subproblem_iterations: int   # simplex iterations of the N subproblems
    pool_size: int               # cuts in the pool after the iteration
    bunched: int                 # subproblems settled without a simplex call


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


def consolidate(pool, age_limit):
    """Drop cuts whose inactivity age reached the limit; active cuts
    (age 0) survive any limit of at least 1, the least ``LShapedConfig``
    accepts.  Returns the kept pool and the count dropped."""
    if age_limit is None or math.isinf(age_limit):
        return pool, 0
    keep = pool.age < age_limit
    return pool.take(keep), len(pool) - int(keep.sum())


def trust_region_step(x_hat, candidate, predicted, actual, delta):
    """Classic ratio test: returns (accept, new_delta).

    predicted/actual are *decreases* of the internal objective.  A
    non-positive predicted decrease rejects and shrinks outright.
    """
    if predicted <= 0.0:
        return False, max(SHRINK * delta, 1e-12)
    ratio = actual / predicted
    if ratio >= ETA:
        new_delta = delta
        if ratio >= EXPAND_THRESHOLD:
            new_delta = min(EXPAND * delta, DELTA_MAX)
        return True, new_delta
    return False, max(SHRINK * delta, 1e-12)


def _age(pool, x, theta):
    """Reset the age of every cut active at the master solution (x, theta)
    and advance the others by one."""
    tv = theta[pool.group]
    active = np.abs(tv - pool.values(x)) <= OPTIMALITY_TOL * (1.0 + np.abs(tv))
    pool.age = np.where(active, 0, pool.age + 1)


def _supporting(pool, visited):
    """Mask of the cuts that attain their group's model value (within
    OPTIMALITY_TOL) at at least one visited point."""
    vals = pool.coef @ np.stack(visited, axis=1) + pool.intercept[:, None]
    top = np.full((pool.group.max() + 1, vals.shape[1]), -np.inf)
    np.maximum.at(top, pool.group, vals)
    top = top[pool.group]
    return (vals >= top - OPTIMALITY_TOL * (1.0 + np.abs(top))).any(axis=1)


def _duplicate(pool, new, rtol=1e-12):
    """Mask of the cuts in ``new`` whose group already holds an essentially
    identical cut in ``pool``; ``new`` has at most one cut per group, as
    ``aggregate`` returns them.

    Re-adding such a cut cannot change the master; its first twin's age is
    reset so consolidation treats the information as fresh."""
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
    j, first = np.unique(j[twin], return_index=True)
    pool.age[rows[twin][first]] = 0
    dup[j] = True
    return dup


def _spans(fs):
    spans = fs.ub - fs.lb
    return np.where(np.isfinite(spans), spans, DEFAULT_SPAN)


def _build_master(fs, sign, pool, pg, x_inc=None, delta=None, spans=None):
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

    binaries = list(fs.binaries)
    hamming = x_inc is not None and binaries
    m1, k = fs.A.shape[0], len(pool)
    m = m1 + k + (1 if hamming else 0)
    b = np.empty(m)
    b[:m1] = fs.b
    senses = list(fs.senses) + [">="] * k
    i, j, v = fs.A.triplets()
    # cut row r: theta_group - coef . x >= intercept
    r = m1 + np.arange(k)
    rows = [i, np.repeat(r, n1), r]
    cols = [j, np.tile(np.arange(n1), k), n1 + pool.group]
    vals = [v, -pool.coef.ravel(), np.ones(k)]
    b[m1:m1 + k] = pool.intercept

    if x_inc is not None:
        cont = [j for j in range(n1) if j not in fs.binaries]
        for j in cont:
            w = delta * spans[j]
            lb[j] = max(fs.lb[j], x_inc[j] - w)
            ub[j] = min(fs.ub[j], x_inc[j] + w)
        if hamming:
            radius = math.floor(delta * len(binaries))
            ones = [j for j in binaries if x_inc[j] > 0.5]
            zeros = [j for j in binaries if x_inc[j] <= 0.5]
            # sum_{j in zeros} x_j + sum_{j in ones} (1 - x_j) <= radius
            rows.append(np.full(len(binaries), m - 1))
            cols.append(np.array(zeros + ones))
            vals.append(np.repeat([1.0, -1.0], [len(zeros), len(ones)]))
            b[m - 1] = radius - len(ones)
            senses.append("<=")
    A = SparseMatrix.from_triplets((m, n), np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))
    return LinearProgram(c, A, senses, b, lb, ub)


def _solve_master(lp, fs, warm=None):
    if fs.binaries:
        return solve_mbp(lp, fs.binaries, warm=warm)
    return solve_lp(lp)


def _box_binding(fs, x_cand, x_inc, delta, spans, tol=1e-9):
    for j in range(fs.nvars):
        if j in fs.binaries:
            continue
        w = delta * spans[j]
        lo = max(fs.lb[j], x_inc[j] - w)
        hi = min(fs.ub[j], x_inc[j] + w)
        if x_inc[j] - w > fs.lb[j] and x_cand[j] <= lo + tol * (1.0 + abs(lo)):
            return True
        if x_inc[j] + w < fs.ub[j] and x_cand[j] >= hi - tol * (1.0 + abs(hi)):
            return True
    binaries = list(fs.binaries)
    if binaries:
        # an interior point of a Hamming ball proves nothing about binary
        # patterns outside it, so any restrictive radius counts as binding
        radius = math.floor(delta * len(binaries))
        if radius < len(binaries):
            return True
    return False


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

    age_limit = config.consolidation_age
    if age_limit is None:
        age_limit = 5 if fs.binaries else math.inf

    tr = config.trust_region
    spans = _spans(fs) if tr else None
    delta = DELTA0 if tr else None

    n1 = fs.nvars
    pool = CutPool(np.empty((0, n1)), np.empty(0))
    bases = None
    expectation_cuts = CutPool(np.empty((0, n1)), np.empty(0))
    log = []
    x_inc = None
    f_inc = math.inf      # internal objective at incumbent
    best_lb = -math.inf
    converged = False
    x_cand = None
    f_cand = None
    visited = []          # candidate points already cut, for cut retention
    warm = None

    for it in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()

        # the trust region boxes the master around the incumbent
        lp = _build_master(fs, sign, pool, pg, x_inc=x_inc if tr else None,
                           delta=delta, spans=spans)
        msol = _solve_master(lp, fs, warm=warm)
        if msol.status != OPTIMAL:
            raise RuntimeError(
                f"master problem {msol.status} at iteration {it}; "
                "first-stage feasible set may be empty or unbounded")
        x_cand = msol.x[:n1].copy()
        theta_val = msol.x[n1:].copy()
        master_obj = msol.objective
        warm = msol.x

        removed = 0
        if len(pool):
            _age(pool, x_cand, theta_val)
            if math.isfinite(age_limit) and visited:
                # a cut also counts as active while it supports the model
                # at some already-cut point; dropping such cuts makes the
                # master revisit old candidates and cycle
                pool.age[_supporting(pool, visited)] = 0
            pool, removed = consolidate(pool, age_limit)

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
        visited.append(x_cand)
        stalled = not len(new_cuts) and not tr

        if not tr:
            if f_cand < f_inc:
                f_inc, x_inc = f_cand, x_cand.copy()
            best_lb = max(best_lb, master_obj)
            gap = (f_inc - best_lb) / (1.0 + abs(f_inc))
            done = gap <= config.gap_tol
        else:
            if x_inc is None:
                f_inc, x_inc = f_cand, x_cand.copy()
                gap = math.inf
                done = False
            else:
                predicted = f_inc - master_obj
                actual = f_inc - f_cand
                gap = max(predicted, 0.0) / (1.0 + abs(f_inc))
                small = predicted <= config.gap_tol * (1.0 + abs(f_inc))
                if small:
                    if f_cand < f_inc:
                        f_inc, x_inc = f_cand, x_cand.copy()
                    if _box_binding(fs, x_cand, x_inc, delta, spans):
                        delta = min(EXPAND * delta, DELTA_MAX)
                        done = False
                    else:
                        done = True
                else:
                    done = False
                    accept, delta = trust_region_step(
                        x_inc, x_cand, predicted, actual, delta)
                    if accept:
                        f_inc, x_inc = f_cand, x_cand.copy()

        elapsed = (time.perf_counter() - t0) * 1e3
        log.append(IterationRow(
            iteration=it,
            master_objective=sign * master_obj,
            expected_recourse=sign * recourse,
            gap=gap,
            delta=delta,
            cuts_added=len(new_cuts),
            cuts_removed=removed,
            wall_time_ms=elapsed,
            subproblem_iterations=sum(int(s.iterations) for s in sols),
            pool_size=len(pool),
            bunched=bunched(sols),
        ))
        if done:
            converged = True
            break
        if stalled:
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
                    "gap", "delta", "cuts_added", "cuts_removed"])
        for r in rows:
            w.writerow([
                r.iteration,
                repr(float(r.master_objective)),
                repr(float(r.expected_recourse)),
                repr(float(r.gap)) if math.isfinite(r.gap) else "inf",
                repr(float(r.delta)) if r.delta is not None else "",
                r.cuts_added,
                r.cuts_removed,
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
