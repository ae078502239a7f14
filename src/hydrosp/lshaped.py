"""Benders / L-shaped decomposition for two-stage programs.

The master carries the first-stage variables plus K epigraph variables
theta_g (K = N for the multicut form, 1 for the single-cut form, or a
chosen group count in between).  Subproblem duals yield anchored
optimality cuts

    theta_g >= Q(x_hat) - (T' lambda)' (x - x_hat)

which stay valid for any x because the dual feasible set of a subproblem
with fixed recourse does not depend on x.  Everything here works in an
internal minimization space; max-sense programs are negated on entry and
results mapped back.
"""

from dataclasses import dataclass, field
import csv
import math
import time

import numpy as np

from .lp import LinearProgram, solve_lp, solve_mbp, OPTIMAL
from .core import FiniteProgram, scenario_stages, solve_stage, _stage_values
from .tolerances import OPTIMALITY_TOL


class NonConvergenceError(RuntimeError):
    """An iteration limit was reached before the gap closed."""


@dataclass
class Cut:
    """theta_group >= intercept + coef . x  (internal min convention)."""

    coef: np.ndarray
    intercept: float
    group: int = 0
    age: int = 0
    cut_id: int = -1

    def value(self, x):
        return self.intercept + float(self.coef @ x)


@dataclass(frozen=True)
class TrustRegionConfig:
    enabled: bool = False
    delta0: float = 0.1
    eta: float = 0.1
    expand: float = 2.0
    shrink: float = 0.5
    delta_max: float = 1.0
    expand_threshold: float = 0.75
    default_span: float = 1e4    # stands in for infinite bound ranges

    def __post_init__(self):
        if not 0.0 < self.delta0 <= self.delta_max <= 1.0:
            raise ValueError("need 0 < delta0 <= delta_max <= 1")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("acceptance ratio eta must be in (0, 1)")
        if self.expand <= 1.0 or not 0.0 < self.shrink < 1.0:
            raise ValueError("need expand > 1 and 0 < shrink < 1")


@dataclass(frozen=True)
class LShapedConfig:
    formulation: str = "multi"   # multi | single | partial
    groups: int = None           # K, required for partial
    consolidation_age: float = None   # default: 5 for MBP masters, inf for LP
    trust_region: TrustRegionConfig = field(default_factory=TrustRegionConfig)
    max_iterations: int = 200
    gap_tol: float = 1e-7
    workers: int = None
    theta_lb: float = -1e10
    node_limit: int = 100000

    def __post_init__(self):
        if self.formulation not in ("multi", "single", "partial"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.formulation == "partial" and not self.groups:
            raise ValueError("partial aggregation needs a group count")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class IterationRow:
    iteration: int
    master_objective: float      # user sense
    expected_recourse: float     # user sense, at the iteration's candidate
    gap: float
    delta: float                 # trust-region radius ('' when TR off)
    cuts_added: int
    cuts_removed: int
    wall_time_ms: float


@dataclass
class LShapedResult:
    x: np.ndarray
    objective: float             # user sense
    converged: bool
    iterations: int
    cuts: list
    expectation_cuts: list       # one aggregated (K=1) cut per iteration
    log: list
    sense: str
    theta: np.ndarray = None


def optimality_cut(x_hat, stage, sense="min"):
    """Solve one subproblem at x_hat and return its anchored cut.

    The cut is stored in the internal minimization convention regardless
    of sense: theta >= intercept + coef . x.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    sign = 1.0 if sense == "min" else -1.0
    sol = solve_stage(stage, x_hat, sign)
    if not sol.ok:
        raise RuntimeError(f"subproblem not optimal at anchor: {sol.status}")
    return cut_from_solution(x_hat, stage, sol)


def cut_from_solution(x_hat, stage, sol):
    coef = -(stage.T.T @ sol.duals) if stage.T.size else np.zeros(len(x_hat))
    intercept = sol.objective - float(coef @ x_hat)
    return Cut(coef=coef, intercept=intercept)


def aggregate(cuts, K, probabilities=None):
    """Probability-blend N per-scenario cuts into K group cuts.

    Scenario s belongs to group (s * K) // N; within a group, weights are
    the conditional probabilities pi_s / pi_group.
    """
    N = len(cuts)
    if not 1 <= K <= N:
        raise ValueError(f"group count {K} must be in [1, {N}]")
    if probabilities is None:
        p = np.full(N, 1.0 / N)
    else:
        p = np.asarray(probabilities, dtype=np.float64)
    out = []
    for g in range(K):
        members = [s for s in range(N) if (s * K) // N == g]
        if not members:
            continue
        pg = sum(p[s] for s in members)
        coef = sum((p[s] / pg) * cuts[s].coef for s in members)
        intercept = sum((p[s] / pg) * cuts[s].intercept for s in members)
        out.append(Cut(coef=coef, intercept=intercept, group=g))
    return out


def group_probabilities(probabilities, K):
    N = len(probabilities)
    pg = np.zeros(K)
    for s in range(N):
        pg[(s * K) // N] += probabilities[s]
    return pg


def consolidate(pool, age_limit):
    """Drop cuts whose inactivity age reached the limit; active cuts
    (age 0) always survive."""
    if age_limit is None or math.isinf(age_limit):
        return pool, 0
    kept = [c for c in pool if c.age < age_limit]
    return kept, len(pool) - len(kept)


def trust_region_step(x_hat, candidate, predicted, actual, delta, config):
    """Classic ratio test: returns (accept, new_delta).

    predicted/actual are *decreases* of the internal objective.  A
    non-positive predicted decrease rejects and shrinks outright.
    """
    if predicted <= 0.0:
        return False, max(config.shrink * delta, 1e-12)
    ratio = actual / predicted
    if ratio >= config.eta:
        new_delta = delta
        if ratio >= config.expand_threshold:
            new_delta = min(config.expand * delta, config.delta_max)
        return True, new_delta
    return False, max(config.shrink * delta, 1e-12)


def _supporting(pool, visited):
    """Indices of cuts that attain their group's model value (within
    OPTIMALITY_TOL) at at least one visited point."""
    X = np.stack(visited)
    coefs = np.stack([cut.coef for cut in pool])
    vals = coefs @ X.T + np.array([cut.intercept for cut in pool])[:, None]
    groups = np.array([cut.group for cut in pool])
    out = []
    for g in np.unique(groups):
        idx = np.where(groups == g)[0]
        gv = vals[idx]
        top = gv.max(axis=0)
        sup = gv >= top - OPTIMALITY_TOL * (1.0 + np.abs(top))
        out.extend(idx[sup.any(axis=1)])
    return out


def _duplicate(pool, cut, rtol=1e-12):
    """True when the group already holds an essentially identical cut.

    Re-adding it cannot change the master; the twin's age is reset so
    consolidation treats the information as fresh."""
    scale = rtol * (1.0 + float(np.abs(cut.coef).max(initial=0.0)))
    for old in pool:
        if old.group != cut.group:
            continue
        if (abs(old.intercept - cut.intercept)
                <= rtol * (1.0 + abs(cut.intercept))
                and np.abs(old.coef - cut.coef).max(initial=0.0) <= scale):
            old.age = 0
            return True
    return False


def _spans(fs, tr):
    spans = np.empty(fs.nvars)
    for j in range(fs.nvars):
        lo, hi = fs.lb[j], fs.ub[j]
        spans[j] = (hi - lo) if np.isfinite(hi - lo) else tr.default_span
    return spans


def _build_master(fs, sign, pool, K, pg, theta_lb,
                  tr=None, x_inc=None, delta=None, spans=None):
    n1 = fs.nvars
    n = n1 + K
    c = np.zeros(n)
    c[:n1] = sign * fs.c
    c[n1:] = pg
    # groups already covered by a cut get a free theta: the artificial
    # floor only guards groups with no cut yet, and dropping it spares the
    # simplex a long climb from theta_lb every solve
    tlb = np.full(K, theta_lb)
    for cut in pool:
        tlb[cut.group] = -np.inf
    lb = np.concatenate([fs.lb, tlb])
    ub = np.concatenate([fs.ub, np.full(K, np.inf)])

    binaries = list(fs.binaries)
    hamming = tr is not None and x_inc is not None and binaries
    m = fs.A.shape[0] + len(pool) + (1 if hamming else 0)
    A = np.zeros((m, n))
    b = np.empty(m)
    senses = []
    m1 = fs.A.shape[0]
    if m1:
        A[:m1, :n1] = fs.A
        b[:m1] = fs.b
    senses.extend(fs.senses)
    r = m1
    for cut in pool:
        A[r, :n1] = -cut.coef
        A[r, n1 + cut.group] = 1.0
        b[r] = cut.intercept
        senses.append(">=")
        r += 1

    if tr is not None and x_inc is not None:
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
            for j in zeros:
                A[r, j] = 1.0
            for j in ones:
                A[r, j] = -1.0
            b[r] = radius - len(ones)
            senses.append("<=")
            r += 1
    return LinearProgram(c, A, senses, b, lb, ub)


def _solve_master(lp, fs, config, warm=None):
    if fs.binaries:
        return solve_mbp(lp, fs.binaries, node_limit=config.node_limit,
                         warm=warm)
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

    if config.formulation == "multi":
        K = N
    elif config.formulation == "single":
        K = 1
    else:
        K = config.groups
        if not 1 <= K <= N:
            raise ValueError(f"group count {K} must be in [1, {N}]")
    pg = group_probabilities(probs, K)

    age_limit = config.consolidation_age
    if age_limit is None:
        age_limit = 5 if fs.binaries else math.inf

    tr = config.trust_region if config.trust_region.enabled else None
    spans = _spans(fs, config.trust_region) if tr else None
    delta = config.trust_region.delta0 if tr else None

    pool = []
    expectation_cuts = []
    log = []
    next_id = 0
    x_inc = None
    f_inc = math.inf      # internal objective at incumbent
    best_lb = -math.inf
    converged = False
    x_cand = None
    f_cand = None
    theta_val = None
    visited = []          # candidate points already cut, for cut retention
    warm = None

    for it in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()

        lp = _build_master(fs, sign, pool, K, pg, config.theta_lb,
                           tr=tr, x_inc=x_inc, delta=delta, spans=spans)
        msol = _solve_master(lp, fs, config, warm=warm)
        if msol.status != OPTIMAL:
            raise RuntimeError(
                f"master problem {msol.status} at iteration {it}; "
                "first-stage feasible set may be empty or unbounded")
        n1 = fs.nvars
        x_cand = msol.x[:n1].copy()
        theta_val = msol.x[n1:].copy()
        master_obj = msol.objective
        warm = msol.x

        removed = 0
        if pool:
            for cut in pool:
                cv = cut.value(x_cand)
                tv = theta_val[cut.group]
                if abs(tv - cv) <= OPTIMALITY_TOL * (1.0 + abs(tv)):
                    cut.age = 0
                else:
                    cut.age += 1
            if math.isfinite(age_limit) and visited:
                # a cut also counts as active while it supports the model
                # at some already-cut point; dropping such cuts makes the
                # master revisit old candidates and cycle
                for idx in _supporting(pool, visited):
                    pool[idx].age = 0
            pool, removed = consolidate(pool, age_limit)

        # subproblems start cold: the natural chain here is each scenario's
        # basis from the previous iterate, not the previous scenario's, and
        # any faster solve waits on ROADMAP item 1 (the benchmark runner's
        # per-call memory), which would read it as a peak-RSS regression
        sols = _stage_values(fp, stages, x_cand, workers=config.workers,
                             chain=False)
        q_int = np.array([s.objective for s in sols])
        recourse = float(probs @ q_int)
        f_cand = sign * float(fs.c @ x_cand) + recourse

        raw = [cut_from_solution(x_cand, st, sol)
               for st, sol in zip(stages, sols)]
        new_cuts = [cut for cut in aggregate(raw, K, probs)
                    if not _duplicate(pool, cut)]
        for cut in new_cuts:
            cut.cut_id = next_id
            next_id += 1
        pool.extend(new_cuts)
        expectation_cuts.append(aggregate(raw, 1, probs)[0])
        visited.append(x_cand)
        stalled = not new_cuts and tr is None

        if tr is None:
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
                        delta = min(config.trust_region.expand * delta,
                                    config.trust_region.delta_max)
                        done = False
                    else:
                        done = True
                else:
                    done = False
                    accept, delta = trust_region_step(
                        x_inc, x_cand, predicted, actual, delta,
                        config.trust_region)
                    if accept:
                        f_inc, x_inc = f_cand, x_cand.copy()

        elapsed = (time.perf_counter() - t0) * 1e3
        log.append(IterationRow(
            iteration=it,
            master_objective=sign * master_obj,
            expected_recourse=sign * recourse,
            gap=gap,
            delta=delta if tr is not None else None,
            cuts_added=len(new_cuts),
            cuts_removed=removed,
            wall_time_ms=elapsed,
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
        sense=fp.program.sense,
        theta=theta_val,
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
    """Per-iteration wall times, kept apart from the deterministic log."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "wall_time_ms"])
        for r in rows:
            w.writerow([r.iteration, repr(float(r.wall_time_ms))])
