"""LP containers, the simplex entry point, and branch-and-bound for binaries.

Everything here is minimization: callers with a max objective negate at the
boundary.  Solutions carry duals and reduced costs so decomposition layers
can derive cuts without re-deriving basis information.
"""

from dataclasses import dataclass, field
import heapq

import numpy as np

from .backend import backend_choice
from ._simplex import simplex_kernel_py, simplex_kernel_jit
from .tolerances import FEASIBILITY_TOL, OPTIMALITY_TOL, INTEGRALITY_TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

_KERNEL_STATUS = {0: OPTIMAL, 1: INFEASIBLE, 2: UNBOUNDED, 3: LIMIT}
_SENSE_CODE = {"=": 0, "==": 0, "<=": 1, "<": 1, ">=": 2, ">": 2}
_SENSE_STR = {0: "=", 1: "<=", 2: ">="}


def _as_sense_codes(senses, m):
    codes = np.empty(m, dtype=np.int64)
    for i, s in enumerate(senses):
        if isinstance(s, str):
            try:
                codes[i] = _SENSE_CODE[s]
            except KeyError:
                raise ValueError(f"unknown row sense {s!r} at row {i}")
        else:
            v = int(s)
            if v not in (0, 1, 2):
                raise ValueError(f"unknown row sense code {v} at row {i}")
            codes[i] = v
    return codes


@dataclass
class LinearProgram:
    """min c'x  s.t.  A x (sense) b,  lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray = None
    ub: np.ndarray = None
    names: list = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.A = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
        if self.A.ndim != 2:
            raise ValueError("A must be 2-dimensional")
        m, n = self.A.shape
        if self.c.shape != (n,):
            raise ValueError(f"c has shape {self.c.shape}, expected ({n},)")
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        self.senses = _as_sense_codes(self.senses, m)
        self.lb = (
            np.zeros(n) if self.lb is None
            else np.asarray(self.lb, dtype=np.float64).copy()
        )
        self.ub = (
            np.full(n, np.inf) if self.ub is None
            else np.asarray(self.ub, dtype=np.float64).copy()
        )
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.lb == np.inf) or np.any(self.ub == -np.inf):
            raise ValueError("lb may not be +inf and ub may not be -inf")
        if np.any(self.lb > self.ub + 1e-12):
            raise ValueError("lb > ub for some variable")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A))
                and np.all(np.isfinite(self.b))):
            raise ValueError("c, A and b must be finite")

    @property
    def nrows(self):
        return self.A.shape[0]

    @property
    def nvars(self):
        return self.A.shape[1]

    def sense_strings(self):
        return [_SENSE_STR[int(s)] for s in self.senses]


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    objective: float = None
    iterations: int = 0
    nodes: int = 0

    @property
    def ok(self):
        return self.status == OPTIMAL


def _kernel():
    if backend_choice() == "numba":
        return simplex_kernel_jit
    return simplex_kernel_py


def _solve_bounds_only(lp):
    # no rows: each variable optimizes independently over its box
    n = lp.nvars
    x = np.zeros(n)
    for j in range(n):
        cj = lp.c[j]
        if cj > 0.0:
            if lp.lb[j] == -np.inf:
                return LpSolution(UNBOUNDED)
            x[j] = lp.lb[j]
        elif cj < 0.0:
            if lp.ub[j] == np.inf:
                return LpSolution(UNBOUNDED)
            x[j] = lp.ub[j]
        else:
            x[j] = min(max(0.0, lp.lb[j]), lp.ub[j])
    return LpSolution(
        OPTIMAL, x=x, duals=np.zeros(0), reduced_costs=lp.c.copy(),
        objective=float(lp.c @ x), iterations=0,
    )


def default_iteration_limit(m, n):
    return 400 * (m + n) + 2000


def solve_lp(lp, max_iter=None):
    """Solve a LinearProgram; on OPTIMAL the solution carries row duals and
    reduced costs taken from the final basis."""
    if lp.nvars == 0:
        return LpSolution(OPTIMAL, x=np.zeros(0), duals=np.zeros(lp.nrows),
                          reduced_costs=np.zeros(0), objective=0.0)
    if lp.nrows == 0:
        return _solve_bounds_only(lp)
    if max_iter is None:
        max_iter = default_iteration_limit(lp.nrows, lp.nvars)
    kern = _kernel()
    try:
        status, x, y, dj, obj, iters = kern(
            lp.c, lp.A, lp.senses, lp.b, lp.lb, lp.ub,
            OPTIMALITY_TOL, max_iter,
        )
    except np.linalg.LinAlgError:
        # the two kernel variants round differently and so visit different
        # bases; when one hits a singular basis the other usually does not,
        # so rerun the instance on the sibling kernel before giving up
        sibling = (simplex_kernel_py if kern is simplex_kernel_jit
                   else simplex_kernel_jit)
        if sibling is None:
            return LpSolution(LIMIT)
        try:
            status, x, y, dj, obj, iters = sibling(
                lp.c, lp.A, lp.senses, lp.b, lp.lb, lp.ub,
                OPTIMALITY_TOL, max_iter,
            )
        except np.linalg.LinAlgError:
            return LpSolution(LIMIT)
    st = _KERNEL_STATUS[int(status)]
    if st != OPTIMAL:
        return LpSolution(st, x=x, iterations=int(iters))
    return LpSolution(
        OPTIMAL, x=x, duals=y, reduced_costs=dj,
        objective=float(obj), iterations=int(iters),
    )


def _most_fractional(x, binaries):
    pick = -1
    best = INTEGRALITY_TOL
    for j in binaries:
        f = abs(x[j] - round(x[j]))
        if f > best:
            best = f
            pick = j
    return pick


def solve_mbp(lp, binaries, node_limit=100000, max_iter=None, warm=None):
    """Best-first branch and bound over the given binary variable indices.

    Branching variable: most fractional, ties to the lowest index; node
    order: best bound first, ties FIFO.  Nodes whose relaxation bound is
    within 1e-6 of the incumbent are pruned.  On node_limit exhaustion the
    best incumbent is returned with status 'limit'.  ``warm``, if given,
    seeds the incumbent by fixing the binaries to the rounded warm values
    and solving the remaining LP (skipped silently if infeasible).
    """
    binaries = sorted(int(j) for j in binaries)
    for j in binaries:
        if lp.lb[j] < -1e-12 or lp.ub[j] > 1.0 + 1e-12:
            raise ValueError(f"binary variable {j} must have bounds within [0, 1]")
    if not binaries:
        return solve_lp(lp, max_iter=max_iter)

    seq = 0
    heap = [(-np.inf, seq, lp.lb.copy(), lp.ub.copy())]
    incumbent = None
    inc_obj = np.inf
    if warm is not None:
        wlb, wub = lp.lb.copy(), lp.ub.copy()
        for j in binaries:
            v = 1.0 if warm[j] > 0.5 else 0.0
            wlb[j] = wub[j] = v
        wsol = solve_lp(LinearProgram(lp.c, lp.A, lp.senses, lp.b, wlb, wub),
                        max_iter=max_iter)
        if wsol.status == OPTIMAL:
            x = wsol.x.copy()
            for j in binaries:
                x[j] = round(x[j])
            incumbent = LpSolution(
                OPTIMAL, x=x, duals=wsol.duals,
                reduced_costs=wsol.reduced_costs,
                objective=wsol.objective, iterations=wsol.iterations,
            )
            inc_obj = wsol.objective
    nodes = 0
    limit_hit = False
    while heap:
        bound_est, _, nlb, nub = heapq.heappop(heap)
        if bound_est >= inc_obj - 1e-6:
            continue
        if nodes >= node_limit:
            limit_hit = True
            break
        nodes += 1
        sub = LinearProgram(lp.c, lp.A, lp.senses, lp.b, nlb, nub)
        sol = solve_lp(sub, max_iter=max_iter)
        if sol.status == INFEASIBLE:
            continue
        if sol.status == UNBOUNDED:
            return LpSolution(UNBOUNDED, nodes=nodes)
        if sol.status == LIMIT:
            return LpSolution(LIMIT, nodes=nodes)
        if sol.objective >= inc_obj - 1e-6:
            continue
        j = _most_fractional(sol.x, binaries)
        if j < 0:
            # integral: snap binaries exactly and keep as incumbent
            x = sol.x.copy()
            for k in binaries:
                x[k] = round(x[k])
            if sol.objective < inc_obj:
                inc_obj = sol.objective
                incumbent = LpSolution(
                    OPTIMAL, x=x, duals=sol.duals,
                    reduced_costs=sol.reduced_costs,
                    objective=sol.objective, iterations=sol.iterations,
                )
            continue
        for fix in (0.0, 1.0):
            clb = nlb.copy()
            cub = nub.copy()
            clb[j] = fix
            cub[j] = fix
            seq += 1
            heapq.heappush(heap, (sol.objective, seq, clb, cub))

    if limit_hit:
        if incumbent is not None:
            out = incumbent
            out.status = LIMIT
            out.nodes = nodes
            return out
        return LpSolution(LIMIT, nodes=nodes)
    if incumbent is None:
        return LpSolution(INFEASIBLE, nodes=nodes)
    incumbent.nodes = nodes
    return incumbent


def _fmt(v):
    return "%.17g" % v


def write_lp_text(lp, binaries=(), name="problem"):
    """Render the program in the plain LP text format understood by common
    external solvers (for CI cross-checks)."""
    names = lp.names or [f"x{j}" for j in range(lp.nvars)]
    out = [f"\\ {name}", "Minimize", " obj:"]
    terms = []
    for j in range(lp.nvars):
        if lp.c[j] != 0.0:
            terms.append(f" + {_fmt(lp.c[j])} {names[j]}")
    out[-1] += "".join(terms) if terms else " 0 " + (names[0] if lp.nvars else "")
    out.append("Subject To")
    sstr = lp.sense_strings()
    for i in range(lp.nrows):
        row = []
        for j in range(lp.nvars):
            v = lp.A[i, j]
            if v != 0.0:
                row.append(f" + {_fmt(v)} {names[j]}")
        body = "".join(row) if row else f" 0 {names[0]}"
        out.append(f" c{i}:{body} {sstr[i]} {_fmt(lp.b[i])}")
    out.append("Bounds")
    binset = set(binaries)
    for j in range(lp.nvars):
        if j in binset:
            continue
        lo, hi = lp.lb[j], lp.ub[j]
        if lo == -np.inf and hi == np.inf:
            out.append(f" {names[j]} free")
        elif hi == np.inf:
            out.append(f" {_fmt(lo)} <= {names[j]}")
        elif lo == -np.inf:
            out.append(f" -inf <= {names[j]} <= {_fmt(hi)}")
        else:
            out.append(f" {_fmt(lo)} <= {names[j]} <= {_fmt(hi)}")
    if binset:
        out.append("Binary")
        for j in sorted(binset):
            out.append(f" {names[j]}")
    out.append("End")
    return "\n".join(out) + "\n"
