"""LP containers, the simplex entry point, and branch-and-bound for binaries.

Everything here is minimization: callers with a max objective negate at the
boundary.  Solutions carry duals and reduced costs so decomposition layers
can derive cuts without re-deriving basis information.  Constraint
matrices are ``SparseMatrix`` column stores throughout; no program is ever
held as a dense array.

There is one LP path: ``solve_lp`` runs the numpy simplex kernel of
``_simplex.py`` and certifies every optimal result against the KKT
conditions (``_certificate``); ``solve_mbp`` is a hand-written best-first
branch and bound on top of it.
"""

from dataclasses import dataclass
import heapq
import logging

import numpy as np

from ._simplex import simplex_kernel
from .tolerances import FEASIBILITY_TOL, OPTIMALITY_TOL, INTEGRALITY_TOL

log = logging.getLogger("hydrosp.lp")

# the LP backend's one name, for run records
SOLVER = "numpy"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

_KERNEL_STATUS = {0: OPTIMAL, 1: INFEASIBLE, 2: UNBOUNDED, 3: LIMIT}
_SENSE_CODE = {"=": 0, "==": 0, "<=": 1, "<": 1, ">=": 2, ">": 2}
_SENSE_STR = {0: "=", 1: "<=", 2: ">="}


def _as_sense_codes(senses, m):
    """Sense codes (0 '=', 1 '<=', 2 '>=') of ``m`` rows given as strings
    or codes, one per row."""
    if len(senses) != m:
        raise ValueError(f"{len(senses)} row senses for {m} rows")
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


class SparseMatrix:
    """An m x n matrix stored column by column (compressed sparse column).

    Column j's nonzeros are entries ``start[j]:start[j + 1]`` of ``index``
    (their rows, ascending) and ``value``; no stored value is zero and no
    position repeats.  The arrays are read-only, so one matrix can be
    shared by many programs.  ``A @ x`` and ``y @ A`` are ``np.bincount``
    sums over the nonzeros in column order and return dense vectors;
    ``dense()`` exports the full array for callers outside the solver
    stack.
    """

    __array_ufunc__ = None          # makes ``y @ A`` reach __rmatmul__

    def __init__(self, shape, start, index, value):
        self.shape = (int(shape[0]), int(shape[1]))
        self.start = start
        self.index = index
        self.value = value
        for a in (start, index, value):
            a.setflags(write=False)

    @classmethod
    def from_triplets(cls, shape, rows=(), cols=(), vals=()):
        """The matrix with entry ``(rows[k], cols[k]) = vals[k]`` for each
        k; zero values are dropped and a position may appear only once."""
        m, n = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("triplet arrays differ in length")
        if rows.size and not (0 <= rows.min() and rows.max() < m
                              and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"triplet outside a {m}x{n} matrix")
        keep = vals != 0.0
        order = np.lexsort((rows[keep], cols[keep]))
        rows = rows[keep][order]
        cols = cols[keep][order]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise ValueError("a matrix position appears twice")
        return cls(shape, _starts(cols, n), rows, vals[keep][order])

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("A must be 2-dimensional")
        cols, rows = np.nonzero(A.T)    # column-major order of A
        return cls(A.shape, _starts(cols, A.shape[1]), rows, A[rows, cols])

    @property
    def nnz(self):
        return self.index.size

    def columns(self):
        """The column of each stored entry."""
        return np.repeat(np.arange(self.shape[1]), np.diff(self.start))

    def triplets(self):
        return self.index, self.columns(), self.value

    def __matmul__(self, x):
        xk = np.repeat(x, np.diff(self.start))      # x[j] of each entry
        return np.bincount(self.index, weights=self.value * xk,
                           minlength=self.shape[0])

    def __rmatmul__(self, y):
        yk = np.asarray(y)[self.index]                # y[i] of each entry
        return np.bincount(self.columns(), weights=yk * self.value,
                           minlength=self.shape[1])

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.index, other.index)
                and np.array_equal(self.value, other.value))

    __hash__ = None

    def dense(self):
        out = np.zeros(self.shape)
        rows, cols, vals = self.triplets()
        out[rows, cols] = vals
        return out


def _starts(cols, n):
    """Column starts of entries sorted by column."""
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    return start


class LinearProgram:
    """min c'x  s.t.  A x (sense) b,  lb <= x <= ub.

    ``A`` may be a SparseMatrix, kept as given, or a dense 2-d array,
    converted once; the program holds only the column-wise ``matrix``.
    The ``A`` attribute is a dense export for reference solvers outside
    the package; nothing in ``hydrosp`` reads it.
    """

    def __init__(self, c, A, senses, b, lb=None, ub=None):
        self.matrix = (A if isinstance(A, SparseMatrix)
                       else SparseMatrix.from_dense(A))
        m, n = self.matrix.shape
        self.c = np.asarray(c, dtype=np.float64)
        if self.c.shape != (n,):
            raise ValueError(f"c has shape {self.c.shape}, expected ({n},)")
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        self.senses = _as_sense_codes(senses, m)
        self.lb = (
            np.zeros(n) if lb is None
            else np.asarray(lb, dtype=np.float64).copy()
        )
        self.ub = (
            np.full(n, np.inf) if ub is None
            else np.asarray(ub, dtype=np.float64).copy()
        )
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.lb == np.inf) or np.any(self.ub == -np.inf):
            raise ValueError("lb may not be +inf and ub may not be -inf")
        if np.any(self.lb > self.ub + 1e-12):
            raise ValueError("lb > ub for some variable")
        if not (np.all(np.isfinite(self.c))
                and np.all(np.isfinite(self.matrix.value))
                and np.all(np.isfinite(self.b))):
            raise ValueError("c, A and b must be finite")

    @property
    def A(self):
        return self.matrix.dense()

    @property
    def nrows(self):
        return self.matrix.shape[0]

    @property
    def nvars(self):
        return self.matrix.shape[1]

    def sense_strings(self):
        return [_SENSE_STR[int(s)] for s in self.senses]


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis of an m-row, n-column program.

    ``basic[i]`` is the column basic in row position i (structural columns
    ``0..n-1``, the slack of row r at ``n + r``); ``status`` holds each of
    the n + m columns' states: 0 at lower bound, 1 at upper, 2 free, 3 basic.

    ``inverse``, on a basis a solve returned, is the m x m ``B^-1`` that
    solve ended with, and ``age`` the number of pivots applied to it since
    it was last computed from scratch.  Handed back to ``solve_lp``, the
    inverse is reused (and updated in place) if it passes the kernel's
    probe, and the age carries on towards the next refactorization.  A
    caller that keeps a basis only as a record should drop the inverse
    (``dataclasses.replace(basis, inverse=None, age=0)``): it is the
    largest array a solve returns.  Hand a basis that carries an inverse
    to one solve at a time.
    """

    basic: np.ndarray
    status: np.ndarray
    inverse: np.ndarray = None
    age: int = 0


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    objective: float = None
    iterations: int = 0
    nodes: int = 0
    basis: Basis = None           # final basis, on OPTIMAL kernel solves
    warm_started: bool = False    # the solve started from a given basis
    factorizations: int = 0       # times the solve computed B^-1 afresh

    @property
    def ok(self):
        return self.status == OPTIMAL


def default_iteration_limit(m, n):
    return 400 * (m + n) + 2000


def solve_lp(lp, max_iter=None, basis=None):
    """Solve a LinearProgram; on OPTIMAL the solution carries row duals and
    reduced costs taken from the final basis, and that basis itself.

    ``basis``, if given, is a starting basis, normally the ``basis`` of an
    earlier solve of a program with the same ``A`` and senses (only ``b``,
    ``c`` and the bounds may differ).  The kernel falls back to a cold start
    when the basis holds an artificial, a nonbasic state names an infinite
    bound, or its basis matrix is singular; ``warm_started`` tells which.
    Its ``inverse`` and ``age`` go to the kernel with it: an inverse that
    passes the kernel's probe is reused and updated in place, so the
    handed basis's inverse no longer belongs to it afterwards; one that
    fails (another program's, a stale one, a wrong shape) is replaced by a
    fresh factorization, with the same result as a basis handed without
    one.  The returned basis carries the final inverse and its age, and
    ``factorizations`` counts the solve's fresh inverses.

    Every OPTIMAL result passes ``_certificate`` first; one that fails, and
    a kernel run that meets a singular basis, come back as LIMIT with the
    reason logged on the ``hydrosp.lp`` logger.
    """
    sol = _solve(lp, max_iter, basis)
    if not sol.ok:
        return sol
    for check, worst, tol in _certificate(lp, sol):
        if not worst <= tol:
            log.warning("optimal solution of a %dx%d LP fails the %s check: "
                        "scaled violation %.3g > %.3g; reporting limit",
                        lp.nrows, lp.nvars, check, worst, tol)
            return LpSolution(LIMIT, x=sol.x, iterations=sol.iterations,
                              warm_started=sol.warm_started,
                              factorizations=sol.factorizations)
    return sol


def _solve(lp, max_iter, basis):
    if max_iter is None:
        max_iter = default_iteration_limit(lp.nrows, lp.nvars)
    basic0 = status0 = binv0 = None
    age0 = 0
    if basis is not None:
        basic0 = np.asarray(basis.basic, dtype=np.int64)
        status0 = np.asarray(basis.status, dtype=np.int64)
        binv0, age0 = basis.inverse, basis.age
    try:
        out = simplex_kernel(lp.c, lp.matrix, lp.senses, lp.b, lp.lb, lp.ub,
                             OPTIMALITY_TOL, max_iter, basic0, status0,
                             binv0, age0)
    except np.linalg.LinAlgError as exc:
        log.warning("simplex on a %dx%d LP stopped at a singular basis (%s); "
                    "reporting limit", lp.nrows, lp.nvars, exc)
        return LpSolution(LIMIT)
    status, x, y, dj, obj, iters, basic, vstat, warm, binv, age, nfact = out
    st = _KERNEL_STATUS[int(status)]
    if st != OPTIMAL:
        return LpSolution(st, x=x, iterations=int(iters),
                          warm_started=bool(warm), factorizations=int(nfact))
    return LpSolution(
        OPTIMAL, x=x, duals=y, reduced_costs=dj,
        objective=float(obj), iterations=int(iters),
        basis=Basis(basic, vstat, binv, int(age)), warm_started=bool(warm),
        factorizations=int(nfact),
    )


def _worst(v):
    return float(np.max(v)) if v.size else 0.0


def _certificate(lp, sol):
    """``(check, worst scaled violation, tolerance)`` for each optimality
    condition of ``sol`` in the min convention, where row i's dual ``y_i``
    is the objective's rate of change in ``b_i`` and ``d = c - y A``.

    - primal: row residual per sense over ``1 + |b_i|``;
    - dual sign: ``y <= 0`` on ``<=`` rows, ``y >= 0`` on ``>=`` rows;
    - reduced cost: ``d_j >= 0`` unless ``x_j`` sits at its upper bound and
      ``d_j <= 0`` unless at its lower bound, over ``1 + |c_j|``;
    - gap: ``|c x - (b y + d x)|`` over ``1 + |c x|``.
    """
    x, y, d = sol.x, sol.duals, sol.reduced_costs
    s = lp.senses
    r = lp.matrix @ x - lp.b
    primal = np.where(s == 1, r, np.where(s == 2, -r, np.abs(r)))
    sign = np.where(s == 1, y, np.where(s == 2, -y, 0.0))
    # x_j can still move down (up) unless it sits at its lower (upper) bound
    down = np.isneginf(lp.lb) | (x - lp.lb > FEASIBILITY_TOL
                                 * (1.0 + np.abs(lp.lb)))
    up = np.isposinf(lp.ub) | (lp.ub - x > FEASIBILITY_TOL
                               * (1.0 + np.abs(lp.ub)))
    rc = np.maximum(np.where(down, d, 0.0), np.where(up, -d, 0.0))
    cx = float(lp.c @ x)
    gap = abs(cx - (float(lp.b @ y) + float(d @ x)))
    return (
        ("primal", _worst(primal / (1.0 + np.abs(lp.b))), FEASIBILITY_TOL),
        ("dual sign", _worst(sign), OPTIMALITY_TOL),
        ("reduced cost", _worst(rc / (1.0 + np.abs(lp.c))), OPTIMALITY_TOL),
        ("gap", gap / (1.0 + abs(cx)), OPTIMALITY_TOL),
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


def solve_mbp(lp, binaries, node_limit=100000, warm=None):
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
        return solve_lp(lp)

    seq = 0
    heap = [(-np.inf, seq, lp.lb.copy(), lp.ub.copy())]
    incumbent = None
    inc_obj = np.inf
    if warm is not None:
        wlb, wub = lp.lb.copy(), lp.ub.copy()
        for j in binaries:
            v = 1.0 if warm[j] > 0.5 else 0.0
            wlb[j] = wub[j] = v
        wsol = solve_lp(LinearProgram(lp.c, lp.matrix, lp.senses, lp.b,
                                      wlb, wub))
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
        sub = LinearProgram(lp.c, lp.matrix, lp.senses, lp.b, nlb, nub)
        sol = solve_lp(sub)
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
