"""LP containers, the simplex entry point, and branch-and-bound for binaries.

Everything here is minimization: callers with a max objective negate at the
boundary.  LP solutions carry duals and reduced costs so decomposition
layers can derive cuts without re-deriving basis information.  Constraint
matrices are ``SparseMatrix`` column stores throughout; no program is ever
held as a dense array.

Every program container (``LinearProgram`` here, ``core``'s first stage
and recourse) checks its arrays once, where it is built, with
``program_arrays`` or its part ``constraint_arrays``.

There is one LP path: ``solve_lp`` runs the numpy simplex kernel of
``_simplex.py`` and certifies every optimal result against the KKT
conditions (``_certificate``); ``solve_mbp`` is a hand-written best-first
branch and bound on top of it.  A child node differs from its parent in
one bound, so it starts from the basis its parent ended in: a few pivots
from its own optimum instead of a cold phase 1.  A basis is two arrays,
so an open node on the heap costs O(n + m) memory, and the kernel factors
it once when the node is solved.  ``BasisBunch`` settles programs that
share a matrix at one basis without a simplex run (bunching); what it
cannot settle is left to ``solve_lp``, started from a copy of the bunch's
inverse.
"""

from dataclasses import dataclass
import heapq
import logging
import operator

import numpy as np

from ._simplex import (_slack_bounds, _start_inverse, _with_slacks,
                       simplex_kernel)
from .sparse import SparseMatrix
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


def _frozen(a):
    """``a`` itself if it is read-only, else a read-only copy."""
    a = a.copy() if a.flags.writeable else a
    a.flags.writeable = False
    return a


def _as_sense_codes(senses, m):
    """Sense codes (0 '=', 1 '<=', 2 '>=') of ``m`` rows given as strings
    or codes, as a read-only int64 array; a read-only int64 code array is
    only range-checked and kept, so programs can share it."""
    if len(senses) != m:
        raise ValueError(f"{len(senses)} row senses for {m} rows")
    codes = senses
    if not (isinstance(senses, np.ndarray) and senses.dtype == np.int64):
        codes = np.array([_SENSE_CODE.get(s, -1) if isinstance(s, str)
                          else int(s) for s in senses], dtype=np.int64)
    bad = np.flatnonzero((codes < 0) | (codes > 2))
    if bad.size:
        raise ValueError(f"unknown row sense {senses[bad[0]]!r} at row "
                         f"{bad[0]}")
    return _frozen(codes)


def constraint_arrays(A, senses, lb=None, ub=None, n=None, name="A"):
    """The checked ``(A, senses, lb, ub)`` of a program (or a recourse):
    a dense ``A``, named ``name``, becomes a SparseMatrix (if not 2-d, of
    ``n`` columns), senses read-only codes, and ``lb`` and ``ub`` (0 and
    +inf by default) are kept if read-only, else copied read-only."""
    if not isinstance(A, SparseMatrix):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 and n is not None:
            A = A.reshape(-1, n) if A.size else A.reshape(0, n)
        A = SparseMatrix.from_dense(A, name)
    n = A.shape[1] if n is None else n
    if A.shape[1] != n:
        raise ValueError(f"{name} has {A.shape[1]} columns, expected {n}")
    senses = _as_sense_codes(senses, A.shape[0])
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=np.float64)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=np.float64)
    for bound, v in (("lb", lb), ("ub", ub)):
        if v.shape != (n,):
            raise ValueError(f"{bound} has shape {v.shape}, expected ({n},)")
    if np.any(lb == np.inf) or np.any(ub == -np.inf):
        raise ValueError("lb may not be +inf and ub may not be -inf")
    if np.any(lb > ub + 1e-12):
        raise ValueError("lb > ub for some variable")
    return A, senses, _frozen(lb), _frozen(ub)


def program_arrays(c, A, senses, b, lb=None, ub=None):
    """The checked ``(c, A, senses, b, lb, ub)`` of min c'x s.t. A x (sense)
    b, lb <= x <= ub, the check of ``LinearProgram`` and ``FirstStage``:
    ``constraint_arrays`` for ``len(c)`` columns, and finite c and b."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError(f"c has shape {c.shape}, expected a vector")
    A, senses, lb, ub = constraint_arrays(A, senses, lb, ub, len(c))
    b = np.asarray(b, dtype=np.float64)
    if b.shape != A.shape[:1]:
        raise ValueError(f"b has shape {b.shape}, expected {A.shape[:1]}")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
        raise ValueError("c and b must be finite")
    return c, A, senses, b, lb, ub


def binary_columns(binaries, lb, ub):
    """``binaries`` checked as the binary columns of a program with bounds
    ``lb`` and ``ub``, the check of ``solve_mbp`` and ``FirstStage``:
    distinct integers in ``0..n-1``, each column's bounds within [0, 1].
    Returns them as a tuple of ints, in the given order."""
    n, out = len(lb), {}
    for j in binaries:
        try:
            j = operator.index(j)
        except TypeError:
            raise ValueError(f"binary index {j!r} is not an integer") from None
        if not 0 <= j < n:
            raise ValueError(f"binary variable {j} is outside 0..{n - 1}")
        if j in out:
            raise ValueError(f"binary variable {j} is named more than once")
        if lb[j] < -1e-12 or ub[j] > 1.0 + 1e-12:
            raise ValueError(f"binary variable {j} must have bounds within [0, 1]")
        out[j] = None
    return tuple(out)


class LinearProgram:
    """min c'x  s.t.  A x (sense) b,  lb <= x <= ub.

    The arguments pass ``program_arrays``; the program holds only the
    column-wise ``matrix`` and read-only bounds (a recourse's own in a
    scenario subproblem).  The ``A`` attribute is a dense export for
    reference solvers outside the package; nothing in ``hydrosp`` reads it.
    """

    def __init__(self, c, A, senses, b, lb=None, ub=None):
        self.c, self.matrix, self.senses, self.b, self.lb, self.ub = (
            program_arrays(c, A, senses, b, lb, ub))

    @property
    def A(self):
        return self.matrix.dense()

    @property
    def nrows(self):
        return self.matrix.shape[0]

    @property
    def nvars(self):
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis of an m-row, n-column program.

    ``basic[i]`` is the column basic in row position i (structural columns
    ``0..n-1``, the slack of row r at ``n + r``); ``status`` holds each of
    the n + m columns' states: 0 at lower bound, 1 at upper, 2 free, 3 basic.
    A solve reads a starting basis and never changes it, so one basis may
    start many solves.
    """

    basic: np.ndarray
    status: np.ndarray


@dataclass
class LpSolution:
    """The result of ``solve_lp`` or ``solve_mbp``.

    ``iterations`` counts simplex pivots and bound flips, so a solve
    started at its optimal basis reports 0.  For a ``solve_mbp`` result it
    is the sum over every LP the branch and bound solved (the warm probe
    and all nodes), and ``nodes`` the number of nodes solved.  A
    ``solve_mbp`` result carries no duals or reduced costs: those of the
    incumbent's node LP are not the MIP's, and no caller reads them.
    """

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


def solve_lp(lp, max_iter=None, basis=None, inverse=None):
    """Solve a LinearProgram; on OPTIMAL the solution carries row duals and
    reduced costs taken from the final basis, and that basis itself.

    ``basis``, if given, is a starting basis, normally the ``basis`` of an
    earlier solve of a program with the same ``A`` and senses (only ``b``,
    ``c`` and the bounds may differ).  The kernel starts cold, from the
    slack basis, when the basis holds an artificial, a nonbasic state names
    an infinite bound, or its basis matrix is singular; ``warm_started``
    tells which, and a refused basis is logged at DEBUG.
    ``inverse``, if given, is the inverse of ``basis``'s basis matrix,
    already vetted as a start: the ``inverse`` of a ``BasisBunch`` at
    ``basis`` of a program with the same ``A``, senses and bounds.  The
    kernel starts from a copy of it instead of computing it again.
    ``factorizations`` counts the basis inverses the solve computed from
    scratch: one for a warm start without ``inverse``, none with it, and
    one per refactorization.

    Every OPTIMAL result passes ``_certificate`` first; one that fails, and
    a kernel run that meets a singular basis, come back as LIMIT with the
    reason logged on the ``hydrosp.lp`` logger.
    """
    sol = _solve(lp, max_iter, basis, inverse)
    if not sol.ok:
        return sol
    for check, worst, tol in _certificate(
            lp.matrix, lp.senses, lp.b[None], lp.c[None], lp.lb, lp.ub,
            sol.x[None], sol.duals[None], sol.reduced_costs[None]):
        if not worst[0] <= tol:
            log.warning("optimal solution of a %dx%d LP fails the %s check: "
                        "scaled violation %.3g > %.3g; reporting limit",
                        lp.nrows, lp.nvars, check, worst[0], tol)
            return LpSolution(LIMIT, x=sol.x, iterations=sol.iterations,
                              warm_started=sol.warm_started,
                              factorizations=sol.factorizations)
    return sol


def _solve(lp, max_iter, basis, inverse):
    if max_iter is None:
        max_iter = default_iteration_limit(lp.nrows, lp.nvars)
    if inverse is not None and basis is None:
        raise ValueError("an inverse needs the basis it inverts")
    basic0 = status0 = None
    if basis is not None:
        basic0 = np.asarray(basis.basic, dtype=np.int64)
        status0 = np.asarray(basis.status, dtype=np.int64)
    try:
        out = simplex_kernel(lp.c, lp.matrix, lp.senses, lp.b, lp.lb, lp.ub,
                             OPTIMALITY_TOL, max_iter, basic0, status0,
                             inverse)
    except np.linalg.LinAlgError as exc:
        log.warning("simplex on a %dx%d LP stopped at a singular basis (%s); "
                    "reporting limit", lp.nrows, lp.nvars, exc)
        return LpSolution(LIMIT)
    status, x, y, dj, obj, iters, basic, vstat, warm, nfact = out
    if basis is not None and not warm:
        log.debug("start basis of a %dx%d LP refused (an artificial, a "
                  "nonbasic state on an infinite bound, or a singular "
                  "basis matrix); solving from the slack basis",
                  lp.nrows, lp.nvars)
    st = _KERNEL_STATUS[int(status)]
    if st != OPTIMAL:
        return LpSolution(st, x=x, iterations=int(iters),
                          warm_started=bool(warm), factorizations=int(nfact))
    return LpSolution(
        OPTIMAL, x=x, duals=y, reduced_costs=dj,
        objective=float(obj), iterations=int(iters),
        basis=Basis(basic, vstat), warm_started=bool(warm),
        factorizations=int(nfact),
    )


class BasisBunch:
    """Programs like ``lp`` settled at one basis without a simplex run
    each: bunching (Wets 1988; Birge & Louveaux, *Introduction to
    Stochastic Programming*, section 5.4).

    The programs share ``lp``'s matrix, senses and bounds (``lb`` and
    ``ub``, held by reference) and differ only in ``b`` and ``c``, as the
    subproblems of one recourse do; ``basis`` is a basis of that matrix,
    normally the final basis of ``solve_lp(lp)``.  The basis matrix ``B``
    of ``[A | I]`` is inverted once when the bunch is made, by the
    routine that inverts a kernel's start basis (``_start_inverse``);
    ``settle`` then tests any number of stacks of programs against it, so
    a caller can test its programs a chunk at a time.  A basis the kernel
    would not start from (one holding an artificial, a singular ``B``, or
    an inverse that fails the probe) settles nothing, and ``inverse`` is
    then None.

    ``inverse``, read-only, is that ``B^-1``: the one a kernel started from
    ``basis`` would compute, so ``solve_lp(p, basis=bunch.basis,
    inverse=bunch.inverse)`` solves a program ``p`` the bunch leaves over
    with the same pivots, from a copy, and without an ``inv`` call of its
    own.  ``factorizations`` is 1 if the bunch tried to invert ``B``, else
    0.  A bunch is meant to live for one fan-out: its inverse is m x m.
    """

    def __init__(self, lp, basis):
        self.matrix, self.senses, self.basis = lp.matrix, lp.senses, basis
        self.lb, self.ub = lp.lb, lp.ub
        # the bounds of the columns of [A | I]
        slack_lo, slack_hi = _slack_bounds(lp.senses)
        self._lo = np.concatenate([lp.lb, slack_lo])
        self._hi = np.concatenate([lp.ub, slack_hi])
        self.inverse, self.factorizations = _start_inverse(
            _with_slacks(lp.matrix), basis.basic, basis.status, self._lo,
            self._hi)
        if self.inverse is not None:
            self.inverse.flags.writeable = False

    def settle(self, b, c):
        """Settle the K programs ``min c_k x  s.t.  A x (sense) b_k,
        lb <= x <= ub`` given as the rows of ``b`` (K x m) and ``c``
        (K x n).  One entry per program: an OPTIMAL ``LpSolution`` if the
        program is optimal at the bunch's basis, else ``None``, which is
        left to ``solve_lp``.

        The nonbasic columns sit at the bounds their states name (each
        state names a finite bound, as ``_usable`` requires of a start
        before the bunch inverts its basis), the same values in every
        program; one product with ``A`` and one with ``B^-1`` give all
        the basic values ``X_B = B^-1 (b_k - N x_N)``, and a program stays
        if they lie within the bounds up to the kernel's 1e-9.  For those,
        one more gives the duals ``Y = c_B B^-1`` and one with ``A`` the
        reduced costs ``d = c - y A``; a program is optimal at the basis
        when no nonbasic column that can move (``lb < ub``, so neither a
        fixed column nor the slack of an ``=`` row) has a reduced cost of
        improving sign beyond ``OPTIMALITY_TOL``: the kernel's own
        stopping rule.  The optimal
        ones then pass ``_certificate`` together, as every optimal LP
        must, and only those it passes are returned.  A solution has
        ``iterations=0``, ``warm_started=True``, ``factorizations=0`` (the
        bunch counts its inverse once, in its own ``factorizations``) and
        the bunch's ``basis`` object itself.
        """
        A, basic, status = self.matrix, self.basis.basic, self.basis.status
        b = np.asarray(b, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        K = b.shape[0]
        m, n = A.shape
        if b.shape != (K, m) or c.shape != (K, n):
            raise ValueError(f"b and c have shapes {b.shape} and {c.shape}, "
                             f"expected ({K}, {m}) and ({K}, {n})")
        out = [None] * K
        if self.inverse is None or not K:
            return out
        lo, hi = self._lo, self._hi
        xval = np.where(status == 0, lo, np.where(status == 1, hi, 0.0))
        # nonbasic slacks sit at zero, so only the structural columns move b
        XB = (b - A @ xval[:n]) @ self.inverse.T
        ok = np.all((lo[basic] - 1e-9 <= XB) & (XB <= hi[basic] + 1e-9),
                    axis=1)
        keep = np.flatnonzero(ok)
        if not keep.size:
            return out
        ck = c[keep]
        Y = np.concatenate([ck, np.zeros((keep.size, m))],
                           axis=1)[:, basic] @ self.inverse
        d = np.concatenate([ck - Y @ A, -Y], axis=1)
        score = np.where(status == 0, -d, np.where(status == 1, d, np.abs(d)))
        movable = (status != 3) & (hi - lo > 0.0)
        optimal = ~np.any(movable & (score > OPTIMALITY_TOL), axis=1)
        rows = np.flatnonzero(optimal)
        ks = keep[rows]
        xk = np.tile(xval, (ks.size, 1))
        xk[:, basic] = XB[ks]
        X = np.minimum(np.maximum(xk[:, :n], self.lb), self.ub)
        Y, D = Y[rows], d[rows, :n]
        checks = _certificate(A, self.senses, b[ks], c[ks], self.lb, self.ub,
                              X, Y, D)
        for r, k in enumerate(ks):
            failed = [check for check, worst, tol in checks
                      if not worst[r] <= tol]
            if failed:
                log.debug("program %d passes the checks at the basis but "
                          "fails the %s check; left to the simplex", k,
                          ", ".join(failed))
                continue
            out[k] = LpSolution(OPTIMAL, x=X[r], duals=Y[r],
                                reduced_costs=D[r],
                                objective=float(c[k] @ X[r]),
                                basis=self.basis, warm_started=True)
        return out


def _worst(v):
    """Each row's largest entry, 0 for an empty row (a NaN stays NaN)."""
    return np.max(v, axis=1, initial=0.0)


def _certificate(A, senses, b, c, lb, ub, x, y, d):
    """``(check, worst scaled violation of each program, tolerance)`` for
    each optimality condition of K candidate solutions, in the min
    convention, where row i's dual ``y_i`` is the objective's rate of
    change in ``b_i`` and ``d = c - y A``.  The programs share ``A``,
    ``senses``, ``lb`` and ``ub``; ``b``, ``c``, ``x``, ``y`` and ``d``
    hold one program per row.  One program is the case K = 1.

    - primal: row residual per sense over ``1 + |b_i|``;
    - dual sign: ``y <= 0`` on ``<=`` rows, ``y >= 0`` on ``>=`` rows;
    - reduced cost: ``d_j >= 0`` unless ``x_j`` sits at its upper bound and
      ``d_j <= 0`` unless at its lower bound, over ``1 + |c_j|``;
    - gap: ``|c x - (b y + d x)|`` over ``1 + |c x|``.
    """
    s = senses
    r = (A @ x.T).T - b
    primal = np.where(s == 1, r, np.where(s == 2, -r, np.abs(r)))
    sign = np.where(s == 1, y, np.where(s == 2, -y, 0.0))
    # x_j can still move down (up) unless it sits at its lower (upper) bound
    down = np.isneginf(lb) | (x - lb > FEASIBILITY_TOL * (1.0 + np.abs(lb)))
    up = np.isposinf(ub) | (ub - x > FEASIBILITY_TOL * (1.0 + np.abs(ub)))
    rc = np.maximum(np.where(down, d, 0.0), np.where(up, -d, 0.0))
    cx = np.einsum("kj,kj->k", c, x)
    gap = np.abs(cx - (np.einsum("ki,ki->k", b, y)
                       + np.einsum("kj,kj->k", d, x)))
    return (
        ("primal", _worst(primal / (1.0 + np.abs(b))), FEASIBILITY_TOL),
        ("dual sign", _worst(sign), OPTIMALITY_TOL),
        ("reduced cost", _worst(rc / (1.0 + np.abs(c))), OPTIMALITY_TOL),
        ("gap", gap / (1.0 + np.abs(cx)), OPTIMALITY_TOL),
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

    Each node starts from a basis: a child from the one its parent ended
    in (the child differs from it in one bound), the root from the one the
    warm probe ended in, if that probe was optimal, with every nonbasic
    binary at the value the probe fixed it to.  An open node keeps the
    basis's ``basic`` and ``status`` arrays, O(n + m) each, and the kernel
    factors it once when the node is solved.
    ``iterations`` of the result is the sum over every LP solved: the warm
    probe and all nodes.
    """
    binaries = sorted(binary_columns(binaries, lp.lb, lp.ub))
    if not binaries:
        return solve_lp(lp)

    seq = 0
    root_basis = None
    incumbent = None
    inc_obj = np.inf
    iters = 0
    if warm is not None:
        wlb, wub = lp.lb.copy(), lp.ub.copy()
        for j in binaries:
            v = 1.0 if warm[j] > 0.5 else 0.0
            wlb[j] = wub[j] = v
        wsol = solve_lp(LinearProgram(lp.c, lp.matrix, lp.senses, lp.b,
                                      wlb, wub))
        iters += wsol.iterations
        if wsol.status == OPTIMAL:
            # the probe's nonbasic binaries sit at lb = ub, which its basis
            # may name either bound; in the root that bound is 0 or 1, so
            # name the one at the probe's value: 0 at lower, 1 at upper
            status = wsol.basis.status.copy()
            fixed = [j for j in binaries if status[j] != 3]
            status[fixed] = wub[fixed] == 1.0
            root_basis = Basis(wsol.basis.basic, status)
            x = wsol.x.copy()
            for j in binaries:
                x[j] = round(x[j])
            incumbent = LpSolution(OPTIMAL, x=x, objective=wsol.objective)
            inc_obj = wsol.objective
    heap = [(-np.inf, seq, lp.lb.copy(), lp.ub.copy(), root_basis)]
    nodes = 0
    limit_hit = False
    while heap:
        bound_est, _, nlb, nub, nbasis = heapq.heappop(heap)
        if bound_est >= inc_obj - 1e-6:
            continue
        if nodes >= node_limit:
            limit_hit = True
            break
        nodes += 1
        sub = LinearProgram(lp.c, lp.matrix, lp.senses, lp.b, nlb, nub)
        sol = solve_lp(sub, basis=nbasis)
        iters += sol.iterations
        if sol.status == INFEASIBLE:
            continue
        if sol.status == UNBOUNDED:
            return LpSolution(UNBOUNDED, iterations=iters, nodes=nodes)
        if sol.status == LIMIT:
            return LpSolution(LIMIT, iterations=iters, nodes=nodes)
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
                incumbent = LpSolution(OPTIMAL, x=x, objective=sol.objective)
            continue
        for fix in (0.0, 1.0):
            clb = nlb.copy()
            cub = nub.copy()
            clb[j] = fix
            cub[j] = fix
            seq += 1
            heapq.heappush(heap, (sol.objective, seq, clb, cub, sol.basis))

    if incumbent is None:
        return LpSolution(LIMIT if limit_hit else INFEASIBLE,
                          iterations=iters, nodes=nodes)
    if limit_hit:
        incumbent.status = LIMIT
    incumbent.iterations = iters
    incumbent.nodes = nodes
    return incumbent
