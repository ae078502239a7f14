"""Bounded-variable two-phase simplex kernel: the one LP solver behind
``lp.solve_lp``.

One store.  The kernel works on ``W = [A | I | artificials]``, a
``sparse.SparseMatrix`` joined by ``SparseMatrix.hstack``: structural
columns ``0..n-1``, the slack of row ``i`` at ``n + i`` and, if the start
needs one, the phase-1 artificial of row ``i`` at ``n + m + i``.  No matrix
of the program is formed densely; the one dense matrix is the explicit
basis inverse ``B^-1`` (m x m).
Rows are ``A x (sense) b`` with sense codes 0 '=', 1 '<=', 2 '>='; variable
bounds ``lb <= x <= ub`` may be infinite.  Minimization only.

Pricing: ``d = c - y W`` is ``y @ W``, one ``np.bincount`` over the
nonzeros, computed only when ``B^-1`` has changed since the last pricing:
after a pivot, after a refactorization and at the start of a phase.  A
bound flip moves only the flipped column's state, so after one the kernel
keeps ``d`` and recomputes only the scores and the eligible set.  The
entering column comes from masked numpy, Dantzig's largest violation or,
after a degeneracy stall, Bland's lowest eligible index (``argmax`` and the
first eligible index both break ties towards the lowest column).  ``w =
B^-1 a_q`` multiplies only the columns of ``B^-1`` at the entering
column's stored rows by its stored values (``_entering``).  The rest of a
pivot works only on the rows where ``w`` is nonzero (on the river's
day-ahead subproblems a median of 28 of 439): the two-pass ratio test
(``_ratio_test``) is a Python loop over them, and the update of the basic
values and the rank-1 update of ``B^-1`` are one numpy step each.  A row
where ``w`` is zero cannot bound the step, so the pivots are those of a
loop over every row.  A numpy ratio test would be faster still, but
``bench/run.py`` keeps every timed call's result, so a faster solve fits
more calls into its run and raises the peak RSS it reports (ROADMAP
item 1).

One start.  Every solve starts from a basis in the same way.  A given
basis, ``basis0`` (length m, the column basic in each row position) and
``vstat0`` (length n + m, each column's state: 0 at lower bound, 1 at
upper, 2 free, 3 basic), is typically the one a solve of a program with
the same ``A`` ended in.  ``_start_inverse``, which ``lp.BasisBunch``
shares, uses it only if it is ``_usable`` (m distinct basic columns, none
artificial, every nonbasic state naming a finite bound) and its ``B^-1``,
computed from scratch (``_invert``), passes a probe (``_fits``) costing
one matrix-vector product and one pass over the basis columns' nonzeros:
``B (B^-1 v)`` must match ``v`` within ``FACTOR_PROBE_TOL`` for a fixed
``v`` with distinct entries, which catches a numerically singular ``B``
that ``inv`` inverts without an error.  Otherwise the solve starts from
the slack basis (Maros, *Computational Techniques of the Simplex Method*,
2003): every structural at a finite bound (lower first) or free at zero,
every slack basic, and ``B^-1 = I`` with no factorization.

A caller that already holds that vetted inverse passes it as ``binv0``:
the kernel then pivots a copy of it and computes none.  The scenario
fan-out does so with the inverse its ``BasisBunch`` computed, so every
scenario that falls back from scenario 0's basis shares one
factorization.  The inverse is the one ``_start_inverse`` would compute
for the same ``W`` and bounds, so every pivot is the same; it lives only
while the fan-out runs, and the copy the kernel pivots takes the place of
the ``inv`` call's dense ``B``, so a fallback holds no more at its start.

From either basis, the nonbasic columns sit at the bounds their states
name and ``x_B = B^-1 (b - N x_N)``.  A basic variable outside its bounds
by more than 1e-9 leaves at the bound it violates, and an artificial copy
of its column, signed so its value is positive, takes its position; phase
1 drives those out and phase 2 continues from there.

Refactorization.  ``B^-1`` is computed from scratch again only when a
check finds it inaccurate, and the old inverse is released first, so a
refactorization holds two m x m arrays (``_invert``'s dense ``B`` and its
inverse).  Pricing then runs again with the fresh inverse.  Two checks:

- every ``REFACTOR_AGE`` pivots applied to the inverse, the probe every
  start inverse passes (``_fits``: ``B (B^-1 v) ~ v`` within
  ``FACTOR_PROBE_TOL``, one matrix-vector product).  An inverse that
  passes is kept and only ``x_B`` is recomputed from it; one that fails
  is refactored.  So one test decides whether any inverse is used,
  whether fresh, handed over by a bunch or updated (Maros, 2003);
- when a phase ends (no eligible column), the basic values recomputed
  with the current ``B^-1`` leave a row residual ``|B x_B - r|_i`` above
  ``BASIS_RESIDUAL_TOL * (1 + |b_i|)``, and the inverse has been pivoted
  since it was computed.  ``B x_B`` is summed from the store, so the
  check never forms ``B``.

Returns ``(status, x, y, d, obj, iters, basis, vstat, warm,
factorizations)``: ``iters`` counts pivots and bound flips (a solve
started at its optimal basis reports 0), then the final basis in the same
form as the inputs, whether the given basis was used, and how many times
the solve computed ``B^-1`` from scratch (0 for a solve from the slack
basis that never refactors).  On an optimal solve, artificials still basic
at zero are pivoted out of the returned basis after the solution is read
off; one that no column can replace (a redundant row) stays, and a start
from that basis falls back to the slack basis.  Status codes: 0 optimal, 1
infeasible, 2 unbounded, 3 pivot/iteration failure.  A refactorization
that meets a singular basis raises ``np.linalg.LinAlgError``, which
``solve_lp`` reports as a limit.  The returned solution is not checked
here; ``solve_lp`` certifies it.
"""
import numpy as np

from .sparse import SparseMatrix, _starts
from .tolerances import BASIS_RESIDUAL_TOL, FACTOR_PROBE_TOL

# variable states
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

# pivots applied to B^-1 between two probes of its accuracy
REFACTOR_AGE = 128


def _with_slacks(A):
    """``[A | I]``: the columns of ``A``, then the slack of each row."""
    m = A.shape[0]
    return SparseMatrix.hstack(
        [A, SparseMatrix((m, m), np.arange(m + 1), np.arange(m), np.ones(m))])


def _slack_bounds(senses):
    """Lower and upper bounds of the slacks of rows with the sense codes
    ``senses``: ``>= 0`` on '<=' rows, ``<= 0`` on '>=' rows, ``0`` on
    '=' rows."""
    return (np.where(senses == 2, -np.inf, 0.0),
            np.where(senses == 1, np.inf, 0.0))


def _invert(B):
    """The inverse of the square basis matrix ``B`` computed from scratch;
    the dense ``B``, scattered from its columns, lives only for the
    ``inv`` call."""
    dense = np.zeros(B.shape)
    dense[B.index, B.columns()] = B.value
    return np.linalg.inv(dense)


def _fits(B, Binv):
    """The probe: whether ``B (Binv v)`` matches ``v`` (False on NaN)."""
    m = B.shape[0]
    v = 1.0 + np.arange(m) / max(m, 1)
    err = np.max(np.abs(B @ np.dot(Binv, v) - v), initial=0.0)
    return bool(err <= FACTOR_PROBE_TOL)


def _residual(W, b, x, vstat):
    """``b - W[:, j] x[j]`` over the nonbasic ``j`` with ``x[j] != 0``,
    subtracted column by column in ascending ``j``."""
    cols = W.columns()
    k = ((vstat != _BASIC) & (x != 0.0))[cols]
    rhs = b.copy()
    np.subtract.at(rhs, W.index[k], W.value[k] * x[cols[k]])
    return rhs


def _pivot(Binv, w, rrow):
    """Rank-1 update of ``Binv`` for column ``w = Binv a_q`` entering at
    row position ``rrow``, over the rows where ``w`` is nonzero."""
    Binv[rrow, :] *= 1.0 / w[rrow]
    nz = np.flatnonzero(w)
    nz = nz[nz != rrow]
    Binv[nz, :] -= w[nz, None] * Binv[rrow, :]


def _entering(Binv, W, q):
    """``w = B^-1 a_q`` for column q of ``W``: the columns of ``Binv`` at
    the column's stored rows times its stored values."""
    s, e = W.start[q], W.start[q + 1]
    return np.dot(Binv[:, W.index[s:e]], W.value[s:e])


def _ratio_test(w, nz, tdir, basis, xval, lo, hi, flipd, bland):
    """Two-pass ratio test over the rows ``nz`` (ascending, a list) where
    ``w = B^-1 a_q`` is nonzero: the first pass finds the strict minimum
    ratio and a slackened bound on it; the second picks the row with the
    largest pivot (the first on ties) among rows whose true ratio stays
    within the slack, trading a <= feas bound violation for a
    well-conditioned basis.  Returns the leaving row and the step, or -1
    and ``flipd`` if the entering variable reaches its other bound first
    (a step of inf: unbounded)."""
    feas = 1e-9
    row_rmin = np.inf
    theta_max = np.inf
    for i in nz:
        e = -tdir * w[i]
        if e > 1e-10:
            cap = hi[basis[i]] - xval[basis[i]]
            if cap < 0.0:
                cap = 0.0
            ae = e
        elif e < -1e-10:
            cap = xval[basis[i]] - lo[basis[i]]
            if cap < 0.0:
                cap = 0.0
            ae = -e
        else:
            continue
        ratio = cap / ae
        if ratio < row_rmin:
            row_rmin = ratio
        slack = (cap + feas) / ae
        if slack < theta_max:
            theta_max = slack
    if flipd <= row_rmin:
        return -1, flipd

    # Bland mode keeps the strict lowest-index rule its cycling guarantee
    # needs; otherwise any row within the slack is eligible and pivot size
    # decides
    tie = 1e-9 * (1.0 + row_rmin)
    if bland:
        limit_r = row_rmin + tie
    else:
        # the step may not exceed the entering variable's own range, or it
        # would overshoot its opposite bound
        limit_r = theta_max if theta_max < flipd else flipd
    rrow = -1
    piv_best = 0.0
    low_idx = np.inf
    step = row_rmin
    for i in nz:
        e = -tdir * w[i]
        if e > 1e-10:
            cap = hi[basis[i]] - xval[basis[i]]
            if cap < 0.0:
                cap = 0.0
            ratio = cap / e
        elif e < -1e-10:
            cap = xval[basis[i]] - lo[basis[i]]
            if cap < 0.0:
                cap = 0.0
            ratio = cap / (-e)
        else:
            continue
        if ratio <= limit_r:
            if bland:
                if basis[i] < low_idx:
                    low_idx = basis[i]
                    rrow = i
            else:
                if abs(w[i]) > piv_best:
                    piv_best = abs(w[i])
                    rrow = i
                    step = ratio
    return rrow, step


def _states_fit(vstat, lo, hi):
    """Elementwise: whether each column's state names a finite bound (free
    only if truly free) or is basic.  ``lo`` and ``hi`` may stack the
    bounds of many programs, one per row."""
    return np.where(vstat == _AT_LOWER, lo != -np.inf,
                    np.where(vstat == _AT_UPPER, hi != np.inf,
                             np.where(vstat == _FREE,
                                      ~((lo > -np.inf) | (hi < np.inf)),
                                      vstat == _BASIC)))


def _usable(basis0, vstat0, lo, hi, m, nm):
    """Whether a given basis is structurally valid for this program: m
    distinct basic columns, none artificial, and every nonbasic status
    naming a finite bound (free only if truly free)."""
    if basis0 is None or basis0.shape[0] != m or vstat0.shape[0] != nm:
        return False
    if (not _states_fit(vstat0, lo[:nm], hi[:nm]).all()
            or np.count_nonzero(vstat0 == _BASIC) != m):
        return False
    if np.any((basis0 < 0) | (basis0 >= nm)):
        return False
    return bool(np.all(vstat0[basis0] == _BASIC)
                and np.bincount(basis0, minlength=nm).max(initial=0) <= 1)


def _start_inverse(W, basis0, vstat0, lo, hi):
    """``(Binv, factorizations)`` of a given basis of ``W = [A | I]``,
    whose columns have the bounds ``lo`` and ``hi``: ``B^-1`` computed from
    scratch, or None if the basis is not ``_usable``, ``inv`` fails, or the
    fresh inverse fails the probe; ``factorizations`` is 1 if ``inv`` was
    tried, else 0."""
    m, nm = W.shape
    if not _usable(basis0, vstat0, lo, hi, m, nm):
        return None, 0
    B = W.take(basis0)
    try:
        Binv = _invert(B)
    except np.linalg.LinAlgError:
        return None, 1
    return (Binv if _fits(B, Binv) else None), 1


def simplex_kernel(c, A, senses, b, lb, ub, tol_opt, max_iter, basis0,
                   vstat0, binv0=None):
    m, n = A.shape
    nm = n + m

    W = _with_slacks(A)
    # structural | slacks | artificials
    slack_lo, slack_hi = _slack_bounds(senses)
    lo = np.concatenate([lb, slack_lo, np.zeros(m)])
    hi = np.concatenate([ub, slack_hi, np.zeros(m)])

    if binv0 is None:
        Binv, factorizations = _start_inverse(W, basis0, vstat0, lo[:nm],
                                              hi[:nm])
    else:
        # the start basis's inverse, already computed and vetted: pivot a
        # copy, so that it can start other solves too
        Binv, factorizations = binv0.copy(), 0
    warm = Binv is not None
    if not warm:
        # the slack basis: every structural at a finite bound (lower
        # first) or free at zero, and B^-1 = I with no factorization
        basis0 = n + np.arange(m)
        vstat0 = np.full(nm, _BASIC)
        vstat0[:n] = np.where((lb == -np.inf) & (ub == np.inf), _FREE,
                              np.where(lb == -np.inf, _AT_UPPER, _AT_LOWER))
        Binv = np.eye(m)

    # nonbasic columns sit at the bounds their states name; each row i
    # whose basic value then breaks its bounds gets the artificial column
    # nm + i, and phase 1 drives those out
    xval = np.zeros(nm + m)
    vstat = np.zeros(nm + m, dtype=np.int64)
    vstat[:nm] = vstat0
    xval[:nm] = np.where(vstat0 == _AT_LOWER, lo[:nm],
                         np.where(vstat0 == _AT_UPPER, hi[:nm], 0.0))
    xb = np.dot(Binv, _residual(W, b, xval, vstat))
    basis = basis0.copy()
    xval[basis] = xb
    art = np.flatnonzero(~((lo[basis] - 1e-9 <= xb)
                           & (xb <= hi[basis] + 1e-9)))
    # the basic column leaves at the bound it violates, and the artificial
    # is a copy of it, signed so its value is positive
    k = basis[art]
    below = xb[art] < lo[k]
    xval[k] = np.where(below, lo[k], hi[k])
    vstat[k] = np.where(below, _AT_LOWER, _AT_UPPER)
    res = xb[art] - xval[k]
    sgn = np.where(res >= 0.0, 1.0, -1.0)
    Binv[art] *= sgn[:, None]
    if art.size:
        copies = W.take(k)
        counts = np.zeros(m, dtype=np.int64)
        counts[art] = np.diff(copies.start)
        W = SparseMatrix.hstack([W, SparseMatrix(
            (m, m), _starts(counts), copies.index,
            copies.value * np.repeat(sgn, counts[art]))])
    # without artificials the kernel works on [A | I] alone
    ntot = W.shape[1]
    lo, hi, xval, vstat = lo[:ntot], hi[:ntot], xval[:ntot], vstat[:ntot]
    cols = nm + art
    hi[cols] = np.inf
    xval[cols] = res * sgn
    vstat[cols] = _BASIC
    basis[art] = cols

    cost1 = np.zeros(ntot)
    cost1[cols] = 1.0
    cost2 = np.zeros(ntot)
    cost2[:n] = c
    feas1 = 1e-7 * (1.0 + np.max(np.abs(b), initial=0.0))
    # |B x_B - r|_i accepted at the end of a phase
    resid_tol = BASIS_RESIDUAL_TOL * (1.0 + np.abs(b))

    age = 0
    fresh = True    # no pivot applied to Binv since it was computed
    stale = False   # Binv failed the residual check at the end of a phase
    status = 0
    iters = 0
    for phase in range(2):
        if phase == 0 and not art.size:
            continue
        cost = cost1 if phase == 0 else cost2
        # columns with room to move; bounds change only between phases
        movable = hi - lo > 0.0
        bland = False
        stall = 0
        d = None        # reduced costs, priced again whenever Binv changes
        while True:
            if age >= REFACTOR_AGE and not stale:
                # probe the updated inverse as a start inverse is probed:
                # one that still fits is kept, and only the basic values
                # are recomputed from it
                if _fits(W.take(basis), Binv):
                    age = 0
                    xval[basis] = np.dot(Binv, _residual(W, b, xval, vstat))
                else:
                    stale = True
            if stale:
                # refactorize to shed accumulated pivot error; the old
                # inverse goes first, so two m x m arrays live, not three
                Binv = None
                Binv = _invert(W.take(basis))
                factorizations += 1
                age = 0
                fresh = True
                stale = False
                d = None
                xval[basis] = np.dot(Binv, _residual(W, b, xval, vstat))

            if d is None:
                d = cost - np.dot(cost[basis], Binv) @ W

            # a nonbasic column improves by the score of its reduced cost:
            # -d at its lower bound, d at its upper bound, |d| when free
            score = np.where(vstat == _AT_LOWER, -d,
                             np.where(vstat == _AT_UPPER, d, np.abs(d)))
            eligible = np.flatnonzero((vstat != _BASIC) & movable
                                      & (score > tol_opt))
            if eligible.size == 0:
                # phase optimal: recompute x_B with the current inverse and
                # accept it if it solves B x_B = r; else refactor and price
                # again
                r = _residual(W, b, xval, vstat)
                xval[basis] = np.dot(Binv, r)
                if fresh or np.all(
                        np.abs(W.take(basis) @ xval[basis] - r) <= resid_tol):
                    break
                stale = True
                continue
            if iters >= max_iter:
                status = 3
                break
            q = eligible[0] if bland else eligible[np.argmax(score[eligible])]
            vs = vstat[q]
            tdir = (1.0 if vs == _AT_LOWER or (vs == _FREE and d[q] < 0.0)
                    else -1.0)

            w = _entering(Binv, W, q)
            flipd = np.inf if vs == _FREE else hi[q] - lo[q]

            nz = np.flatnonzero(w)
            rrow, step = _ratio_test(w, nz.tolist(), tdir, basis, xval, lo,
                                     hi, flipd, bland)
            if step == np.inf:
                status = 2 if phase == 1 else 3
                break
            iters += 1

            newval = xval[q] + tdir * step
            xval[basis[nz]] -= tdir * step * w[nz]
            if rrow < 0:
                # bound flip, basis unchanged
                if vstat[q] == _AT_LOWER:
                    xval[q] = hi[q]
                    vstat[q] = _AT_UPPER
                else:
                    xval[q] = lo[q]
                    vstat[q] = _AT_LOWER
            else:
                lv = basis[rrow]
                # snap the leaving variable onto the bound it hit
                dl = abs(xval[lv] - lo[lv]) if lo[lv] > -np.inf else np.inf
                du = abs(xval[lv] - hi[lv]) if hi[lv] < np.inf else np.inf
                if dl <= du:
                    xval[lv] = lo[lv]
                    vstat[lv] = _AT_LOWER
                else:
                    xval[lv] = hi[lv]
                    vstat[lv] = _AT_UPPER
                basis[rrow] = q
                vstat[q] = _BASIC
                xval[q] = newval
                _pivot(Binv, w, rrow)
                age += 1
                fresh = False
                d = None

            # Bland's rule after 25 degenerate steps in a row
            stall = stall + 1 if step <= 1e-12 else 0
            bland = stall >= 25

        if status != 0:
            break
        if phase == 0:
            if xval[cols].sum() > feas1:
                status = 1
                break
            hi[cols] = 0.0

    x = np.where(xval[:n] < lb, lb, xval[:n])
    x = np.where(x > ub, ub, x)
    y_out = np.zeros(m)
    dred = np.zeros(n)
    obj = np.nan
    if status == 0:
        y_out = np.dot(cost2[basis], Binv)
        dred = (cost2 - y_out @ W)[:n].copy()
        obj = np.dot(c, x)
        # artificials still basic (at zero) after phase 1 would make the
        # returned basis unusable as a warm start; swap each for the
        # nonbasic column with the largest pivot in its row.  The pivots
        # are degenerate, so x is unchanged, and the solution above was
        # read off the basis before the swap.
        for i in np.flatnonzero(basis >= nm):
            pivots = np.abs((Binv[i, :] @ W)[:nm])
            cand = np.flatnonzero((vstat[:nm] != _BASIC) & (pivots > 1e-7))
            if cand.size == 0:
                continue  # redundant row: keep the artificial
            q = cand[np.argmax(pivots[cand])]
            w = _entering(Binv, W, q)
            basis[i] = q
            vstat[q] = _BASIC
            _pivot(Binv, w, i)
    return (status, x, y_out, dred, obj, iters, basis, vstat[:nm].copy(),
            warm, factorizations)
