"""Bounded-variable two-phase simplex kernel: the one LP solver behind
``lp.solve_lp``.

The input ``A`` is the program's column store (``lp.SparseMatrix``: column
starts, row indices and values in column order), and no matrix of the
program is ever formed densely.  Each solve lists the nonzeros of the
working matrix ``[A | I | artificials]`` column by column in a
``_Columns`` store (three arrays ``col``, ``row``, ``val`` and column
pointers), copied straight from ``A`` with the slack identity after it;
the phase-1 artificial columns are appended once the starting basis is
known.  The one dense matrix is the explicit basis inverse ``B^-1``
(m x m).

Pricing reads the store: ``d = c - y W`` is one ``np.bincount`` over the
nonzeros, and the entering column comes from masked numpy, Dantzig's
largest violation or, after a degeneracy stall, Bland's lowest eligible
index (``argmax`` and the first eligible index both break ties towards the
lowest column).  The entering column ``a_q`` is scattered from the store
and ``w = B^-1 a_q`` is a dense matrix-vector product.  The rest of a pivot
works only on the rows where ``w`` is nonzero (on the river's day-ahead
subproblems a median of 28 of 439): the two-pass ratio test
(``_ratio_test``) is a Python loop over them, and the update of the basic
values and the rank-1 update of ``B^-1`` are one numpy step each.  A row
where ``w`` is zero cannot bound the step, so the pivots are those of a
loop over every row.  A numpy ratio test would be faster still, but
``bench/run.py`` keeps every timed call's result, so a faster solve fits
more calls into its run and raises the peak RSS it reports: the loop over
the nonzero rows alone took ``maintenance-de`` from 46.7 to 48.8 MiB
(+4.5 %, against a bound of 10 %).  It waits for the runner to stop
holding per-call objects (ROADMAP item 1).

Refactorization.  ``B^-1`` is computed from scratch (``np.linalg.inv`` of
the basis columns scattered from the store, the dense ``B`` dropped at
once) only on demand:

- when its age, the number of pivots applied to it since it was last
  computed from scratch, reaches ``REFACTOR_AGE``;
- when a phase ends (no eligible column), the basic values recomputed
  with the current ``B^-1`` leave a row residual ``|B x_B - r|_i`` above
  ``BASIS_RESIDUAL_TOL * (1 + |b_i|)``, and the inverse has been pivoted
  since it was computed; pricing then runs again with the fresh inverse.
  ``B x_B`` is summed from the store, so the check never forms ``B``.

Rows are ``A x (sense) b`` with sense codes 0 '=', 1 '<=', 2 '>='; variable
bounds ``lb <= x <= ub`` may be infinite.  Minimization only.  Columns are
numbered structural ``0..n-1``, then the slack of row ``i`` at ``n + i``,
then phase-1 artificials from ``n + m`` on (the artificial of row ``i`` at
``n + m + i``).

Warm start: ``basis0`` (length m, the column basic in each row position)
and ``vstat0`` (length n + m, each column's state: 0 at lower bound, 1 at
upper, 2 free, 3 basic) give a starting basis, typically the one a solve
of a program with the same ``A`` ended in.  Its ``B^-1`` is computed from
scratch and used only if it passes a probe costing one matrix-vector
product and one pass over the basis columns' nonzeros: ``B (B^-1 v)`` must
match ``v`` within ``FACTOR_PROBE_TOL`` for a fixed ``v`` with distinct
entries, which catches a numerically singular ``B`` that ``inv`` inverts
without an error.

Nonbasic columns sit at the bound their state names and
``x_B = B^-1 (b - N x_N)`` is recomputed.  A basic variable outside its
bounds leaves at the bound it violates and an artificial copy of its
column, signed so its value is positive, takes its position; phase 1
drives those out and phase 2 continues from there.  The kernel starts cold
instead (the slack/artificial basis, whose inverse is diagonal and needs
no factorization) when ``basis0`` is None or has the wrong length, when the
basis holds an artificial or repeats a column, when a nonbasic state names
an infinite bound, or when ``B`` is singular (``inv`` fails or the fresh
inverse fails the probe).

Returns ``(status, x, y, d, obj, iters, basis, vstat, warm,
factorizations)``: ``iters`` counts pivots and bound flips (a solve
started at its optimal basis reports 0), then the final basis in the same
form as the inputs, whether the given basis was used, and how many times
the solve computed ``B^-1`` from scratch.  On an optimal solve,
artificials still basic at zero are pivoted out of the returned basis
after the solution is read off; one that no column can replace (a
redundant row) stays, and a warm start from it falls back cold.
Status codes: 0 optimal, 1 infeasible, 2 unbounded, 3 pivot/iteration
failure.  A refactorization that meets a singular basis raises
``np.linalg.LinAlgError``, which ``solve_lp`` reports as a limit.  The
returned solution is not checked here; ``solve_lp`` certifies it.
"""

import numpy as np

from .tolerances import BASIS_RESIDUAL_TOL, FACTOR_PROBE_TOL

# variable states
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

# pivots after which B^-1 is computed from scratch
REFACTOR_AGE = 128


class _Columns:
    """The nonzeros of an m-row working matrix of ``ntot`` columns, listed
    in column order: entry k is ``W[row[k], col[k]] = val[k]``, and column
    j's entries are ``ptr[j]:ptr[j + 1]``.  Starts as ``[A | I]``, read
    from the program's column store ``A``."""

    def __init__(self, A, ntot):
        m, n = A.shape
        slack = np.arange(m)
        self.m = m
        self.ntot = ntot
        self._set(np.concatenate([A.columns(), n + slack]),
                  np.concatenate([A.index, slack]),
                  np.concatenate([A.value, np.ones(m)]))

    def _set(self, col, row, val):
        self.col = col
        self.row = row
        self.val = val
        self.ptr = np.searchsorted(col, np.arange(self.ntot + 1))

    def entries(self, j):
        s, e = self.ptr[j], self.ptr[j + 1]
        return self.row[s:e], self.val[s:e]

    def append(self, col, row, val):
        """Add the entries ``W[row[k], col[k]] = val[k]``; their columns
        ascend and follow every stored one."""
        self._set(np.concatenate([self.col, col]),
                  np.concatenate([self.row, row]),
                  np.concatenate([self.val, val]))

    def column(self, j):
        a = np.zeros(self.m)
        r, v = self.entries(j)
        a[r] = v
        return a

    def _gather(self, cols):
        """Indices of the entries of columns ``cols``, in that order, and
        each column's entry count."""
        start = self.ptr[cols]
        counts = self.ptr[cols + 1] - start
        offset = np.cumsum(counts) - counts
        return np.repeat(start - offset, counts) + np.arange(counts.sum()), \
            counts

    def matrix(self, cols):
        idx, counts = self._gather(cols)
        out = np.zeros((self.m, len(cols)))
        out[self.row[idx], np.repeat(np.arange(len(cols)), counts)] = \
            self.val[idx]
        return out

    def times(self, cols, v):
        """``W[:, cols] v`` without forming ``W[:, cols]``."""
        idx, counts = self._gather(cols)
        return np.bincount(self.row[idx],
                           weights=self.val[idx] * np.repeat(v, counts),
                           minlength=self.m)

    def row_times(self, y):
        """``y W``: one entry per column."""
        return np.bincount(self.col, weights=y[self.row] * self.val,
                           minlength=self.ntot)

    def residual(self, b, x, vstat):
        """``b - W[:, j] x[j]`` over the nonbasic ``j`` with ``x[j] != 0``,
        subtracted column by column in ascending ``j``."""
        k = ((vstat != _BASIC) & (x != 0.0))[self.col]
        rhs = b.copy()
        np.subtract.at(rhs, self.row[k], self.val[k] * x[self.col[k]])
        return rhs


def _invert(W, basis):
    """``B^-1`` of the basis columns computed from scratch; the dense ``B``
    lives only for the ``inv`` call."""
    return np.linalg.inv(W.matrix(basis))


def _fits(W, basis, Binv):
    """The probe: whether ``B (Binv v)`` matches ``v`` (False on NaN)."""
    m = basis.shape[0]
    v = 1.0 + np.arange(m) / max(m, 1)
    err = np.max(np.abs(W.times(basis, np.dot(Binv, v)) - v), initial=0.0)
    return bool(err <= FACTOR_PROBE_TOL)


def _pivot(Binv, w, rrow):
    """Rank-1 update of ``Binv`` for column ``w = Binv a_q`` entering at
    row position ``rrow``, over the rows where ``w`` is nonzero."""
    Binv[rrow, :] *= 1.0 / w[rrow]
    nz = np.flatnonzero(w)
    nz = nz[nz != rrow]
    Binv[nz, :] -= w[nz, None] * Binv[rrow, :]


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


def simplex_kernel(c, A, senses, b, lb, ub, tol_opt, max_iter, basis0,
                   vstat0):
    m, n = A.shape
    nm = n + m
    ntot = nm + m  # structural | slacks | artificials (on demand)

    W = _Columns(A, ntot)
    lo = np.zeros(ntot)
    hi = np.zeros(ntot)
    lo[:n] = lb
    hi[:n] = ub
    lo[n:nm] = np.where(senses == 2, -np.inf, 0.0)
    hi[n:nm] = np.where(senses == 1, np.inf, 0.0)

    xval = np.zeros(ntot)
    vstat = np.zeros(ntot, dtype=np.int64)
    age = 0
    factorizations = 0
    fresh = True    # no pivot applied to Binv since it was computed
    stale = False   # Binv failed the residual check at the end of a phase

    warm = _usable(basis0, vstat0, lo, hi, m, nm)
    if warm:
        factorizations += 1
        try:
            Binv = _invert(W, basis0)
        except np.linalg.LinAlgError:
            warm = False
        else:
            # a numerically singular B can invert without an error
            warm = _fits(W, basis0, Binv)

    # each row i whose starting basic value breaks its bounds gets the
    # artificial column nm + i, signed so its value is positive; phase 1
    # drives those out
    if warm:
        vstat[:nm] = vstat0
        xval[:nm] = np.where(vstat0 == _AT_LOWER, lo[:nm],
                             np.where(vstat0 == _AT_UPPER, hi[:nm], 0.0))
        xb = np.dot(Binv, W.residual(b, xval, vstat))
        basis = basis0.copy()
        xval[basis] = xb
        art = np.flatnonzero(~((lo[basis] - 1e-9 <= xb)
                               & (xb <= hi[basis] + 1e-9)))
        # the basic column leaves at the bound it violates, and the
        # artificial is a copy of it
        k = basis[art]
        below = xb[art] < lo[k]
        xval[k] = np.where(below, lo[k], hi[k])
        vstat[k] = np.where(below, _AT_LOWER, _AT_UPPER)
        res = xb[art] - xval[k]
        sgn = np.where(res >= 0.0, 1.0, -1.0)
        idx, counts = W._gather(k)
        art_col = np.repeat(nm + art, counts)
        art_row = W.row[idx]
        art_val = W.val[idx] * np.repeat(sgn, counts)
        Binv[art] *= sgn[:, None]
    else:
        # structurals at a finite bound (lower first) or free at zero, and
        # each row's slack basic if its bounds admit the residual
        lo_x, hi_x = lo[:n], hi[:n]
        free = (lo_x == -np.inf) & (hi_x == np.inf)
        up = ~free & (lo_x == -np.inf)
        vstat[:n] = np.where(free, _FREE, np.where(up, _AT_UPPER, _AT_LOWER))
        xval[:n] = np.where(free, 0.0, np.where(up, hi_x, lo_x))
        r = b - A @ xval[:n]
        lo_s, hi_s = lo[n:nm], hi[n:nm]
        inside = (lo_s - 1e-12 <= r) & (r <= hi_s + 1e-12)
        up = r > hi_s
        clipped = np.where(r < lo_s, lo_s, r)
        clipped = np.where(clipped > hi_s, hi_s, clipped)
        xval[n:nm] = np.where(inside, clipped, np.where(up, hi_s, lo_s))
        vstat[n:nm] = np.where(inside, _BASIC,
                               np.where(up, _AT_UPPER, _AT_LOWER))
        res = r - xval[n:nm]
        sgn = np.where(res >= 0.0, 1.0, -1.0)
        Binv = np.diag(np.where(inside, 1.0, sgn))
        basis = n + np.arange(m)
        art = np.flatnonzero(~inside)
        res, sgn = res[art], sgn[art]
        art_col, art_row, art_val = nm + art, art, sgn
    cols = nm + art
    if art.size:
        W.append(art_col, art_row, art_val)
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

    status = 0
    iters = 0
    for phase in range(2):
        if phase == 0 and not art.size:
            continue
        if phase == 0:
            cost = cost1
        else:
            cost = cost2
        # columns with room to move; bounds change only between phases
        movable = hi - lo > 0.0
        bland = False
        stall = 0
        while True:
            if age >= REFACTOR_AGE or stale:
                # refactorize to shed accumulated pivot error
                Binv = _invert(W, basis)
                factorizations += 1
                age = 0
                fresh = True
                stale = False
                xval[basis] = np.dot(Binv, W.residual(b, xval, vstat))

            y = np.dot(cost[basis], Binv)
            d = cost - W.row_times(y)

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
                r = W.residual(b, xval, vstat)
                xval[basis] = np.dot(Binv, r)
                if fresh or np.all(
                        np.abs(W.times(basis, xval[basis]) - r) <= resid_tol):
                    break
                stale = True
                continue
            if iters >= max_iter:
                status = 3
                break
            if bland:
                q = eligible[0]
            else:
                q = eligible[np.argmax(score[eligible])]
            vs = vstat[q]
            if vs == _AT_LOWER or (vs == _FREE and d[q] < 0.0):
                tdir = 1.0
            else:
                tdir = -1.0

            w = np.dot(Binv, W.column(q))

            flipd = np.inf
            if vstat[q] != _FREE:
                flipd = hi[q] - lo[q]

            nz = np.flatnonzero(w)
            rrow, step = _ratio_test(w, nz.tolist(), tdir, basis, xval, lo,
                                     hi, flipd, bland)
            if step == np.inf:
                status = 2 if phase == 1 else 3
                break
            iters += 1

            if rrow < 0:
                # bound flip, basis unchanged
                xval[basis[nz]] -= tdir * step * w[nz]
                if vstat[q] == _AT_LOWER:
                    xval[q] = hi[q]
                    vstat[q] = _AT_UPPER
                else:
                    xval[q] = lo[q]
                    vstat[q] = _AT_LOWER
            else:
                newval = xval[q] + tdir * step
                xval[basis[nz]] -= tdir * step * w[nz]
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

            if step <= 1e-12:
                stall += 1
                if stall >= 25:
                    bland = True
            else:
                stall = 0
                bland = False

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
        dred = (cost2 - W.row_times(y_out))[:n].copy()
        obj = np.dot(c, x)
        # artificials still basic (at zero) after phase 1 would make the
        # returned basis unusable as a warm start; swap each for the
        # nonbasic column with the largest pivot in its row.  The pivots
        # are degenerate, so x is unchanged, and the solution above was
        # read off the basis before the swap.
        for i in np.flatnonzero(basis >= nm):
            pivots = np.abs(W.row_times(Binv[i, :])[:nm])
            cand = np.flatnonzero((vstat[:nm] != _BASIC) & (pivots > 1e-7))
            if cand.size == 0:
                continue  # redundant row: keep the artificial
            q = cand[np.argmax(pivots[cand])]
            w = np.dot(Binv, W.column(q))
            basis[i] = q
            vstat[q] = _BASIC
            _pivot(Binv, w, i)
    return (status, x, y_out, dred, obj, iters, basis, vstat[:nm].copy(),
            warm, factorizations)
