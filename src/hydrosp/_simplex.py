"""Bounded-variable two-phase simplex kernel: the one LP solver behind
``lp.solve_lp``.

The working matrix ``[A | I | artificials]`` is never formed densely.  Its
nonzeros are listed once per solve, column by column, in a ``_Columns``
store (three arrays ``col``, ``row``, ``val`` and column pointers); the
phase-1 artificial columns are appended once the starting basis is known.
The one dense matrix is the explicit basis inverse ``B^-1`` (m x m),
updated by a rank-1 pivot each iteration and rebuilt from the store through
``np.linalg.inv`` every 128 iterations and at the end of each phase.

Pricing reads the store: ``d = c - y W`` is one ``np.bincount`` over the
nonzeros, and the entering column comes from masked numpy, Dantzig's
largest violation or, after a degeneracy stall, Bland's lowest eligible
index (``argmax`` and the first eligible index both break ties towards the
lowest column).  The basis matrix and the entering column ``a_q`` are
scattered from the store, and ``B^-1 a_q`` is a dense matrix-vector
product.  The two-pass ratio test and the rank-1 update of ``B^-1`` are
still Python loops over the rows: making them numpy too gives the same
pivots, but a faster branch-and-bound solve lets ``bench/run.py``, which
keeps every timed call's result, fit three times as many calls into its
run and pushed ``maintenance-de``'s peak RSS past the benchmark's bound.

Rows are ``A x (sense) b`` with sense codes 0 '=', 1 '<=', 2 '>='; variable
bounds ``lb <= x <= ub`` may be infinite.  Minimization only.  Columns are
numbered structural ``0..n-1``, then the slack of row ``i`` at ``n + i``,
then phase-1 artificials from ``n + m`` on (the artificial of row ``i`` at
``n + m + i``).

Warm start: ``basis0`` (length m, the column basic in each row position)
and ``vstat0`` (length n + m, each column's state: 0 at lower bound, 1 at
upper, 2 free, 3 basic) give a starting basis, typically the one a solve
of a program with the same ``A`` ended in.  Nonbasic columns sit at the
bound their state names and ``x_B = B^-1 (b - N x_N)`` is recomputed.  A
basic variable outside its bounds leaves at the bound it violates and an
artificial copy of its column, signed so its value is positive, takes its
position; phase 1 drives those out and phase 2 continues from there.  The
kernel starts cold instead (the slack/artificial basis) when ``basis0`` is
None or has the wrong length, when the basis holds an artificial or repeats
a column, when a nonbasic state names an infinite bound, or when ``B`` is
singular.

Returns ``(status, x, y, d, obj, iters, basis, vstat, warm)``: the final
basis in the same form as the inputs and whether the given basis was used.
On an optimal solve, artificials still basic at zero are pivoted out of the
returned basis after the solution is read off; one that no column can
replace (a redundant row) stays, and a warm start from it falls back cold.
Status codes: 0 optimal, 1 infeasible, 2 unbounded, 3 pivot/iteration
failure.  A refactorization that meets a singular basis raises
``np.linalg.LinAlgError``, which ``solve_lp`` reports as a limit.  The
returned solution is not checked here; ``solve_lp`` certifies it.
"""

import numpy as np

# variable states
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


class _Columns:
    """The nonzeros of an m-row working matrix of ``ntot`` columns, listed
    in column order: entry k is ``W[row[k], col[k]] = val[k]``, and column
    j's entries are ``ptr[j]:ptr[j + 1]``.  Starts as ``[A | I]``."""

    def __init__(self, A, ntot):
        m, n = A.shape
        cols, rows = np.nonzero(A.T)   # column-major order of A
        slack = np.arange(m)
        self.m = m
        self.ntot = ntot
        self._set(np.concatenate([cols, n + slack]),
                  np.concatenate([rows, slack]),
                  np.concatenate([A[rows, cols], np.ones(m)]))

    def _set(self, col, row, val):
        self.col = col
        self.row = row
        self.val = val
        self.ptr = np.searchsorted(col, np.arange(self.ntot + 1))

    def entries(self, j):
        s, e = self.ptr[j], self.ptr[j + 1]
        return self.row[s:e], self.val[s:e]

    def append(self, cols, rows, vals):
        """Add column ``cols[t]`` with entries ``rows[t]``, ``vals[t]`` for
        each t; the columns ascend and follow every stored one."""
        counts = [len(r) for r in rows]
        self._set(np.concatenate([self.col, np.repeat(cols, counts)]),
                  np.concatenate([self.row] + rows),
                  np.concatenate([self.val] + vals))

    def column(self, j):
        a = np.zeros(self.m)
        r, v = self.entries(j)
        a[r] = v
        return a

    def matrix(self, cols):
        out = np.zeros((self.m, len(cols)))
        for i, j in enumerate(cols):
            r, v = self.entries(j)
            out[r, i] = v
        return out

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


def _refactor(W, basis, b, xval, vstat):
    """Fresh ``B^-1`` of the current basis, and the basic values
    recomputed from it into ``xval``."""
    Binv = np.ascontiguousarray(np.linalg.inv(W.matrix(basis)))
    xval[basis] = np.dot(Binv, W.residual(b, xval, vstat))
    return Binv


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
    basis = np.empty(m, dtype=np.int64)
    art_used = np.zeros(m, dtype=np.int64)
    nart = 0
    art_cols, art_rows, art_vals = [], [], []

    # a given basis is used only if it is structurally valid for this
    # program: m distinct basic columns, none artificial, and every
    # nonbasic status naming a finite bound (free only if truly free)
    warm = (basis0 is not None and basis0.shape[0] == m
            and vstat0.shape[0] == nm)
    if warm:
        nbasic = 0
        for j in range(nm):
            s = vstat0[j]
            if s == _BASIC:
                nbasic += 1
            elif s == _AT_LOWER:
                if lo[j] == -np.inf:
                    warm = False
            elif s == _AT_UPPER:
                if hi[j] == np.inf:
                    warm = False
            elif s == _FREE:
                if lo[j] > -np.inf or hi[j] < np.inf:
                    warm = False
            else:
                warm = False
        if nbasic != m:
            warm = False
        seen = np.zeros(nm, dtype=np.int64)
        for i in range(m):
            k = basis0[i]
            if k < 0 or k >= nm:
                warm = False
            elif vstat0[k] != _BASIC or seen[k] == 1:
                warm = False
            else:
                seen[k] = 1
    Binv = np.zeros((m, m))
    if warm:
        B = W.matrix(basis0)
        sdet, logdet = np.linalg.slogdet(B)
        if sdet == 0.0 or not np.isfinite(logdet):
            warm = False
        else:
            Binv = np.ascontiguousarray(np.linalg.inv(B))
            # an O(m^2) probe for a numerically singular B
            ones = np.ones(m)
            if np.max(np.abs(np.dot(B, np.dot(Binv, ones)) - ones)) > 1e-6:
                warm = False
                Binv = np.zeros((m, m))

    if warm:
        for j in range(nm):
            vstat[j] = vstat0[j]
            if vstat0[j] == _AT_LOWER:
                xval[j] = lo[j]
            elif vstat0[j] == _AT_UPPER:
                xval[j] = hi[j]
        xb = np.dot(Binv, W.residual(b, xval, vstat))
        for i in range(m):
            k = basis0[i]
            v = xb[i]
            basis[i] = k
            xval[k] = v
            if lo[k] - 1e-9 <= v <= hi[k] + 1e-9:
                continue
            # k leaves at the bound it violates; an artificial copy of its
            # column, signed so its value is positive, holds the position
            # until phase 1 drives it out
            if v < lo[k]:
                xval[k] = lo[k]
                vstat[k] = _AT_LOWER
            else:
                xval[k] = hi[k]
                vstat[k] = _AT_UPPER
            res = v - xval[k]
            col = nm + i
            sgn = 1.0 if res >= 0.0 else -1.0
            rows, vals = W.entries(k)
            art_cols.append(col)
            art_rows.append(rows)
            art_vals.append(sgn * vals)
            lo[col] = 0.0
            hi[col] = np.inf
            xval[col] = res * sgn
            vstat[col] = _BASIC
            basis[i] = col
            Binv[i, :] *= sgn
            art_used[i] = 1
            nart += 1
    else:
        for j in range(n):
            if lo[j] == -np.inf and hi[j] == np.inf:
                vstat[j] = _FREE
                xval[j] = 0.0
            elif lo[j] == -np.inf:
                vstat[j] = _AT_UPPER
                xval[j] = hi[j]
            else:
                vstat[j] = _AT_LOWER
                xval[j] = lo[j]

        r = b - np.dot(A, np.ascontiguousarray(xval[:n]))
        for i in range(m):
            sl = n + i
            if lo[sl] - 1e-12 <= r[i] <= hi[sl] + 1e-12:
                v = r[i]
                if v < lo[sl]:
                    v = lo[sl]
                if v > hi[sl]:
                    v = hi[sl]
                basis[i] = sl
                vstat[sl] = _BASIC
                xval[sl] = v
                Binv[i, i] = 1.0
            else:
                if r[i] > hi[sl]:
                    xval[sl] = hi[sl]
                    vstat[sl] = _AT_UPPER
                else:
                    xval[sl] = lo[sl]
                    vstat[sl] = _AT_LOWER
                res = r[i] - xval[sl]
                col = nm + i
                sgn = 1.0 if res >= 0.0 else -1.0
                art_cols.append(col)
                art_rows.append(np.array([i]))
                art_vals.append(np.array([sgn]))
                lo[col] = 0.0
                hi[col] = np.inf
                xval[col] = res * sgn
                vstat[col] = _BASIC
                basis[i] = col
                Binv[i, i] = sgn
                art_used[i] = 1
                nart += 1
    if nart:
        W.append(art_cols, art_rows, art_vals)

    cost1 = np.zeros(ntot)
    cost2 = np.zeros(ntot)
    cost2[:n] = c
    for i in range(m):
        if art_used[i] == 1:
            cost1[nm + i] = 1.0

    bmax = 0.0
    for i in range(m):
        if abs(b[i]) > bmax:
            bmax = abs(b[i])
    feas1 = 1e-7 * (1.0 + bmax)

    status = 0
    iters = 0
    for phase in range(2):
        if phase == 0 and nart == 0:
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
            if iters >= max_iter:
                status = 3
                break
            iters += 1

            if iters % 128 == 0:
                # refactorize to shed accumulated pivot error
                Binv = _refactor(W, basis, b, xval, vstat)

            y = np.dot(cost[basis], Binv)
            d = cost - W.row_times(y)

            # a nonbasic column improves by the score of its reduced cost:
            # -d at its lower bound, d at its upper bound, |d| when free
            score = np.where(vstat == _AT_LOWER, -d,
                             np.where(vstat == _AT_UPPER, d, np.abs(d)))
            eligible = np.flatnonzero((vstat != _BASIC) & movable
                                      & (score > tol_opt))
            if eligible.size == 0:
                # phase optimal; leave the loop with a clean recompute
                Binv = _refactor(W, basis, b, xval, vstat)
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

            # two-pass ratio test: the first pass finds the strict minimum
            # ratio and a slackened bound on it; the second picks the row
            # with the largest pivot among rows whose true ratio stays
            # within the slack, trading a <= feas bound violation for a
            # well-conditioned basis
            feas = 1e-9
            row_rmin = np.inf
            theta_max = np.inf
            for i in range(m):
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

            if flipd == np.inf and row_rmin == np.inf:
                status = 2 if phase == 1 else 3
                break

            if flipd <= row_rmin:
                # bound flip, basis unchanged
                step = flipd
                for i in range(m):
                    xval[basis[i]] -= tdir * step * w[i]
                if vstat[q] == _AT_LOWER:
                    xval[q] = hi[q]
                    vstat[q] = _AT_UPPER
                else:
                    xval[q] = lo[q]
                    vstat[q] = _AT_LOWER
            else:
                # Bland mode keeps the strict lowest-index rule its cycling
                # guarantee needs; otherwise any row within the slack is
                # eligible and pivot size decides
                tie = 1e-9 * (1.0 + row_rmin)
                if bland:
                    limit_r = row_rmin + tie
                else:
                    # the step may not exceed the entering variable's own
                    # range, or it would overshoot its opposite bound
                    limit_r = theta_max if theta_max < flipd else flipd
                rrow = -1
                piv_best = 0.0
                low_idx = np.int64(ntot + 1)
                step = row_rmin
                for i in range(m):
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
                piv = w[rrow]
                newval = xval[q] + tdir * step
                for i in range(m):
                    xval[basis[i]] -= tdir * step * w[i]
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
                inv_piv = 1.0 / piv
                Binv[rrow, :] *= inv_piv
                for i in range(m):
                    if i != rrow:
                        f = w[i]
                        if f != 0.0:
                            Binv[i, :] -= f * Binv[rrow, :]

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
            p1 = 0.0
            for i in range(m):
                if art_used[i] == 1:
                    p1 += xval[nm + i]
            if p1 > feas1:
                status = 1
                break
            for i in range(m):
                if art_used[i] == 1:
                    col = nm + i
                    lo[col] = 0.0
                    hi[col] = 0.0

    x = np.empty(n)
    for j in range(n):
        v = xval[j]
        if lb[j] > -np.inf and v < lb[j]:
            v = lb[j]
        if ub[j] < np.inf and v > ub[j]:
            v = ub[j]
        x[j] = v
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
        for i in range(m):
            if basis[i] < nm:
                continue
            pivots = np.abs(W.row_times(Binv[i, :])[:nm])
            cand = np.flatnonzero((vstat[:nm] != _BASIC) & (pivots > 1e-7))
            if cand.size == 0:
                continue  # redundant row: keep the artificial
            q = cand[np.argmax(pivots[cand])]
            w = np.dot(Binv, W.column(q))
            basis[i] = q
            vstat[q] = _BASIC
            Binv[i, :] *= 1.0 / w[i]
            for k in range(m):
                if k != i and w[k] != 0.0:
                    Binv[k, :] -= w[k] * Binv[i, :]
    return status, x, y_out, dred, obj, iters, basis, vstat[:nm].copy(), warm
