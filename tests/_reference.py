"""References for tests: scipy's HiGHS solvers for kernel results, and the
dense assembly loops for the column-wise program builders.

``scipy_solve`` takes a hydrosp LinearProgram (internal min sense) and
returns scipy's OptimizeResult: ``status`` 0 optimal, 2 infeasible,
3 unbounded, plus ``fun`` and ``x`` on success.  Columns listed in
``binaries`` are restricted to {0, 1} and the program goes to
``scipy.optimize.milp`` with a zero relative gap; otherwise it goes to
``linprog(method="highs")``.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from hydrosp import lshaped


def scipy_solve(lp, binaries=()):
    senses = lp.senses                    # 0 '=', 1 '<=', 2 '>='
    if len(binaries):
        integrality = np.zeros(lp.nvars)
        integrality[list(binaries)] = 1
        rows = LinearConstraint(lp.A, np.where(senses == 1, -np.inf, lp.b),
                                np.where(senses == 2, np.inf, lp.b))
        return milp(lp.c, integrality=integrality,
                    bounds=Bounds(lp.lb, lp.ub), constraints=rows,
                    options={"mip_rel_gap": 0.0})
    ineq = senses != 0
    flip = np.where(senses == 2, -1.0, 1.0)[ineq]
    return linprog(lp.c, A_ub=lp.A[ineq] * flip[:, None],
                   b_ub=lp.b[ineq] * flip, A_eq=lp.A[~ineq], b_eq=lp.b[~ineq],
                   bounds=list(zip(lp.lb, lp.ub)), method="highs")


# ------------------------------------------- dense assembly references
#
# The loops below are the dense assembly the column-wise builders replaced:
# ``RowSet.materialize``, the deterministic equivalent's block loop and the
# L-shaped master.  The equivalence tests densify the sparse programs and
# require them to equal these entry for entry.

def dense_materialize(rowset):
    """``(T, W, senses, h)`` of a RowSet, with dense T and W."""
    m = len(rowset.rows)
    T = np.zeros((m, rowset.n_first))
    W = np.zeros((m, rowset.n_second))
    h = np.zeros(m)
    senses = []
    for r, (xc, yc, sense, rhs) in enumerate(rowset.rows):
        for j, v in xc.items():
            T[r, j] = v
        for j, v in yc.items():
            W[r, j] = v
        senses.append(sense)
        h[r] = rhs
    return T, W, tuple(senses), h


def dense_deterministic_equivalent(fs, stages, probabilities, sign):
    """``(c, A, senses, b, lb, ub)`` of the deterministic equivalent over
    the given first stage and scenario stages, with a dense A."""
    n1 = fs.nvars
    offs = []
    n = n1
    for st in stages:
        offs.append(n)
        n += st.nvars
    m = fs.A.shape[0] + sum(st.nrows for st in stages)

    c = np.zeros(n)
    c[:n1] = sign * fs.c
    lb = np.empty(n)
    ub = np.empty(n)
    lb[:n1] = fs.lb
    ub[:n1] = fs.ub
    A = np.zeros((m, n))
    b = np.empty(m)
    senses = []

    m1 = fs.A.shape[0]
    A[:m1, :n1] = fs.A.dense()
    b[:m1] = fs.b
    senses.extend(fs.senses)

    r = m1
    for st, off, prob in zip(stages, offs, probabilities):
        k, nv = st.nrows, st.nvars
        c[off:off + nv] = sign * prob * st.q
        lb[off:off + nv] = st.lb
        ub[off:off + nv] = st.ub
        if k:
            A[r:r + k, :n1] = st.T.dense()
            A[r:r + k, off:off + nv] = st.W.dense()
            b[r:r + k] = st.h
            senses.extend(st.senses)
            r += k
    return c, A, senses, b, lb, ub


def dense_master(fs, sign, pool, pg):
    """``(c, A, senses, b, lb, ub)`` of the L-shaped master, with a dense
    A; the arguments are those of ``lshaped._build_master``, the cuts one
    row at a time from the ``CutPool`` arrays."""
    n1 = fs.nvars
    K = len(pg)
    n = n1 + K
    c = np.zeros(n)
    c[:n1] = sign * fs.c
    c[n1:] = pg
    tlb = np.full(K, lshaped.THETA_LB)
    for g in pool.group:
        tlb[g] = -np.inf
    lb = np.concatenate([fs.lb, tlb])
    ub = np.concatenate([fs.ub, np.full(K, np.inf)])

    m1 = fs.A.shape[0]
    m = m1 + len(pool)
    A = np.zeros((m, n))
    b = np.empty(m)
    senses = []
    if m1:
        A[:m1, :n1] = fs.A.dense()
        b[:m1] = fs.b
    senses.extend(fs.senses)
    r = m1
    for coef, intercept, g in zip(pool.coef, pool.intercept, pool.group):
        A[r, :n1] = -coef
        A[r, n1 + g] = 1.0
        b[r] = intercept
        senses.append(">=")
        r += 1
    return c, A, senses, b, lb, ub


# ------------------------------------------------ kernel loop references

def full_row_ratio_test(w, tdir, basis, xval, lo, hi, flipd, bland):
    """``_simplex._ratio_test`` as two loops over every row of ``w``,
    zero or not; returns the same ``(rrow, step)``."""
    feas = 1e-9
    row_rmin = np.inf
    theta_max = np.inf
    for i in range(w.shape[0]):
        e = -tdir * w[i]
        if e > 1e-10:
            cap = max(hi[basis[i]] - xval[basis[i]], 0.0)
        elif e < -1e-10:
            cap = max(xval[basis[i]] - lo[basis[i]], 0.0)
        else:
            continue
        row_rmin = min(row_rmin, cap / abs(e))
        theta_max = min(theta_max, (cap + feas) / abs(e))
    if flipd <= row_rmin:
        return -1, flipd
    if bland:
        limit_r = row_rmin + 1e-9 * (1.0 + row_rmin)
    else:
        limit_r = min(theta_max, flipd)
    rrow = -1
    piv_best = 0.0
    step = row_rmin
    for i in range(w.shape[0]):
        e = -tdir * w[i]
        if e > 1e-10:
            cap = max(hi[basis[i]] - xval[basis[i]], 0.0)
        elif e < -1e-10:
            cap = max(xval[basis[i]] - lo[basis[i]], 0.0)
        else:
            continue
        ratio = cap / abs(e)
        if ratio > limit_r:
            continue
        if bland:
            if rrow < 0 or basis[i] < basis[rrow]:
                rrow = i
        elif abs(w[i]) > piv_best:
            piv_best = abs(w[i])
            rrow = i
            step = ratio
    return rrow, step


def scalar_usable(basis0, vstat0, lo, hi, m, nm):
    """``_simplex._usable`` as the loops over every column and every row
    position that it replaced; returns the same bool."""
    if basis0 is None or basis0.shape[0] != m or vstat0.shape[0] != nm:
        return False
    warm = True
    nbasic = 0
    for j in range(nm):
        s = vstat0[j]
        if s == 3:              # basic
            nbasic += 1
        elif s == 0:            # at lower bound
            if lo[j] == -np.inf:
                warm = False
        elif s == 1:            # at upper bound
            if hi[j] == np.inf:
                warm = False
        elif s == 2:            # free
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
        elif vstat0[k] != 3 or seen[k] == 1:
            warm = False
        else:
            seen[k] = 1
    return warm
