"""References for tests: scipy's HiGHS solvers for kernel results, the
dense assembly loops for the column-wise program builders, the
per-scenario stage builders the once-built recourse replaced, and the
per-program bunch test the stacked one replaced.

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
from hydrosp.core import Recourse, SecondStage
from hydrosp.hydro import SEGMENT_SPLIT
from hydrosp.lp import OPTIMAL, LinearProgram, LpSolution
from hydrosp._simplex import _states_fit
from hydrosp.tolerances import FEASIBILITY_TOL, OPTIMALITY_TOL
from hydrosp.models import accepted_block_levels
from hydrosp.models.common import RowSet, add_production_rows
from hydrosp.scenarios import block_price_levels


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
    """``(T, W, senses, h)`` of a RowSet, with dense T and W and the
    senses as codes (0 '=', 1 '<=', 2 '>=')."""
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
        senses.append({"=": 0, "<=": 1, ">=": 2}[sense])
        h[r] = rhs
    return T, W, np.array(senses, dtype=np.int64), h


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
        senses.append(2)                  # '>='
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


# ---------------------------------------------- per-program bunch reference

def per_program_certificate(lp, sol):
    """``lp._certificate`` for one program, as it was before it took stacked
    programs: ``(check, worst scaled violation, tolerance)`` tuples."""
    x, y, d = sol.x, sol.duals, sol.reduced_costs
    s = lp.senses
    r = lp.matrix @ x - lp.b
    primal = np.where(s == 1, r, np.where(s == 2, -r, np.abs(r)))
    sign = np.where(s == 1, y, np.where(s == 2, -y, 0.0))
    down = np.isneginf(lp.lb) | (x - lp.lb > FEASIBILITY_TOL
                                 * (1.0 + np.abs(lp.lb)))
    up = np.isposinf(lp.ub) | (lp.ub - x > FEASIBILITY_TOL
                               * (1.0 + np.abs(lp.ub)))
    rc = np.maximum(np.where(down, d, 0.0), np.where(up, -d, 0.0))
    cx = float(lp.c @ x)
    gap = abs(cx - (float(lp.b @ y) + float(d @ x)))

    def worst(v):
        return float(np.max(v)) if v.size else 0.0

    return (
        ("primal", worst(primal / (1.0 + np.abs(lp.b))), FEASIBILITY_TOL),
        ("dual sign", worst(sign), OPTIMALITY_TOL),
        ("reduced cost", worst(rc / (1.0 + np.abs(lp.c))), OPTIMALITY_TOL),
        ("gap", gap / (1.0 + abs(cx)), OPTIMALITY_TOL),
    )


def per_program_settle(bunch, b, c):
    """``lp.BasisBunch.settle(b, c)`` as it was before it took stacked
    arrays: a ``LinearProgram`` per program, with the bunch's matrix,
    senses and bounds, one sparse product per program, and
    ``per_program_certificate`` once per program optimal at the basis."""
    A, basic, status = bunch.matrix, bunch.basis.basic, bunch.basis.status
    lps = [LinearProgram(ck, A, bunch.senses, bk, bunch.lb, bunch.ub)
           for bk, ck in zip(b, c)]
    out = [None] * len(lps)
    if bunch.inverse is None or not lps:
        return out
    m, n = A.shape
    lo = np.empty((len(lps), n + m))
    hi = np.empty_like(lo)
    lo[:, :n] = [lp.lb for lp in lps]
    hi[:, :n] = [lp.ub for lp in lps]
    lo[:, n:] = np.where(bunch.senses == 2, -np.inf, 0.0)
    hi[:, n:] = np.where(bunch.senses == 1, np.inf, 0.0)
    ok = _states_fit(status, lo, hi).all(axis=1)
    xval = np.where(status == 0, lo, np.where(status == 1, hi, 0.0))
    xval[~ok] = 0.0
    R = np.array([lp.b - A @ xk for lp, xk in zip(lps, xval[:, :n])])
    XB = R @ bunch.inverse.T
    ok &= np.all((lo[:, basic] - 1e-9 <= XB) & (XB <= hi[:, basic] + 1e-9),
                 axis=1)
    keep = np.flatnonzero(ok)
    if not keep.size:
        return out
    c = np.array([lps[k].c for k in keep])
    Y = np.concatenate([c, np.zeros((keep.size, m))],
                       axis=1)[:, basic] @ bunch.inverse
    d = np.concatenate([c - np.array([y @ A for y in Y]), -Y], axis=1)
    score = np.where(status == 0, -d, np.where(status == 1, d, np.abs(d)))
    movable = (status != 3) & (hi[keep] - lo[keep] > 0.0)
    optimal = ~np.any(movable & (score > OPTIMALITY_TOL), axis=1)
    for r in np.flatnonzero(optimal):
        k = keep[r]
        xk = xval[k].copy()
        xk[basic] = XB[k]
        x = np.minimum(np.maximum(xk[:n], lo[k, :n]), hi[k, :n])
        sol = LpSolution(OPTIMAL, x=x, duals=Y[r].copy(),
                         reduced_costs=d[r, :n].copy(),
                         objective=float(lps[k].c @ x), basis=bunch.basis,
                         warm_started=True)
        if all(worst <= tol for _, worst, tol
               in per_program_certificate(lps[k], sol)):
            out[k] = sol
    return out


# ------------------------------------------ per-scenario stage references
#
# The model builders make each recourse once and fill in a scenario's q, h
# and price-dependent T entries with numpy.  The functions below are the
# per-scenario builders they replaced: every row is emitted again through a
# RowSet for each scenario.  The parity tests require every stage, and the
# deterministic equivalents built from them, to equal these bit for bit.

def scalar_interp_weights(rho, levels):
    """The clearing weights of one hour as ``(level, weight)`` pairs, by the
    scalar branches: one pair when ``rho`` sits on a level or outside the
    range, else the two bracketing levels."""
    levels = np.asarray(levels, dtype=np.float64)
    P = len(levels)
    if rho <= levels[0]:
        return [(0, 1.0)]
    if rho >= levels[-1]:
        return [(P - 1, 1.0)]
    i = int(np.searchsorted(levels, rho, side="right")) - 1
    if levels[i] == rho:
        return [(i, 1.0)]
    gap = levels[i + 1] - levels[i]
    w_hi = (rho - levels[i]) / gap
    return [(i, 1.0 - w_hi), (i + 1, w_hi)]


def loop_mass_balance_residuals(scaled, wl, y, m0, inflow_at):
    """``models.mass_balance_residuals`` as the loop over every plant and
    period that it replaced."""
    net = scaled.network
    res = np.zeros((wl.n_plants, wl.horizon))
    for h in range(wl.n_plants):
        for t in range(wl.horizon):
            prev = y[wl.m(h, t - 1)] if t > 0 else m0[h]
            acc = y[wl.m(h, t)] - prev \
                + y[wl.q(h, 0, t)] + y[wl.q(h, 1, t)] + y[wl.s(h, t)]
            for i in net.upstream[h]:
                ti = t - scaled.tau_q[i]
                if ti >= 0:
                    acc -= y[wl.q(i, 0, ti)] + y[wl.q(i, 1, ti)]
            for i in net.upstream[h]:
                ti = t - scaled.tau_s[i]
                if ti >= 0:
                    acc -= y[wl.s(i, ti)]
            res[h, t] = acc - float(inflow_at(t)[h])
    return res


def _mass_balance_rows(rows, wl, scaled, m0, inflow_at, m0_columns=None):
    net = scaled.network
    for h in range(wl.n_plants):
        for t in range(wl.horizon):
            yc = {wl.m(h, t): 1.0,
                  wl.q(h, 0, t): 1.0, wl.q(h, 1, t): 1.0,
                  wl.s(h, t): 1.0}
            if t > 0:
                yc[wl.m(h, t - 1)] = -1.0
            for i in net.upstream[h]:
                ti = t - scaled.tau_q[i]
                if ti >= 0:
                    for s in (0, 1):
                        yc[wl.q(i, s, ti)] = yc.get(wl.q(i, s, ti), 0.0) - 1.0
            for i in net.upstream[h]:
                ti = t - scaled.tau_s[i]
                if ti >= 0:
                    yc[wl.s(i, ti)] = yc.get(wl.s(i, ti), 0.0) - 1.0
            rhs = float(inflow_at(t)[h])
            xc = {}
            if t == 0:
                if m0_columns is None:
                    rhs += float(m0[h])
                else:
                    xc[m0_columns[h]] = -1.0
            rows.add(xc, yc, "=", rhs)


def _market_rows(lay, scaled, levels, blocks, prices):
    T, P, B = lay.horizon, lay.n_levels, lay.n_blocks
    if len(prices) < T:
        raise ValueError(f"scenario has {len(prices)} price periods, "
                         f"model needs {T}")
    rows = RowSet(lay.n_first, lay.n_second)
    for t in range(T):
        xc = {lay.xi(t): -1.0}
        for i, w in scalar_interp_weights(prices[t], levels.values[:, t]):
            xc[lay.xd(i, t)] = xc.get(lay.xd(i, t), 0.0) - w
        rows.add(xc, {lay.y(t): 1.0}, "=", 0.0)
    accepted = accepted_block_levels(
        prices, block_price_levels(levels, blocks), blocks)
    for b in range(B):
        xc = {lay.xb(i, b): -1.0 for i in range(P) if accepted[i, b]}
        rows.add(xc, {lay.yb(b): 1.0}, "=", 0.0)
    add_production_rows(rows, lay.p, lay.water, scaled)
    for t in range(T):
        yc = {lay.y(t): 1.0, lay.p(t): -1.0,
              lay.yplus(t): -1.0, lay.yminus(t): 1.0}
        for b, (start, stop) in enumerate(blocks):
            if start <= t < stop:
                yc[lay.yb(b)] = 1.0
        rows.add({}, yc, "=", 0.0)
    return rows


def _market_costs(lay, penalties, blocks, prices):
    peak = (penalties.peak_start, penalties.peak_stop)
    q = np.zeros(lay.n_second)
    for t in range(lay.horizon):
        rho = prices[t]
        on = peak[0] <= t % 24 < peak[1]
        alpha = penalties.alpha_peak if on else penalties.alpha_off
        beta = penalties.beta_peak if on else penalties.beta_off
        q[lay.y(t)] = rho
        q[lay.yminus(t)] = alpha * rho
        q[lay.yplus(t)] = -beta * rho
    for b, (start, stop) in enumerate(blocks):
        q[lay.yb(b)] = (stop - start) * prices[start:stop].mean()
    return q


def _water_bounds(wl, scaled, n, cap_discharge=True):
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for h in range(wl.n_plants):
        for t in range(wl.horizon):
            if cap_discharge:
                ub[wl.q(h, 0, t)] = scaled.qmax1[h]
                ub[wl.q(h, 1, t)] = scaled.qmax2[h]
            ub[wl.m(h, t)] = scaled.max_volume[h]
    return lb, ub


def inflow_at(sample):
    """The sample's inflow row of period t, as a function of t: its one
    (H,) row for every period, or row t of a (T, H) array."""
    inflow = sample.inflow
    return lambda t: inflow if inflow.ndim == 1 else inflow[t]


def day_ahead_stage(model, sample):
    """One day-ahead scenario's stage, all rows built for it."""
    lay, scaled, pool = model.layout, model.scaled, model.water_value
    wl, T = lay.water, lay.horizon
    prices = sample.price
    rows = _market_rows(lay, scaled, model.levels, model.blocks, prices)
    _mass_balance_rows(rows, wl, scaled, model.m0,
                       inflow_at(sample))
    for a, slopes in zip(pool.intercept, pool.slopes):
        yc = {lay.w: 1.0}
        for h in range(lay.n_plants):
            if slopes[h]:
                yc[wl.m(h, T - 1)] = -float(slopes[h])
        rows.add({}, yc, "<=", a)
    Tm, W, senses, h = rows.materialize()
    q = _market_costs(lay, model.penalties, model.blocks, prices)
    q[lay.w] = 1.0
    lb, ub = _water_bounds(wl, scaled, lay.n_second)
    lb[lay.w] = -np.inf
    return SecondStage(q=q, T=Tm, h=h, recourse=Recourse(W, senses, lb, ub))


def maintenance_stage(model, sample):
    """One maintenance scenario's stage, all rows built for it."""
    lay, scaled = model.layout, model.scaled
    wl, T = lay.water, lay.horizon
    prices = sample.price
    rows = _market_rows(lay, scaled, model.levels, (), prices)
    for k, h in enumerate(lay.maintained):
        for t in range(T):
            rows.add({lay.s(k, t): scaled.qmax1[h]},
                     {wl.q(h, 0, t): 1.0}, "<=", scaled.qmax1[h])
            rows.add({lay.s(k, t): scaled.qmax2[h]},
                     {wl.q(h, 1, t): 1.0}, "<=", scaled.qmax2[h])
    _mass_balance_rows(rows, wl, scaled, model.m0,
                       inflow_at(sample))
    Tm, W, senses, h = rows.materialize()
    lb, ub = _water_bounds(wl, scaled, lay.n_second)
    return SecondStage(q=_market_costs(lay, model.penalties, (), prices),
                       T=Tm, h=h, recourse=Recourse(W, senses, lb, ub))


def capacity_stage(model, sample):
    """One capacity-expansion scenario's stage, all rows built for it."""
    lay, scaled, net = model.layout, model.scaled, model.network
    wl, T, H = lay.water, lay.horizon, lay.n_plants
    ratio = np.array([p.max_discharge_m3s / p.capacity_mw
                      for p in net.plants])
    fr1, fr2 = SEGMENT_SPLIT, 1.0 - SEGMENT_SPLIT
    prices = sample.price
    rows = RowSet(H, lay.n_second)
    add_production_rows(rows, lay.p, wl, scaled)
    for h in range(H):
        for t in range(T):
            rows.add({h: -fr1 * ratio[h]}, {wl.q(h, 0, t): 1.0},
                     "<=", scaled.qmax1[h])
            rows.add({h: -fr2 * ratio[h]}, {wl.q(h, 1, t): 1.0},
                     "<=", scaled.qmax2[h])
    _mass_balance_rows(rows, wl, scaled, model.m0,
                       inflow_at(sample))
    Tm, W, senses, h = rows.materialize()
    q = np.zeros(lay.n_second)
    for t in range(T):
        q[lay.p(t)] = prices[t]
    lb, ub = _water_bounds(wl, scaled, lay.n_second, cap_discharge=False)
    return SecondStage(q=q, T=Tm, h=h, recourse=Recourse(W, senses, lb, ub))


def week_ahead_stage(scaled, wl, sample):
    """One week-ahead scenario's stage, all rows built for it; ``scaled``
    and ``wl`` are what ``build_week_ahead`` returns with its program."""
    H, T = wl.n_plants, wl.horizon
    rows = RowSet(H, wl.nvars)
    _mass_balance_rows(rows, wl, scaled, None, inflow_at(sample),
                       m0_columns=list(range(H)))
    Tm, W, senses, h = rows.materialize()
    q = np.zeros(wl.nvars)
    for t in range(T):
        rho = sample.price[t]
        for hh in range(H):
            q[wl.q(hh, 0, t)] = rho * scaled.mu1[hh]
            q[wl.q(hh, 1, t)] = rho * scaled.mu2[hh]
    lb, ub = _water_bounds(wl, scaled, wl.nvars)
    return SecondStage(q=q, T=Tm, h=h, recourse=Recourse(W, senses, lb, ub))
