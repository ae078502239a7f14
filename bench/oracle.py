"""Independent optima from scipy's HiGHS solvers.

scipy is imported here only, after the end-to-end numbers are recorded, so
that it inflates neither set-up time nor peak memory.
"""

import numpy as np

from hydrosp import core
from hydrosp.lp import LinearProgram

RTOL = 1e-6


def relative_gap(ours, ref):
    return abs(ours - ref) / max(1.0, abs(ref))


def optimum(lp, binaries=()):
    """Optimal value of a hydrosp LinearProgram (minimization), with the
    given columns restricted to {0, 1}."""
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp
    senses = lp.senses            # 0 '=', 1 '<=', 2 '>='
    if len(binaries):
        integrality = np.zeros(lp.nvars)
        integrality[list(binaries)] = 1
        res = milp(lp.c, integrality=integrality, bounds=Bounds(lp.lb, lp.ub),
                   constraints=LinearConstraint(
                       lp.A, np.where(senses == 1, -np.inf, lp.b),
                       np.where(senses == 2, np.inf, lp.b)),
                   options={"mip_rel_gap": 0.0})
    else:
        rows = senses != 0
        flip = np.where(senses == 2, -1.0, 1.0)[rows]
        res = linprog(lp.c, A_ub=lp.A[rows] * flip[:, None],
                      b_ub=lp.b[rows] * flip,
                      A_eq=lp.A[~rows], b_eq=lp.b[~rows],
                      bounds=np.column_stack([lp.lb, lp.ub]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return float(res.fun)


def scenario_references(fp, x):
    """c'x + Q(x, xi_s) per scenario, in the program's sense."""
    sign = fp.program.sign
    cx = float(fp.program.first_stage.c @ x)
    return [cx + sign * optimum(LinearProgram(sign * st.q, st.W, st.senses,
                                              st.h - st.T @ x, st.lb, st.ub))
            for st in core.scenario_stages(fp)]


def de_reference(fp):
    """Optimum of the deterministic equivalent, in the program's sense."""
    de = core.build_deterministic_equivalent(fp)
    return de.sign * optimum(de.lp, de.binaries)
