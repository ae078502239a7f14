"""Water value: expected future profit as a function of end-of-horizon
reservoir volumes, approximated by cuts from a week-ahead dispatch problem.

Cuts are stored in the profit (max) sense,

    W <= intercept_c + slopes_c . M      for every cut c,

so the pool evaluates as a concave upper envelope and serializes to the
flat cut CSV.
"""

from dataclasses import dataclass
import csv

import numpy as np

from ..hydro import rescale, Resolution
from ..lp import SparseMatrix
from ..core import (FirstStage, SecondStage, TwoStageProgram, FiniteProgram,
                    scenario_stages, solve_stage)
from ..lshaped import (solve as lshaped_solve, LShapedConfig, aggregate,
                       cut_from_solution)
from .common import RowSet, WaterLayout, add_mass_balance, water_bounds


@dataclass(frozen=True)
class WaterValueCut:
    intercept: float
    slopes: np.ndarray
    cut_id: int = -1

    def value(self, m0):
        return self.intercept + float(self.slopes @ np.asarray(m0))


@dataclass(frozen=True)
class WaterValuePool:
    plant_ids: tuple
    cuts: tuple

    def __post_init__(self):
        if not self.cuts:
            raise ValueError("water value pool needs at least one cut")
        nh = len(self.plant_ids)
        for c in self.cuts:
            if c.slopes.shape != (nh,):
                raise ValueError(f"cut {c.cut_id} has {c.slopes.shape[0] if c.slopes.ndim else 0} "
                                 f"slopes, expected {nh}")

    def value(self, m0):
        """Upper-envelope evaluation at initial volumes m0."""
        m0 = np.asarray(m0, dtype=np.float64)
        return min(c.value(m0) for c in self.cuts)

    @classmethod
    def zero(cls, plant_ids):
        """Pool pinning the water value to zero (W <= 0 everywhere)."""
        nh = len(plant_ids)
        return cls(tuple(plant_ids),
                   (WaterValueCut(0.0, np.zeros(nh), 0),))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("# units: intercept Eur, slopes Eur per scaled "
                     "volume unit\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["cut_id", "intercept"]
                       + [f"slope_{p}" for p in self.plant_ids])
            for c in self.cuts:
                w.writerow([c.cut_id, repr(float(c.intercept))]
                           + [repr(float(v)) for v in c.slopes])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(r for r in fh if not r.startswith("#"))
            header = next(reader)
            plant_ids = tuple(h[len("slope_"):] for h in header[2:])
            cuts = []
            for row in reader:
                cuts.append(WaterValueCut(
                    intercept=float(row[1]),
                    slopes=np.array([float(v) for v in row[2:]]),
                    cut_id=int(row[0])))
        return cls(plant_ids, tuple(cuts))


class WaterValueError(RuntimeError):
    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log or []


def build_week_ahead(network, resolution=Resolution(1), horizon_hours=168):
    """Two-stage program whose first stage chooses initial volumes.

    Second stage is pure dispatch revenue; subproblem duals at the
    mass-balance rows price stored water.
    """
    scaled = rescale(network, resolution)
    hpp = resolution.hours_per_period
    if horizon_hours % hpp:
        raise ValueError(f"horizon of {horizon_hours} h not divisible by "
                         f"{hpp} h periods")
    T = horizon_hours // hpp
    H = len(network.plants)

    fs = FirstStage(c=np.zeros(H), A=SparseMatrix.from_triplets((0, H)),
                    senses=(), b=[], lb=np.zeros(H),
                    ub=scaled.max_volume.copy())

    wl = WaterLayout(H, T, base=0)
    n2 = wl.nvars
    m0_columns = list(range(H))

    def second_stage(sample):
        rows = RowSet(H, n2)
        add_mass_balance(rows, wl, scaled, None,
                         lambda t: sample.inflow.at(t), m0_columns=m0_columns)
        Tm, W, senses, h = rows.materialize()
        q = np.zeros(n2)
        for t in range(T):
            rho = sample.price.values[t]
            for hh in range(H):
                q[wl.q(hh, 0, t)] = rho * scaled.mu1[hh]
                q[wl.q(hh, 1, t)] = rho * scaled.mu2[hh]
        lb = np.zeros(n2)
        ub = np.full(n2, np.inf)
        water_bounds(wl, scaled, lb, ub)
        return SecondStage(q=q, T=Tm, W=W, senses=senses, h=h, lb=lb, ub=ub)

    return TwoStageProgram(fs, second_stage, sense="max"), scaled, wl


def _export_cut(raw_cut, cut_id):
    # internal min cut theta >= a + g.x  ->  profit cut W <= -a - g.x
    return WaterValueCut(intercept=-raw_cut.intercept,
                         slopes=-raw_cut.coef, cut_id=cut_id)


def compute_water_value(network, scenarios, m_grid=None, config=None,
                        resolution=Resolution(1), horizon_hours=168,
                        probabilities=None):
    """Cut pool approximating expected week-ahead profit as a function of
    initial volumes.

    m_grid: optional (n_points, n_plants) anchor volumes; defaults to five
    uniform fills {0, 25, 50, 75, 100}% of capacity.  The L-shaped run's
    per-iteration expectation cuts are exported together with one
    expectation cut anchored at each grid point.
    """
    program, scaled, wl = build_week_ahead(network, resolution, horizon_hours)
    fp = FiniteProgram(program, list(scenarios), probabilities)
    T = wl.horizon
    for i, s in enumerate(fp.scenarios):
        if len(s.price) < T:
            raise ValueError(f"scenario {i} has {len(s.price)} price periods, "
                             f"needs {T}")

    if config is None:
        config = LShapedConfig(formulation="multi")
    result = lshaped_solve(fp, config)
    if not result.converged:
        raise WaterValueError(
            f"week-ahead value iteration did not converge in "
            f"{result.iterations} iterations", log=result.log)

    if m_grid is None:
        fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
        m_grid = np.array([f * scaled.max_volume for f in fracs])
    else:
        m_grid = np.asarray(m_grid, dtype=np.float64)
        if m_grid.ndim == 1:
            m_grid = m_grid[None, :]

    stages = scenario_stages(fp)
    sign = fp.program.sign
    cuts = []
    cid = 0
    for c in result.expectation_cuts:
        cuts.append(_export_cut(c, cid))
        cid += 1
    for point in m_grid:
        raw = []
        for st in stages:
            sol = solve_stage(st, point, sign)
            if not sol.ok:
                raise WaterValueError(
                    f"anchor subproblem failed at grid point {point}: "
                    f"{sol.status}", log=result.log)
            raw.append(cut_from_solution(point, st, sol))
        cuts.append(_export_cut(aggregate(raw, 1, fp.probabilities)[0], cid))
        cid += 1
    return WaterValuePool(tuple(network.plant_ids), tuple(cuts))
