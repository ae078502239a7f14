"""Water value: expected future profit as a function of end-of-horizon
reservoir volumes, approximated by cuts from a week-ahead dispatch problem.

Cuts are stored in the profit (max) sense,

    W <= intercept_c + slopes_c . M      for every cut c,

so the pool evaluates as a concave upper envelope and serializes to the
flat cut CSV.
"""

from dataclasses import dataclass

import numpy as np

from ..hydro import CsvTable, rescale, Resolution, write_csv
from ..lp import SparseMatrix
from ..core import (FirstStage, Recourse, TwoStageProgram, FiniteProgram,
                    scenario_stages, _stage_values)
from ..lshaped import solve as lshaped_solve, aggregate, subproblem_cuts
from .common import (RowSet, WaterLayout, add_inflows, add_mass_balance,
                     scenario_prices, water_bounds)


@dataclass(frozen=True, eq=False)
class WaterValuePool:
    """The k profit cuts as arrays: ``intercept`` (k) and ``slopes``
    (k x H), one slope column per plant of ``plant_ids``."""

    plant_ids: tuple
    intercept: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        intercept = np.asarray(self.intercept, dtype=np.float64).reshape(-1)
        slopes = np.asarray(self.slopes, dtype=np.float64)
        if not len(intercept):
            raise ValueError("water value pool needs at least one cut")
        expected = (len(intercept), len(self.plant_ids))
        if slopes.shape != expected:
            raise ValueError(f"slopes have shape {slopes.shape}, expected "
                             f"{expected}")
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "slopes", slopes)

    def __len__(self):
        return len(self.intercept)

    def value(self, m0):
        """Upper-envelope evaluation at initial volumes m0."""
        return float(np.min(self.intercept + self.slopes @ np.asarray(m0)))

    @classmethod
    def zero(cls, plant_ids):
        """Pool pinning the water value to zero (W <= 0 everywhere)."""
        return cls(tuple(plant_ids), np.zeros(1),
                   np.zeros((1, len(plant_ids))))

    def to_csv(self, path):
        """One row per cut; its cut_id is its row number."""
        write_csv(path, ["cut_id", "intercept"]
                  + [f"slope_{p}" for p in self.plant_ids],
                  ([c, a, *g] for c, (a, g) in enumerate(zip(self.intercept,
                                                             self.slopes))),
                  units="intercept Eur, slopes Eur per scaled volume unit")

    @classmethod
    def from_csv(cls, path):
        """The pool of a ``to_csv`` file; the cut_id column is not kept."""
        table = CsvTable(path, ("cut_id", "intercept"), nonempty="cut")
        slopes = [c for c in table.header if c.startswith("slope_")]
        values = np.array(table.parse(
            lambda row: [float(row[c]) for c in ["intercept"] + slopes]))
        return cls(tuple(c[len("slope_"):] for c in slopes),
                   values[:, 0], values[:, 1:])


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
    rows = RowSet(H, n2)
    mb = add_mass_balance(rows, wl, scaled, np.zeros(H), m0_columns=range(H))
    Tm, W, senses, h0 = rows.materialize()
    recourse = Recourse(W, senses, *water_bounds(wl, scaled, n2),
                        rows.start())
    plant = np.arange(H)[:, None]
    t = np.arange(T)

    def second_stage(sample):
        rho = scenario_prices(sample, T)[:T]
        q = np.zeros(n2)
        q[wl.q(plant, 0, t)] = rho * scaled.mu1[:, None]
        q[wl.q(plant, 1, t)] = rho * scaled.mu2[:, None]
        return q, Tm, add_inflows(h0, mb, sample)

    return (TwoStageProgram(fs, recourse, second_stage, sense="max"), scaled,
            wl)


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
    result = lshaped_solve(fp, config)
    if not result.converged:
        raise WaterValueError(
            f"week-ahead value iteration did not converge in "
            f"{result.iterations} iterations", log=result.log)

    if m_grid is None:
        m_grid = np.outer((0.0, 0.25, 0.5, 0.75, 1.0), scaled.max_volume)
    m_grid = np.atleast_2d(np.asarray(m_grid, dtype=np.float64))

    # at each grid point scenario 0's anchor solve starts from the
    # recourse's start basis and the other scenarios from its final basis;
    # internal min cuts theta >= a + g.x turn into profit cuts
    # W <= -a - g.x
    stages = scenario_stages(fp)
    cuts = result.expectation_cuts
    for point in m_grid:
        try:
            sols = _stage_values(fp, stages, point)
        except RuntimeError as exc:
            raise WaterValueError(f"anchor subproblem failed at grid point "
                                  f"{point}: {exc}", log=result.log) from None
        cuts = cuts.extend(aggregate(subproblem_cuts(point, stages, sols), 1,
                                     fp.probabilities))
    # adding 0.0 first maps -0.0 to 0.0, so a zero slope is written as
    # -0.0 whichever sign of zero the cut algebra left
    return WaterValuePool(tuple(network.plant_ids), -(cuts.intercept + 0.0),
                          -(cuts.coef + 0.0))
