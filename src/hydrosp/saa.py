"""Sample-average-approximation estimators and confidence intervals.

Conventions follow the classic SAA bounds: for a minimization problem the
value of a fixed decision over T independent batches gives the
conservative ("upper") estimator U_T, and the mean of M independent
instance optima gives the optimistic ("lower") estimator L_{N,M}.  For
maximization the roles mirror; kind labels keep the min-sense names and
the interval arithmetic handles the mirroring.

Samplers are callables sampler(seed, n) -> FiniteProgram; solvers are
callables solver(fp) -> object with attributes x and objective (the
L-shaped result and the deterministic-equivalent solution both fit).
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .core import evaluate_decision, scenario_values
from .lshaped import NonConvergenceError


# --- report container -----------------------------------------------------

_KINDS = ("upper", "lower", "VRP", "EEV", "VSS")


@dataclass
class ConfidenceReport:
    kind: str
    lo: float
    hi: float
    estimate: float
    alpha: float
    N: int = None
    M: int = None
    T: int = None
    seed: int = None
    significant: bool = None     # VSS only; not serialized

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must be in (0, 0.5)")
        if self.lo > self.hi + 1e-12:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")

    @property
    def width(self):
        return self.hi - self.lo

    def to_json(self):
        payload = {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "estimate": self.estimate,
            "N": self.N,
            "M": self.M,
            "T": self.T,
            "alpha": self.alpha,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(kind=d["kind"], lo=d["lo"], hi=d["hi"],
                   estimate=d["estimate"], alpha=d["alpha"], N=d["N"],
                   M=d["M"], T=d["T"], seed=d["seed"])


def child_seed(seed, role, index):
    """Deterministic arithmetic derivation of per-instance seeds."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(role, index))
    return int(ss.generate_state(1, np.uint64)[0])


_ROLE_LOWER = 0       # instances whose optima form L_{N,M}
_ROLE_BATCH = 1       # evaluation batches for U_T
_ROLE_CANDIDATE = 2   # the instance that produces x_hat
_ROLE_REFINE = 3      # per-N master seeds inside saa_refine
_ROLE_EEV = 4         # the large evaluation sample for EEV


def _run_solver(solver, fp, seed):
    res = solver(fp)
    if not getattr(res, "converged", True):
        raise NonConvergenceError(
            f"SAA instance with seed {seed} failed to converge")
    return res


def _t_interval(vals, alpha):
    """Mean and two-sided Student-t half-width of independent replicates."""
    # scipy is imported where an interval is built, so the other commands
    # do not pay for loading it
    from scipy.special import stdtrit

    n = len(vals)
    sd = float(vals.std(ddof=1))
    hw = float(stdtrit(n - 1, 1.0 - alpha / 2.0)) * sd / math.sqrt(n)
    return float(vals.mean()), hw


def decision_value_interval(x_hat, sampler, N, T, alpha, seed=0, workers=None):
    """t-interval for E F(x_hat) from T independent N-scenario batches."""
    if T < 2:
        raise ValueError("need at least two batches for a t interval")
    vals = np.empty(T)
    for t in range(T):
        fp = sampler(child_seed(seed, _ROLE_BATCH, t), N)
        vals[t] = evaluate_decision(fp, x_hat, workers=workers)
    mean, hw = _t_interval(vals, alpha)
    return ConfidenceReport(kind="upper", lo=mean - hw, hi=mean + hw,
                            estimate=mean, alpha=alpha, N=N, T=T, seed=seed)


def optimal_value_bound(sampler, N, M, alpha, solver, seed=0):
    """t-interval for the mean SAA instance optimum (the optimistic bound)."""
    if M < 2:
        raise ValueError("need at least two instances for a t interval")
    vals = np.empty(M)
    for m in range(M):
        s = child_seed(seed, _ROLE_LOWER, m)
        fp = sampler(s, N)
        vals[m] = _run_solver(solver, fp, s).objective
    mean, hw = _t_interval(vals, alpha)
    return ConfidenceReport(kind="lower", lo=mean - hw, hi=mean + hw,
                            estimate=mean, alpha=alpha, N=N, M=M, seed=seed)


def vrp_interval(sampler, N, M, T, alpha, solver, seed=0, workers=None):
    """Confidence interval bracketing the true optimal value.

    The candidate decision comes from a fresh instance independent of both
    the batches and the bound instances.
    """
    cand_seed = child_seed(seed, _ROLE_CANDIDATE, 0)
    cand_fp = sampler(cand_seed, N)
    x_hat = _run_solver(solver, cand_fp, cand_seed).x

    up = decision_value_interval(x_hat, sampler, N, T, alpha, seed=seed,
                                 workers=workers)
    low = optimal_value_bound(sampler, N, M, alpha, solver, seed=seed)
    sense = cand_fp.program.sense
    if sense == "min":
        lo, hi = low.lo, up.hi
    else:
        # decision values under-estimate, instance optima over-estimate
        lo, hi = up.lo, low.hi
    lo, hi = min(lo, hi), max(lo, hi)
    return ConfidenceReport(kind="VRP", lo=lo, hi=hi, estimate=up.estimate,
                            alpha=alpha, N=N, M=M, T=T, seed=seed)


def saa_refine(sampler, alpha, rel_width_tol, solver,
               schedule=(10, 50, 100, 500, 1000, 2000),
               M=10, T=10, seed=0, workers=None):
    """Grow N along a schedule until the VRP interval is relatively tight.

    Returns (final_report, history); history holds one report per N tried.
    """
    if rel_width_tol <= 0:
        raise ValueError("relative width tolerance must be positive")
    history = []
    report = None
    for idx, N in enumerate(schedule):
        rep = vrp_interval(sampler, N, M, T, alpha, solver,
                           seed=child_seed(seed, _ROLE_REFINE, idx),
                           workers=workers)
        history.append(rep)
        report = rep
        scale = max(1.0, abs(rep.estimate))
        if rep.width / scale <= rel_width_tol:
            break
    return report, history


def eev_interval(x_bar, sampler, n_eval, alpha, seed=0, workers=None):
    """Normal-approximation interval for the expected value of the
    mean-scenario decision, from one large evaluation sample.

    The sample's probabilities weight the mean and the spread alike: the
    variance is the unbiased one for normalized weights p,
    ``sum p (v - mean)^2 / (1 - sum p^2)``, and the standard error of the
    weighted mean is ``sd * sqrt(sum p^2)``.  With equal weights these are
    the usual ``ddof=1`` standard deviation and ``sd / sqrt(n)``.
    """
    from scipy.special import ndtri

    if n_eval < 2:
        raise ValueError("need at least two scenarios")
    s = child_seed(seed, _ROLE_EEV, 0)
    fp = sampler(s, n_eval)
    vals = scenario_values(fp, x_bar, workers=workers)
    p = fp.probabilities
    mean = float(p @ vals)
    p2 = float(p @ p)
    if p2 >= 1.0 - 1e-12:
        raise ValueError("need at least two scenarios with positive "
                         "probability")
    sd = math.sqrt(float(p @ (vals - mean) ** 2) / (1.0 - p2))
    hw = float(ndtri(1.0 - alpha / 2.0)) * sd * math.sqrt(p2)
    return ConfidenceReport(kind="EEV", lo=mean - hw, hi=mean + hw,
                            estimate=mean, alpha=alpha, N=n_eval, seed=seed)


def vss_interval(vrp_report, eev_report):
    """Interval for VSS = VRP - EEV by conservative interval subtraction."""
    if vrp_report.kind != "VRP" or eev_report.kind != "EEV":
        raise ValueError("expected a VRP report and an EEV report")
    if abs(vrp_report.alpha - eev_report.alpha) > 1e-12:
        raise ValueError("VRP and EEV reports use different alpha levels")
    lo = vrp_report.lo - eev_report.hi
    hi = vrp_report.hi - eev_report.lo
    significant = lo > 0.0 or hi < 0.0
    return ConfidenceReport(kind="VSS", lo=lo, hi=hi,
                            estimate=vrp_report.estimate - eev_report.estimate,
                            alpha=vrp_report.alpha, N=vrp_report.N,
                            M=vrp_report.M, T=vrp_report.T,
                            seed=vrp_report.seed, significant=significant)
