"""Experiment runner: config loading, model assembly, artifact writing.

Commands: ``solve``, ``saa``, ``evaluate``, ``water-value``.  Configuration
comes from a YAML file plus command-line overrides; any config key can be
set with a ``--dotted.path value`` pair.  The ``sampler``, ``solver``,
``penalties`` and ``capacity`` sections are the library dataclasses
``SamplerConfig``, ``LShapedConfig``, ``PenaltyConfig`` and ``CostParams``,
and the ``saa`` and ``water_value`` sections are this module's
``SAASettings`` and ``WaterValueSettings``: their field defaults are the
config defaults, and every section is built and checked before any river,
model or water value is.

Rerunning a command with the same inputs and seed reproduces its artifacts
byte for byte, except ``timings.csv`` (per-iteration wall times of
``solve``, next to each iteration's subproblem simplex iterations, cut
pool size and count of subproblems settled without a simplex call).

Exit codes: 0 success, 1 solver non-convergence, 2 configuration error,
3 internal numerical failure.
"""

from dataclasses import dataclass, fields, is_dataclass, replace
import argparse
import copy
import csv
import json
import os
import sys

import numpy as np
import yaml

from .core import (FiniteProgram, _stage_values, bunched,
                   check_first_stage_feasible, expected_scenario,
                   scenario_stages, solve_expected_value_problem, solve_stage)
from .hydro import (Resolution, default_initial_volumes, default_river,
                    load_river, rescale)
from .lshaped import (LShapedConfig, NonConvergenceError,
                      solve as lshaped_solve, write_iteration_log,
                      write_timings)
from .models import (CostParams, PenaltyConfig, WaterValueError,
                     WaterValuePool, build_capacity, build_day_ahead,
                     build_maintenance, compute_water_value)
from .saa import child_seed, eev_interval, saa_refine, vss_interval
from .scenarios import (SamplerConfig, default_blocks, price_levels,
                        sample_capacity_horizon, sample_day_ahead_set)

# child-seed roles used by this module; roles 0-4 belong to the SAA driver
_ROLE_EV_INSTANCE = 5
_ROLE_WATER_VALUE = 6
_ROLE_LEVELS = 7

_MODELS = ("day-ahead", "maintenance", "capacity")

# dataclass fields the command line leaves at their library defaults; the
# sampler seed comes from the top-level seed and its derived child seeds
_HIDDEN = ("seed", "price_profile")


@dataclass(frozen=True)
class SAASettings:
    """The ``saa`` section: the sample-size schedule, instance and batch
    counts, and tolerances of ``saa_refine``, and the size of the EEV
    evaluation sample."""

    schedule: tuple = (10, 50, 100, 500)
    M: int = 10
    T: int = 10
    eval_n: int = 1000
    alpha: float = 0.05
    rel_width_tol: float = 1e-12

    def __post_init__(self):
        schedule = self.schedule
        if (not isinstance(schedule, (list, tuple)) or not schedule
                or not all(type(n) is int and n >= 1 for n in schedule)):
            raise ValueError(f"schedule must be a list of positive integers, "
                             f"got {schedule!r}")
        object.__setattr__(self, "schedule", tuple(schedule))
        for name in ("M", "T", "eval_n"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not self.rel_width_tol > 0.0:
            raise ValueError("rel_width_tol must be positive")


@dataclass(frozen=True)
class WaterValueSettings:
    """The ``water_value`` section: a cut file to read, or the week-ahead
    scenario count, horizon and anchor fills to compute the cuts from."""

    cuts: str = None             # CSV path; computed in-process when null
    scenarios: int = 3
    horizon_hours: int = 168
    m_grid: tuple = None         # reservoir fill fractions for anchor cuts

    def __post_init__(self):
        if self.scenarios < 1:
            raise ValueError("scenarios must be positive")
        if self.horizon_hours < 24 or self.horizon_hours % 24:
            raise ValueError("horizon_hours must be a positive multiple of 24")
        if self.m_grid is not None:
            fractions = tuple(float(f) for f in self.m_grid)
            if any(not 0.0 <= f <= 1.0 for f in fractions):
                raise ValueError("m_grid fractions must lie in [0, 1]")
            object.__setattr__(self, "m_grid", fractions)


def _section_defaults(cls):
    """Field defaults of a config dataclass as a mapping."""
    return {f.name: f.default for f in fields(cls) if f.name not in _HIDDEN}


DEFAULTS = {
    "river": None,               # packaged Skelleftealven data when null
    "model": "day-ahead",
    "seed": 0,
    "scenarios": 50,
    "output": "out",
    "resolution": None,          # hours per period; model default when null
    "horizon_days": 365,
    "levels": 5,
    "block_width": 4,
    "m0_fraction": 0.5,
    "sampler": _section_defaults(SamplerConfig),
    "solver": _section_defaults(LShapedConfig),
    "saa": _section_defaults(SAASettings),
    "penalties": _section_defaults(PenaltyConfig),
    "maintenance_durations": None,   # {plant_id: hours} overrides
    "capacity": _section_defaults(CostParams),
    "water_value": _section_defaults(WaterValueSettings),
    "evaluate": {
        "strategy": None,
        "schedule": None,
        "expansion": None,
    },
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# --- configuration --------------------------------------------------------


def _merge(base, incoming, path=""):
    if not isinstance(incoming, dict):
        raise ConfigError(f"config section {path or '<root>'!r} must be a mapping")
    for key, value in incoming.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and base[key] and isinstance(value, dict):
            _merge(base[key], value, path + key + ".")
        else:
            base[key] = value


def _apply_override(cfg, dotted, text):
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value {text!r} for {dotted!r}: {exc}")
    parts = dotted.split(".")
    node = cfg
    for i, part in enumerate(parts[:-1]):
        if part not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        if node[part] is None:
            node[part] = {}
        if not isinstance(node[part], dict):
            raise ConfigError(f"config key {'.'.join(parts[:i + 1])!r} is not a section")
        node = node[part]
    leaf = parts[-1]
    # sections with fixed keys reject typos; open mappings accept any key
    if node and leaf not in node and _fixed_section(parts[:-1]):
        raise ConfigError(f"unknown config key {dotted!r}")
    node[leaf] = value


def _fixed_section(parts):
    node = DEFAULTS
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return isinstance(node, dict) and bool(node)


def _parse_overrides(tokens):
    pairs = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"missing value for override {tok!r}")
            value = tokens[i + 1]
            i += 1
        if not key:
            raise ConfigError(f"malformed override {tok!r}")
        pairs.append((key, value))
        i += 1
    return pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; one instance drives one command."""

    river: str
    model: str
    seed: int
    scenarios: int
    output: str
    resolution: int
    horizon_days: int
    levels: int
    block_width: int
    m0_fraction: float
    sampler: SamplerConfig
    solver: LShapedConfig
    saa: SAASettings
    penalties: PenaltyConfig
    maintenance_durations: dict
    capacity: CostParams
    water_value: WaterValueSettings
    evaluate: dict

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ConfigError(f"unknown model {self.model!r}; "
                              f"expected one of {', '.join(_MODELS)}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.scenarios, int) or self.scenarios < 1:
            raise ConfigError("scenarios must be a positive integer")
        if self.resolution is not None and (
                not isinstance(self.resolution, int) or self.resolution < 1):
            raise ConfigError("resolution must be a positive number of hours")
        if not isinstance(self.horizon_days, int) or self.horizon_days < 1:
            raise ConfigError("horizon-days must be a positive integer")
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ConfigError("levels must be a positive integer")
        if not isinstance(self.block_width, int) or self.block_width < 1:
            raise ConfigError("block_width must be a positive integer")
        if not 0.0 <= self.m0_fraction <= 1.0:
            raise ConfigError("m0_fraction must lie in [0, 1]")
        if not isinstance(self.evaluate, dict):
            raise ConfigError("config section 'evaluate' must be a mapping")
        # a YAML value such as 1 would reach os.path.exists as a file
        # descriptor, so every path key must be a string
        paths = [("river", self.river), ("water_value.cuts",
                                         self.water_value.cuts)]
        paths += [(f"evaluate.{k}", v) for k, v in self.evaluate.items()]
        for key, path in paths:
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"{key}: expected a file path, "
                                  f"got {path!r}")
        if self.river is not None and not os.path.exists(self.river):
            raise ConfigError(f"river file not found: {self.river}")
        cuts = self.water_value.cuts
        if cuts is not None and not os.path.exists(cuts):
            raise ConfigError(f"water value cut file not found: {cuts}")

    @classmethod
    def from_sources(cls, args, overrides):
        cfg = copy.deepcopy(DEFAULTS)
        if args.config is not None:
            if not os.path.exists(args.config):
                raise ConfigError(f"config file not found: {args.config}")
            with open(args.config) as fh:
                loaded = yaml.safe_load(fh)
            if loaded is not None:
                _merge(cfg, loaded)
        for flag in ("model", "scenarios", "seed", "output", "resolution",
                     "horizon_days"):
            value = getattr(args, flag)
            if value is not None:
                cfg[flag] = value
        for key, text in overrides:
            _apply_override(cfg, key, text)
        for f in fields(cls):
            if is_dataclass(f.type):
                cfg[f.name] = _build_section(f.type, cfg[f.name], f.name)
        return cls(**cfg)


def _build_section(cls, values, path):
    """``cls(**values)`` with every rejected value as a ConfigError.

    Values for int and float fields are coerced first, so YAML ints and
    strings such as "inf" or "1e-7" work; a value that does not coerce is
    reported under its dotted key, a ``__post_init__`` check under the
    section's name.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"config section {path!r} must be a mapping")
    kwargs = dict(values)
    for f in fields(cls):
        if f.name not in kwargs:
            continue
        key, value = f"{path}.{f.name}", kwargs[f.name]
        if f.type in (int, float) and not (value is None
                                             and f.default is None):
            try:
                kwargs[f.name] = _coerce(f.type, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"bad value {value!r} for {key!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _coerce(kind, value):
    out = kind(value)
    if kind is int and out != value:
        raise ValueError("expected an integer")
    return out


# --- assembly helpers -----------------------------------------------------


def _network(cfg):
    if cfg.river is None:
        return default_river()
    return load_river(cfg.river)


def _resolution(cfg):
    if cfg.model == "capacity":
        return Resolution(cfg.resolution if cfg.resolution else 24)
    if cfg.resolution not in (None, 1):
        raise ConfigError(f"the {cfg.model} model runs at hourly resolution")
    return Resolution(1)


def _initial_volumes(cfg, network, resolution):
    if cfg.m0_fraction == 0.5:
        return None              # builders default to half-full reservoirs
    return default_initial_volumes(rescale(network, resolution),
                                   cfg.m0_fraction)


def _water_value_pool(cfg, network):
    if cfg.water_value.cuts is not None:
        return WaterValuePool.from_csv(cfg.water_value.cuts)
    return _compute_pool(cfg, network)


def _compute_pool(cfg, network):
    wv = cfg.water_value
    sc = replace(cfg.sampler,
                 seed=child_seed(cfg.seed, _ROLE_WATER_VALUE, 0))
    days = wv.horizon_hours // 24
    scens = [sample_capacity_horizon(sc, network, days, Resolution(1), i)
             for i in range(wv.scenarios)]
    m_grid = None
    if wv.m_grid is not None:
        scaled = rescale(network, Resolution(1))
        m_grid = np.array([f * scaled.max_volume for f in wv.m_grid])
    return compute_water_value(network, scens, m_grid=m_grid,
                               horizon_hours=wv.horizon_hours)


def _model_and_sampler(cfg, network, levels_seed):
    """The configured model and its sampler(seed, n) -> FiniteProgram.

    The market models take their bid price levels from the cfg.scenarios
    samples drawn with levels_seed; solve and evaluate pass cfg.seed, so
    the levels come from their own training set.
    """
    resolution = _resolution(cfg)
    m0 = _initial_volumes(cfg, network, resolution)
    if cfg.model == "capacity":
        def draw(seed, n):
            sc = replace(cfg.sampler, seed=seed)
            return [sample_capacity_horizon(sc, network, cfg.horizon_days,
                                            resolution, i)
                    for i in range(n)]

        model = build_capacity(network, resolution, cfg.horizon_days,
                               cfg.capacity, m0=m0)
    else:
        def draw(seed, n):
            return sample_day_ahead_set(replace(cfg.sampler, seed=seed),
                                        network, n)

        levels = price_levels(draw(levels_seed, cfg.scenarios), cfg.levels)
        if cfg.model == "day-ahead":
            blocks = default_blocks(levels.values.shape[1], cfg.block_width)
            pool = _water_value_pool(cfg, network)
            model = build_day_ahead(network, levels, blocks=blocks,
                                    water_value=pool,
                                    penalties=cfg.penalties, m0=m0)
        else:
            durations = cfg.maintenance_durations
            model = build_maintenance(network, levels,
                                      maintenance_durations=durations,
                                      penalties=cfg.penalties, m0=m0)

    def sampler(seed, n):
        return FiniteProgram(model.program, draw(seed, n))

    return model, sampler


# --- artifact writers -----------------------------------------------------


def _fmt(value):
    return repr(float(value))


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _witness(model, fp, x):
    """Second-stage solution under the probability-weighted mean scenario."""
    mean = expected_scenario(fp.scenarios, fp.probabilities)
    stage = fp.program.second_stage(mean)
    sol = solve_stage(stage, np.asarray(x, dtype=np.float64),
                      fp.program.sign)
    if sol.status != "optimal":
        raise RuntimeError(f"mean-scenario recourse solve {sol.status}")
    return model.schedule_from_y(sol.x)


def _write_production_csv(path, model, sched):
    scaled = model.scaled
    hpp = scaled.hours_per_period
    plants = list(scaled.network.plant_ids)
    T = sched.production.shape[0]
    blocks = getattr(model, "blocks", ())
    with open(path, "w", newline="") as fh:
        fh.write("# units: production/committed/deficit/surplus MWh per "
                 "period, discharge/spill m3/s period average, volume HE\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["period", "plant_id", "production_mwh", "discharge_m3s",
                    "spill_m3s", "volume_he", "committed_mwh", "deficit_mwh",
                    "surplus_mwh"])
        for t in range(T):
            for h, pid in enumerate(plants):
                q1, q2 = sched.discharge[h, 0, t], sched.discharge[h, 1, t]
                prod = scaled.mu1[h] * q1 + scaled.mu2[h] * q2
                w.writerow([t, pid, _fmt(prod), _fmt(q1 + q2),
                            _fmt(sched.spill[h, t]),
                            _fmt(sched.volume[h, t] * hpp), "", "", ""])
            committed = ""
            if sched.y is not None:
                total = float(sched.y[t])
                for b, (start, stop) in enumerate(blocks):
                    if start <= t < stop:
                        total += float(sched.yb[b])
                committed = _fmt(total)
            w.writerow([
                t, "system", _fmt(sched.production[t]), "", "", "", committed,
                _fmt(sched.yplus[t]) if sched.yplus is not None else "",
                _fmt(sched.yminus[t]) if sched.yminus is not None else "",
            ])


def _write_intervals_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("# units: Eur\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["N", "lo", "hi", "kind"])
        for rep in rows:
            w.writerow([rep.N, _fmt(rep.lo), _fmt(rep.hi), rep.kind])


def _report_dict(rep):
    return json.loads(rep.to_json())


def _evaluate(model, fp, x):
    """Expected objective of x, the probability-weighted mean production
    and imbalance, and the solver's work, from one recourse solve per
    scenario.

    The objective is computed as ``core.evaluate_decision`` computes it, on
    the same solves: scenario 0 cold, every other scenario settled at
    scenario 0's final basis or, where not optimal there, solved from it.
    ``lp_iterations`` (pivots), ``warm_starts`` (solves that started from
    or were settled at scenario 0's basis), ``factorizations`` (basis
    matrices the simplex kernel factored from scratch) and ``bunched``
    (scenarios settled without a simplex call) are deterministic, so
    ``objective.json`` stays byte-identical across reruns.  Where a
    recourse LP has alternative optima, the production and imbalance means
    describe the optimum these solves find.
    """
    x = np.asarray(x, dtype=np.float64)
    sols = _stage_values(fp, scenario_stages(fp), x)
    cx = float(fp.program.first_stage.c @ x)
    value = float(fp.probabilities @ np.array(
        [cx + fp.program.sign * sol.objective for sol in sols]))
    prod = deficit = surplus = 0.0
    for prob, sol in zip(fp.probabilities, sols):
        sched = model.schedule_from_y(sol.x)
        prod += prob * float(sched.production.sum())
        if sched.yplus is not None:
            deficit += prob * float(sched.yplus.sum())
            surplus += prob * float(sched.yminus.sum())
    return value, {
        "mean_production_mwh": prod,
        "mean_deficit_mwh": deficit,
        "mean_surplus_mwh": surplus,
        "lp_iterations": sum(int(sol.iterations) for sol in sols),
        "warm_starts": sum(bool(sol.warm_started) for sol in sols),
        "factorizations": sum(int(sol.factorizations) for sol in sols),
        "bunched": bunched(sols),
    }


# --- commands -------------------------------------------------------------


def cmd_solve(cfg):
    network = _network(cfg)
    model, sampler = _model_and_sampler(cfg, network, cfg.seed)
    fp = sampler(cfg.seed, cfg.scenarios)
    result = lshaped_solve(fp, cfg.solver)

    out = cfg.output
    os.makedirs(out, exist_ok=True)
    write_iteration_log(os.path.join(out, "iterations.csv"), result.log)
    write_timings(os.path.join(out, "timings.csv"), result.log)
    if cfg.model == "capacity":
        model.plan_from_x(result.x).to_csv(os.path.join(out, "expansion.csv"))
        _write_production_csv(os.path.join(out, "schedule.csv"), model,
                              _witness(model, fp, result.x))
    elif cfg.model == "maintenance":
        model.strategy_from_x(result.x).to_csv(
            os.path.join(out, "strategy.csv"))
        model.schedule_from_x(result.x).to_csv(
            os.path.join(out, "schedule.csv"))
    else:
        model.strategy_from_x(result.x).to_csv(
            os.path.join(out, "strategy.csv"))
        _write_production_csv(os.path.join(out, "schedule.csv"), model,
                              _witness(model, fp, result.x))
        model.water_value.to_csv(os.path.join(out, "cuts.csv"))

    payload = {
        "command": "solve",
        "model": cfg.model,
        "objective": float(result.objective),
        "sense": fp.program.sense,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "scenarios": int(cfg.scenarios),
        "seed": int(cfg.seed),
    }
    if cfg.model == "capacity":
        payload["periods"] = int(model.layout.horizon)
    print(_write_json(os.path.join(out, "objective.json"), payload))
    if not result.converged:
        _emit_error(1, "NonConvergenceError",
                    f"stopped after {result.iterations} iterations above "
                    "gap tolerance; best incumbent written")
        return 1
    return 0


def cmd_saa(cfg):
    network = _network(cfg)
    saa = cfg.saa
    # bid levels must be identical across SAA instances, so the market
    # models take them from a dedicated reference sample set
    _, sampler = _model_and_sampler(
        cfg, network, child_seed(cfg.seed, _ROLE_LEVELS, 0))

    def solver(fp):
        return lshaped_solve(fp, cfg.solver)

    final, history = saa_refine(
        sampler, saa.alpha, saa.rel_width_tol, solver,
        schedule=saa.schedule, M=saa.M, T=saa.T, seed=cfg.seed,
        workers=cfg.solver.workers)

    ev_fp = sampler(child_seed(cfg.seed, _ROLE_EV_INSTANCE, 0), saa.eval_n)
    x_bar = solve_expected_value_problem(ev_fp)
    eev = eev_interval(x_bar, sampler, saa.eval_n, saa.alpha,
                       seed=cfg.seed, workers=cfg.solver.workers)
    vss = vss_interval(final, eev)

    out = cfg.output
    os.makedirs(out, exist_ok=True)
    _write_intervals_csv(os.path.join(out, "intervals.csv"),
                         history + [eev, vss])
    payload = {
        "command": "saa",
        "model": cfg.model,
        "objective": float(final.estimate),
        "seed": int(cfg.seed),
        "alpha": saa.alpha,
        "vrp": _report_dict(final),
        "eev": _report_dict(eev),
        "vss": _report_dict(vss),
        "vss_significant": bool(vss.significant),
        "history_N": [int(rep.N) for rep in history],
    }
    print(_write_json(os.path.join(out, "objective.json"), payload))
    return 0


def cmd_evaluate(cfg):
    network = _network(cfg)
    model, sampler = _model_and_sampler(cfg, network, cfg.seed)
    fp = sampler(cfg.seed, cfg.scenarios)
    paths = cfg.evaluate

    def _need(key):
        path = paths[key]
        if path is None:
            raise ConfigError(f"evaluate.{key} must point at a CSV file")
        if not os.path.exists(path):
            raise ConfigError(f"evaluate.{key} file not found: {path}")
        return path

    used = []
    if cfg.model == "capacity":
        from .models import ExpansionPlan
        plan = ExpansionPlan.from_csv(_need("expansion"))
        x = model.x_from_plan(plan)
        used.append(paths["expansion"])
    elif cfg.model == "maintenance":
        from .models import DayAheadStrategy, MaintenanceSchedule
        strategy = DayAheadStrategy.from_csv(_need("strategy"))
        schedule = MaintenanceSchedule.from_csv(_need("schedule"))
        x = model.x_from_parts(strategy, schedule)
        used.extend([paths["strategy"], paths["schedule"]])
    else:
        from .models import DayAheadStrategy
        strategy = DayAheadStrategy.from_csv(_need("strategy"))
        x = model.x_from_strategy(strategy)
        used.append(paths["strategy"])

    check_first_stage_feasible(fp.program.first_stage, x)
    value, diagnostics = _evaluate(model, fp, x)
    payload = {
        "command": "evaluate",
        "model": cfg.model,
        "objective": float(value),
        "scenarios": int(cfg.scenarios),
        "seed": int(cfg.seed),
        "decision_files": used,
    }
    payload.update(diagnostics)
    out = cfg.output
    os.makedirs(out, exist_ok=True)
    print(_write_json(os.path.join(out, "objective.json"), payload))
    return 0


def cmd_water_value(cfg):
    network = _network(cfg)
    pool = _compute_pool(cfg, network)
    out = cfg.output
    os.makedirs(out, exist_ok=True)
    pool.to_csv(os.path.join(out, "cuts.csv"))
    payload = {
        "command": "water-value",
        "cuts": len(pool),
        "plants": list(pool.plant_ids),
        "scenarios": cfg.water_value.scenarios,
        "horizon_hours": cfg.water_value.horizon_hours,
        "seed": int(cfg.seed),
    }
    print(_write_json(os.path.join(out, "objective.json"), payload))
    return 0


# --- entry point ----------------------------------------------------------


def _emit_error(code, kind, message):
    sys.stderr.write(json.dumps(
        {"code": code, "error": kind, "message": message},
        sort_keys=True) + "\n")


_COMMANDS = {
    "solve": cmd_solve,
    "saa": cmd_saa,
    "evaluate": cmd_evaluate,
    "water-value": cmd_water_value,
}


def main(argv=None):
    parser = _Parser(prog="hydrosp",
                     description="Stochastic hydropower planning experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="YAML experiment configuration")
    parser.add_argument("--model", choices=_MODELS)
    parser.add_argument("--scenarios", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="U64")
    parser.add_argument("--output", metavar="DIR")
    parser.add_argument("--resolution", type=int, metavar="HOURS")
    parser.add_argument("--horizon-days", type=int, dest="horizon_days",
                        metavar="D")
    try:
        args, extra = parser.parse_known_args(argv)
        overrides = _parse_overrides(extra)
        cfg = ExperimentConfig.from_sources(args, overrides)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        _emit_error(2, type(exc).__name__, str(exc))
        return 2
    except (NonConvergenceError, WaterValueError) as exc:
        _emit_error(1, type(exc).__name__, str(exc))
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error(3, type(exc).__name__, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
