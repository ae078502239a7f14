"""Experiment runner: config loading, model assembly, artifact writing.

Commands: ``solve``, ``saa``, ``evaluate``, ``water-value``, each run as
``hydrosp COMMAND [--config FILE.yaml] [--dotted.key value ...]``.  Every
setting is a config key: the YAML file is read first, then the command
line's pairs in order.  The config schema is dataclasses only: the top-level
keys are the fields of ``ExperimentConfig``, the ``sampler``, ``solver``,
``penalties`` and ``capacity`` sections are the library dataclasses
``SamplerConfig``, ``LShapedConfig``, ``PenaltyConfig`` and ``CostParams``,
and the ``saa``, ``water_value`` and ``evaluate`` sections are this module's
``SAASettings``, ``WaterValueSettings`` and ``EvaluateFiles``.  Their field
defaults are the config defaults, and the whole config is built and checked
before any river, model or water value is.

Rerunning a command with the same inputs and seed reproduces its artifacts
byte for byte, except ``timings.csv`` (per-iteration wall times of
``solve``, next to each iteration's subproblem simplex iterations, cut
pool size and count of subproblems settled without a simplex call).  Every
CSV artifact is written by ``hydro.write_csv``.

Exit codes: 0 success, 1 solver non-convergence, 2 configuration error or
bad input file (the message names the key, or the file and line), 3 internal
numerical failure.
"""

from dataclasses import dataclass, fields, is_dataclass, replace
import argparse
import json
import os
import sys

import numpy as np
import yaml

from .core import (FiniteProgram, bunched, expected_scenario,
                   scenario_solutions, solve_expected_value_problem,
                   solve_stage)
from .hydro import (Resolution, default_initial_volumes, default_river,
                    load_river, rescale, write_csv)
from .lshaped import LShapedConfig, NonConvergenceError, solve as lshaped_solve
from .models import (CostParams, DayAheadStrategy, ExpansionPlan,
                     MaintenanceSchedule, PenaltyConfig, WaterValueError,
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
_HIDDEN = ("sampler.seed", "sampler.price_profile")


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


@dataclass(frozen=True)
class EvaluateFiles:
    """The ``evaluate`` section: the decision files ``evaluate`` reads."""

    strategy: str = None         # day-ahead and maintenance orders
    schedule: str = None         # maintenance windows
    expansion: str = None        # capacity expansion plan


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# --- configuration --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; one instance drives one command.

    The field defaults, with those of the section dataclasses, are the
    config defaults.
    """

    river: str = None            # packaged Skelleftealven data when null
    model: str = "day-ahead"
    seed: int = 0
    scenarios: int = 50
    output: str = "out"
    resolution: int = None       # hours per period; model default when null
    horizon_days: int = 365
    levels: int = 5
    block_width: int = 4
    m0_fraction: float = 0.5
    sampler: SamplerConfig = SamplerConfig()
    solver: LShapedConfig = LShapedConfig()
    saa: SAASettings = SAASettings()
    penalties: PenaltyConfig = PenaltyConfig()
    maintenance_durations: dict[str, int] = None   # {plant_id: hours}
    capacity: CostParams = CostParams()
    water_value: WaterValueSettings = WaterValueSettings()
    evaluate: EvaluateFiles = EvaluateFiles()

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ConfigError(f"unknown model {self.model!r}; "
                              f"expected one of {', '.join(_MODELS)}")
        for key, least in (("seed", 0), ("scenarios", 1), ("resolution", 1),
                           ("horizon_days", 1), ("levels", 1),
                           ("block_width", 1)):
            value = getattr(self, key)
            if value is not None and value < least:
                raise ConfigError(f"{key} must be at least {least}, "
                                  f"got {value}")
        if self.levels % 2 == 0:
            raise ConfigError(f"levels must be odd, got {self.levels}")
        if self.model != "capacity" and self.resolution not in (None, 1):
            raise ConfigError(f"resolution: the {self.model} model runs at "
                              "hourly resolution")
        if not 0.0 <= self.m0_fraction <= 1.0:
            raise ConfigError("m0_fraction must lie in [0, 1]")
        durations = self.maintenance_durations
        if durations is not None and not isinstance(durations, dict):
            raise ConfigError("config section 'maintenance_durations' must "
                              "be a mapping")
        for pid, hours in (durations or {}).items():
            if hours < 0:
                raise ConfigError(f"maintenance_durations.{pid}: {hours} "
                                  "hours must be at least 0")
        # a YAML value such as 1 would reach os.path.exists as a file
        # descriptor, so every path key must be a string
        if not isinstance(self.output, str):
            raise ConfigError(f"output: expected a directory path, "
                              f"got {self.output!r}")
        paths = [("river", self.river), ("water_value.cuts",
                                         self.water_value.cuts)]
        paths += [(f"evaluate.{f.name}", getattr(self.evaluate, f.name))
                  for f in fields(EvaluateFiles)]
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
    def from_sources(cls, config, tokens):
        """The YAML file at the path ``config`` (None for none), then the
        ``--dotted.key value`` pairs of tokens in order, each over what
        came before, as one checked config."""
        cfg = {}
        if config is not None:
            if not os.path.exists(config):
                raise ConfigError(f"config file not found: {config}")
            with open(config) as fh:
                loaded = yaml.safe_load(fh)
            if loaded is not None:
                cfg = loaded
            if not isinstance(cfg, dict):
                raise ConfigError("config section '<root>' must be a mapping")
        _apply_overrides(cfg, tokens, cls)
        return _build(cls, cfg)


def _holds_comment(text):
    """Whether the YAML text holds a comment: a ``#`` outside its tokens
    (``a #2``, not ``a#2`` or ``"a #2"``)."""
    end = 0
    for tok in yaml.scan(text):
        if "#" in text[end:tok.start_mark.index]:
            return True
        end = max(end, tok.end_mark.index)
    return "#" in text[end:]


def _apply_overrides(cfg, tokens, cls):
    """Set each ``--dotted.key value`` or ``--dotted.key=value`` of tokens,
    the value parsed as YAML, in the nested mapping cfg of the dataclass
    cls.  A value holding a YAML comment is refused, since the comment
    would drop the rest of it without a word.  A part of a key that names
    a dataclass field may spell ``_`` as ``-`` (``--horizon-days``); any
    other, such as a plant id under ``maintenance_durations``, is kept as
    given."""
    tokens = list(tokens)
    while tokens:
        tok = tokens.pop(0)
        dotted, eq, text = tok[2:].partition("=")
        if not tok.startswith("--") or not dotted:
            raise ConfigError(f"unexpected argument {tok!r}")
        if not eq:
            if not tokens:
                raise ConfigError(f"missing value for override {tok!r}")
            text = tokens.pop(0)
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse value {text!r} for "
                              f"{dotted!r}: {exc}") from None
        if _holds_comment(text):
            raise ConfigError(
                f"bad value {text!r} for {dotted!r}: ' #' starts a YAML "
                "comment, which would drop the rest of the value; quote it "
                f"as a YAML string, as in --{dotted} '\"...\"'")
        parts, kind = [], cls
        for part in dotted.split("."):
            types = ({f.name: f.type for f in fields(kind)}
                     if is_dataclass(kind) else {})
            name = part.replace("-", "_")
            part, kind = (name, types[name]) if name in types else (part, None)
            parts.append(part)
        *sections, leaf = parts
        node = cfg
        for i, part in enumerate(sections):
            if node.get(part) is None:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"config key {'.'.join(sections[:i + 1])!r}"
                                  " is not a section")
        node[leaf] = value


def _build(cls, values, path=""):
    """``cls(**values)``, every dataclass field built the same way from its
    own mapping, with every rejected key or value as a ConfigError.

    Values for int and float fields, and those of a ``dict[str, int]``,
    are coerced first, so YAML ints and strings such as "inf" or "1e-7"
    work.  An unknown or hidden key and a
    value that does not coerce are reported under their dotted key, a
    section's ``__post_init__`` check under the section's name.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"config section {path!r} must be a mapping")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in values.items():
        dotted = f"{path}.{key}" if path else str(key)
        f = known.get(key)
        if f is None or dotted in _HIDDEN:
            raise ConfigError(f"unknown config key {dotted!r}")
        if is_dataclass(f.type):
            value = _build(f.type, value, dotted)
        elif f.type in (int, float) and not (value is None
                                             and f.default is None):
            value = _coerce(f.type, value, dotted)
        elif f.type == dict[str, int] and isinstance(value, dict):
            value = {k: _coerce(int, v, f"{dotted}.{k}")
                     for k, v in value.items()}
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _coerce(kind, value, key):
    try:
        out = kind(value)
        if kind is int and out != value:
            raise ValueError("expected an integer")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for {key!r}: {exc}") from None
    return out


# --- assembly helpers -----------------------------------------------------


def _network(cfg):
    network = default_river() if cfg.river is None else load_river(cfg.river)
    for pid in cfg.maintenance_durations or ():
        if pid not in network.index:
            raise ConfigError(f"maintenance_durations.{pid}: no plant "
                              f"{pid!r} on the river")
    return network


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
                               config=cfg.solver,
                               horizon_hours=wv.horizon_hours)


def _model_and_sampler(cfg, network, levels_seed):
    """The configured model and its sampler(seed, n) -> FiniteProgram.

    The market models take their bid price levels from the cfg.scenarios
    samples drawn with levels_seed; solve and evaluate pass cfg.seed, so
    the levels come from their own training set.
    """
    resolution = Resolution(cfg.resolution
                            or (24 if cfg.model == "capacity" else 1))
    m0 = default_initial_volumes(rescale(network, resolution),
                                 cfg.m0_fraction)
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
            pool = (_compute_pool(cfg, network) if cfg.water_value.cuts is None
                    else WaterValuePool.from_csv(cfg.water_value.cuts))
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


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _witness(model, fp, x):
    """Second-stage solution under the probability-weighted mean scenario."""
    mean = expected_scenario(fp.scenarios, fp.probabilities)
    stage = fp.program.stage(mean)
    sol = solve_stage(stage, np.asarray(x, dtype=np.float64),
                      fp.program.sign)
    if sol.status != "optimal":
        raise RuntimeError(f"mean-scenario recourse solve {sol.status}")
    return model.schedule_from_y(sol.x)


def _write_production_csv(path, model, sched):
    scaled = model.scaled
    hpp = scaled.hours_per_period
    blocks = getattr(model, "blocks", ())
    rows = []
    for t in range(sched.production.shape[0]):
        for h, pid in enumerate(scaled.network.plant_ids):
            q1, q2 = sched.discharge[h, 0, t], sched.discharge[h, 1, t]
            rows.append([t, pid, scaled.mu1[h] * q1 + scaled.mu2[h] * q2,
                         q1 + q2, sched.spill[h, t], sched.volume[h, t] * hpp,
                         "", "", ""])
        committed = ""
        if sched.y is not None:
            committed = float(sched.y[t])
            for b, (start, stop) in enumerate(blocks):
                if start <= t < stop:
                    committed += float(sched.yb[b])
        rows.append([t, "system", sched.production[t], "", "", "", committed,
                     "" if sched.yplus is None else sched.yplus[t],
                     "" if sched.yminus is None else sched.yminus[t]])
    write_csv(path, ["period", "plant_id", "production_mwh", "discharge_m3s",
                     "spill_m3s", "volume_he", "committed_mwh", "deficit_mwh",
                     "surplus_mwh"], rows,
              units="production/committed/deficit/surplus MWh per period, "
                    "discharge/spill m3/s period average, volume HE")


# the L-shaped log files' columns, each an ``IterationRow`` field; the wall
# times go apart from the log, so that it repeats byte for byte
_LOG_FILES = {
    "iterations.csv": ("iteration", "master_objective", "expected_recourse",
                       "gap", "cuts_added"),
    "timings.csv": ("iteration", "wall_time_ms", "subproblem_iterations",
                    "master_iterations", "pool_size", "bunched"),
}


def _write_logs(out, log):
    for name, columns in _LOG_FILES.items():
        write_csv(os.path.join(out, name), columns,
                  ([getattr(r, c) for c in columns] for r in log))


def _evaluate(model, fp, x):
    """Expected objective of x, the probability-weighted mean production
    and imbalance, and the solver's work, from one recourse solve per
    scenario.

    The objective is ``core.evaluate_decision``'s, on the solves of
    ``core.scenario_solutions``: scenario 0 from the model's start basis,
    every other scenario settled at scenario 0's final basis or, where not
    optimal there, solved from it.
    ``lp_iterations`` (pivots), ``warm_starts`` (solves that started from
    a given basis or were settled at scenario 0's: every scenario unless
    the kernel refused a start), ``factorizations`` (basis matrices the
    simplex kernel factored from scratch) and ``bunched`` (scenarios
    settled without a simplex call) are deterministic, so
    ``objective.json`` stays byte-identical across reruns.  Where a
    recourse LP has alternative optima, the production and imbalance means
    describe the optimum these solves find.
    """
    vals, sols = scenario_solutions(fp, x)
    value = float(fp.probabilities @ vals)
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


def _check_groups(cfg, n=None, pool=None):
    """Reject more cut groups than the scenarios of an L-shaped run the
    command makes: the n of an instance, and the water-value run's where
    ``pool`` computes the water value in-process (by default, a day-ahead
    model without a cut file)."""
    if pool is None:
        pool = cfg.model == "day-ahead" and cfg.water_value.cuts is None
    runs = [] if n is None else [(n, "an instance")]
    if pool:
        runs.append((cfg.water_value.scenarios, "the water-value run"))
    groups = cfg.solver.groups
    for count, what in runs:
        if groups is not None and groups > count:
            raise ConfigError(f"solver: groups {groups} exceeds the {count} "
                              f"scenarios of {what}")


def cmd_solve(cfg):
    _check_groups(cfg, cfg.scenarios)
    network = _network(cfg)
    model, sampler = _model_and_sampler(cfg, network, cfg.seed)
    fp = sampler(cfg.seed, cfg.scenarios)
    result = lshaped_solve(fp, cfg.solver)

    out = cfg.output
    os.makedirs(out, exist_ok=True)
    _write_logs(out, result.log)
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
    _check_groups(cfg, min(cfg.saa.schedule))
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
        schedule=saa.schedule, M=saa.M, T=saa.T, seed=cfg.seed)

    ev_fp = sampler(child_seed(cfg.seed, _ROLE_EV_INSTANCE, 0), saa.eval_n)
    x_bar = solve_expected_value_problem(ev_fp)
    eev = eev_interval(x_bar, sampler, saa.eval_n, saa.alpha, seed=cfg.seed)
    vss = vss_interval(final, eev)

    out = cfg.output
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "intervals.csv"), ["N", "lo", "hi", "kind"],
              ([rep.N, rep.lo, rep.hi, rep.kind]
               for rep in history + [eev, vss]), units="Eur")
    payload = {
        "command": "saa",
        "model": cfg.model,
        "objective": float(final.estimate),
        "seed": int(cfg.seed),
        "alpha": saa.alpha,
        "vrp": final.to_dict(),
        "eev": eev.to_dict(),
        "vss": vss.to_dict(),
        "vss_significant": bool(vss.significant),
        "history_N": [int(rep.N) for rep in history],
    }
    print(_write_json(os.path.join(out, "objective.json"), payload))
    return 0


# the decision files each model's ``evaluate`` reads, in the order its
# model takes them
_DECISIONS = {
    "capacity": (("expansion", ExpansionPlan),),
    "maintenance": (("strategy", DayAheadStrategy),
                    ("schedule", MaintenanceSchedule)),
    "day-ahead": (("strategy", DayAheadStrategy),),
}


def cmd_evaluate(cfg):
    _check_groups(cfg)
    used, decisions = [], []
    for key, kind in _DECISIONS[cfg.model]:
        path = getattr(cfg.evaluate, key)
        if path is None:
            raise ConfigError(f"evaluate.{key} must point at a CSV file")
        if not os.path.exists(path):
            raise ConfigError(f"evaluate.{key} file not found: {path}")
        used.append(path)
        decisions.append(kind.from_csv(path))
    network = _network(cfg)
    model, sampler = _model_and_sampler(cfg, network, cfg.seed)
    fp = sampler(cfg.seed, cfg.scenarios)
    if cfg.model == "capacity":
        x = model.x_from_plan(*decisions)
    elif cfg.model == "maintenance":
        x = model.x_from_parts(*decisions)
    else:
        x = model.x_from_strategy(*decisions)

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
    _check_groups(cfg, pool=True)
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


_EPILOG = """\
every setting is a config key: a --dotted.key value pair after the command,
read as YAML, over the --config file; for example
  hydrosp solve --model capacity --horizon-days 30 --solver.groups 1"""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _Parser(prog="hydrosp", allow_abbrev=False, epilog=_EPILOG,
                     usage="%(prog)s COMMAND [--config FILE] "
                           "[--dotted.key value ...]",
                     formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="Stochastic hydropower planning experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="FILE",
                        help="YAML experiment configuration")
    try:
        args, tokens = parser.parse_known_args(argv)
        if argv[0] != args.command:
            raise ConfigError(f"the command must come first, got {argv[0]!r}")
        cfg = ExperimentConfig.from_sources(args.config, tokens)
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
