"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds, for the duration of a ``with tracing(tracer):`` block,
the module-level names through which hydrosp's layers call each other, so
every call into a layer opens a span (name, start, end, parent) without any
change to the program.  Spans stay in memory and are summarised or written
out after the run.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
import dataclasses
import statistics
import time


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = -1              # index into Tracer.spans; -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self.spans[idx].end = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name, fn, describe=None):
        """Return fn traced as span ``name``; ``describe(args, result)``
        adds counts to the span's info after the call returns."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if describe is not None:
                self.spans[idx].info.update(describe(args, out))
            return out
        return traced

    def children(self):
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self):
        """Each span's duration minus the part of its interval that its
        child spans cover (overlapping children are counted once)."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted((max(self.spans[c].start, s.start),
                                  min(self.spans[c].end, s.end))
                                 for c in kids[i]):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(s.duration - covered)
        return out

    def to_records(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.info} for s in self.spans]


def _lp_info(args, sol):
    lp = args[0]
    return {"status": sol.status, "iterations": int(sol.iterations),
            "nodes": int(sol.nodes), "rows": int(lp.nrows),
            "cols": int(lp.nvars)}


def _de_info(args, de):
    return {"rows": int(de.lp.nrows), "cols": int(de.lp.nvars)}


# (module, attribute, span name, describe) for every call site rebound
def _targets():
    from hydrosp import core, lshaped, lp
    return [
        (core, "solve_stage", "core.solve_stage", None),
        (core, "solve_lp", "core.solve_lp", _lp_info),
        (core, "solve_mbp", "core.solve_mbp", _lp_info),
        (core, "build_deterministic_equivalent",
         "core.build_deterministic_equivalent", _de_info),
        (lshaped, "solve_lp", "lshaped.solve_lp", _lp_info),
        (lshaped, "solve_mbp", "lshaped.solve_mbp", _lp_info),
        (lp, "solve_lp", "lp.solve_lp", _lp_info),
    ]


@contextmanager
def tracing(tracer):
    """Rebind the layer call sites to traced wrappers; restore on exit."""
    saved = []
    try:
        for module, attr, name, describe in _targets():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, describe))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def traced_program(tracer, fp):
    """A copy of the finite program whose second-stage builder is traced."""
    from hydrosp.core import FiniteProgram
    program = dataclasses.replace(
        fp.program,
        second_stage=tracer.wrap("models.second_stage",
                                 fp.program.second_stage))
    return FiniteProgram(program, fp.scenarios, fp.probabilities)


def layer_metrics(tracer):
    """Per-layer totals over the traced calls; each call is a root span."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    selfs = tracer.self_times()

    def named(name, parent=None):
        return [i for i, s in enumerate(spans) if s.name == name and (
            parent is None or (s.parent >= 0
                               and spans[s.parent].name in parent))]

    def total(idx):
        return sum(spans[i].duration for i in idx)

    def count(idx, key):
        return sum(spans[i].info.get(key, 0) for i in idx)

    sub = named("core.solve_lp", parent=("core.solve_stage",))
    stage = named("core.solve_stage")
    models = named("models.second_stage")
    master = named("lshaped.solve_lp") + named("lshaped.solve_mbp")
    master_nodes = named("lp.solve_lp", parent=("lshaped.solve_mbp",))
    mbp = named("core.solve_mbp")
    mbp_nodes = named("lp.solve_lp", parent=("core.solve_mbp",))
    de = named("core.build_deterministic_equivalent")
    lps = [i for i, s in enumerate(spans) if "status" in s.info]
    sub_ms = [spans[i].duration * 1e3 for i in sub]
    mib = 8.0 / 2**20
    return {
        "lp.sub.calls": len(sub),
        "lp.sub.s": total(sub),
        "lp.sub.iters": count(sub, "iterations"),
        "lp.sub.ms_p50": statistics.median(sub_ms) if sub_ms else 0.0,
        "lp.sub.ms_max": max(sub_ms, default=0.0),
        "lp.sub.dense_mb": max((spans[i].info["rows"] * spans[i].info["cols"]
                                * mib for i in sub), default=0.0),
        "models.stage.calls": len(models),
        "models.stage.s": total(models),
        "core.subproblem.calls": len(stage),
        "core.subproblem.s": total(stage),
        "core.subproblem.self_s": sum(selfs[i] for i in stage),
        "lp.master.calls": len(master),
        "lp.master.s": total(master),
        "lp.master.iters": (count(named("lshaped.solve_lp"), "iterations")
                            + count(master_nodes, "iterations")),
        "lshaped.self_s": sum(selfs[i] for i in roots
                              if spans[i].name == "lshaped.solve"),
        "lp.mbp.nodes": count(mbp, "nodes"),
        "lp.mbp.s": total(mbp),
        "lp.mbp.iters": count(mbp_nodes, "iterations"),
        "core.de_build.s": total(de),
        "core.de.rows": max((spans[i].info["rows"] for i in de), default=0),
        "core.de.cols": max((spans[i].info["cols"] for i in de), default=0),
        "core.de.dense_mb": max((spans[i].info["rows"] * spans[i].info["cols"]
                                 * mib for i in de), default=0.0),
        "lp.limit": sum(1 for i in lps if spans[i].info["status"] == "limit"),
        "trace.spans": len(spans),
        "trace.solve_s": total(roots),
        "trace.self_sum_s": sum(selfs),
    }
