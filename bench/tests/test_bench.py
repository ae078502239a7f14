"""Tests of the benchmark itself: tracer arithmetic, a tiny pass of every
workload through build, solve, trace and oracle, and the oracle's ability
to reject a wrong objective.

    python3 -m pytest -q bench/tests
"""

import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from spans import Span, Tracer, tracing  # noqa: E402
from workloads import (SECTION, CapacityLShaped, DayAheadEval,  # noqa: E402
                       MaintenanceDE, instance_seed)

TINY = {
    "dayahead-eval": DayAheadEval(scenarios=2, plants=SECTION),
    "capacity-lshaped": CapacityLShaped(scenarios=2, days=1, plants=SECTION),
    "maintenance-de": MaintenanceDE(scenarios=2, hours=(6, 8)),
}


def test_self_times_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("root"):
        with t.span("a"):
            with t.span("a1"):
                pass
        with t.span("b"):
            pass
    assert [s.parent for s in t.spans] == [-1, 0, 1, 0]
    # root 10 - (a 3 + b 4); a 3 - a1 1; a1 1; b 4
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert sum(t.self_times()) == t.spans[0].duration


def test_overlapping_children_are_covered_once():
    t = Tracer()
    t.spans = [Span("root", 0.0, 10.0), Span("c1", 1.0, 5.0, parent=0),
               Span("c2", 3.0, 7.0, parent=0)]
    assert t.self_times() == [4.0, 4.0, 4.0]


def test_tracing_restores_call_sites():
    from hydrosp import core, lp, lshaped
    before = (core.solve_lp, core.solve_stage, lshaped.solve_lp, lp.solve_lp)
    with tracing(Tracer()):
        assert core.solve_lp is not before[0]
    assert (core.solve_lp, core.solve_stage, lshaped.solve_lp,
            lp.solve_lp) == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced_pass(name):
    wl = TINY[name]
    inst = wl.build(instance_seed(0, 0))
    calls, attempted, failed, worst, layers, _ = run.traced(
        wl, inst, Namespace(workload=name, seed=0))
    assert attempted == 2 * wl.operations(inst) * wl.traced_instances
    assert failed == 0 and worst <= 1e-6
    assert layers["trace.self_sum_s"] == pytest.approx(
        layers["trace.solve_s"], rel=1e-9)
    assert layers["lp.limit"] == 0
    if name == "dayahead-eval":
        assert layers["lp.sub.calls"] == inst.fp.n_scenarios
        assert layers["models.stage.calls"] == inst.fp.n_scenarios
        assert layers["lp.mbp.nodes"] == 0 and layers["lp.master.calls"] == 0
    elif name == "capacity-lshaped":
        assert layers["lp.master.calls"] == layers["lshaped.iterations"]
        assert layers["lp.sub.calls"] == (inst.fp.n_scenarios
                                          * layers["lshaped.iterations"])
    else:
        assert layers["lp.mbp.nodes"] >= 1 and layers["lp.sub.calls"] == 0
        assert layers["core.de.rows"] > 0


class _Perturbed(MaintenanceDE):
    def objectives(self, result):
        return [v * (1.0 + 1e-5) for v in super().objectives(result)]


def test_oracle_rejects_perturbed_objective():
    base = TINY["maintenance-de"]
    inst = base.build(instance_seed(0, 0))
    call = run.timed_call(base, inst)
    assert run.verify(base, [dict(call)])[1] == 0
    wrong = _Perturbed(scenarios=base.scenarios, hours=base.hours)
    attempted, failed, worst = run.verify(wrong, [dict(call)])
    assert (attempted, failed) == (1, 1)
    assert worst > 1e-6


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "maintenance-de",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
