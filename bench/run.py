"""Benchmark runner for hydrosp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A detail
record (environment, every timed call, and with ``--trace 1`` the spans)
is written under ``bench/out/``.

Untraced run: repeats the workload's solve call on fresh seeded instances
for about S seconds (a call starts only if one more of the longest so far
still fits) and reports the medians over calls, peak RSS before
verification, set-up time as the median of separate set-up processes, and
the share of operations that passed the oracle.

Traced run: solves each of the workload's first few instances once
untraced and once with every layer call site traced, and reports per-layer
totals over the traced calls and the tracing overhead.  S does not apply.
"""

import os

# One BLAS thread: both sides of a comparison then run with the same count
# on any machine, and on two shared cores the second thread made the small
# dense LPs noisier without making them faster.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
LSHAPED_COUNTS = ("lshaped.iterations", "lshaped.cuts_added",
                  "lshaped.cuts_removed", "lshaped.pool_final")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build instance 0, print the wall-clock time at "
                        "which the solve call would start, and exit")
    return p.parse_args(argv)


def timed_call(wl, inst):
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        result, error = wl.call(inst), None
    except RuntimeError as exc:
        result, error = None, str(exc)
    return {"inst": inst, "result": result, "error": error,
            "wall_s": time.perf_counter() - w0,
            "cpu_s": time.process_time() - c0}


def verify(wl, calls):
    """Check every call against the oracle; returns (attempted, failed,
    largest relative gap)."""
    import oracle
    attempted = failed = 0
    worst = 0.0
    for c in calls:
        n = wl.operations(c["inst"])
        attempted += n
        if c["error"] is not None or not wl.ok(c["result"]):
            failed += n
            continue
        try:
            refs = wl.references(c["inst"])
        except RuntimeError as exc:
            c["error"] = str(exc)
            failed += n
            continue
        gaps = [oracle.relative_gap(o, r)
                for o, r in zip(wl.objectives(c["result"]), refs)]
        c["gaps"] = gaps
        failed += sum(g > oracle.RTOL for g in gaps)
        worst = max([worst] + gaps)
    return attempted, failed, worst


def setup_times(args):
    """Seconds from launching a fresh set-up process to the moment it would
    start the solve call, once per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - t)
    return out


def blas_threads():
    import ctypes
    import glob
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(pattern):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(seed):
    import numpy as np
    from hydrosp.backend import backend_choice
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend_choice(),
        "seed": seed,
    }


def untraced(wl, inst, args):
    from workloads import instance_seed
    calls = []
    start = time.perf_counter()
    while True:
        if calls:
            inst = wl.build(instance_seed(args.seed, len(calls)))
        calls.append(timed_call(wl, inst))
        longest = max(c["wall_s"] for c in calls)
        if time.perf_counter() - start + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, worst = verify(wl, calls)
    setups = setup_times(args)
    metrics = {
        "solve_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_s": setups}
    return calls, attempted, failed, worst, metrics, detail


def traced(wl, inst, args):
    from spans import Tracer, tracing, traced_program, layer_metrics
    from workloads import instance_seed
    tracer = Tracer()
    calls = []
    layers = dict.fromkeys(LSHAPED_COUNTS, 0)
    untraced_s = 0.0
    for k in range(wl.traced_instances):
        if k:
            inst = wl.build(instance_seed(args.seed, k))
        ref = timed_call(wl, inst)
        traced_inst = dataclasses.replace(
            inst, fp=traced_program(tracer, inst.fp))
        with tracing(tracer), tracer.span(wl.root):
            call = timed_call(wl, traced_inst)
        call["inst"] = inst       # verify outside the trace
        calls += [ref, call]
        untraced_s += ref["wall_s"]
        if call["result"] is not None:
            for key, v in wl.counts(call["result"]).items():
                layers[key] += v
    attempted, failed, worst = verify(wl, calls)
    layers.update(layer_metrics(tracer))
    layers["trace.untraced_s"] = untraced_s
    layers["trace.overhead_s"] = layers["trace.solve_s"] - untraced_s
    return calls, attempted, failed, worst, layers, {
        "spans": tracer.to_records()}


def declared_units(trace):
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hydrosp" / "__init__.py").is_file():
        print(f"error: hydrosp sources not found under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, instance_seed
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    inst = wl.build(instance_seed(args.seed, 0))
    if args.setup_only:
        print(repr(time.time()))
        return 0

    run = traced if args.trace else untraced
    calls, attempted, failed, worst, metrics, detail = run(wl, inst, args)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "max_relative_gap": worst,
        "calls": [{"wall_s": c["wall_s"], "cpu_s": c["cpu_s"],
                   "operations": wl.operations(c["inst"]),
                   "error": c["error"], "gaps": c.get("gaps")}
                  for c in calls],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"detail: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
