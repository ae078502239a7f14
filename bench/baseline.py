"""Run one workload on several seeds and report each end-to-end metric's
median and spread (interquartile distance as a share of the median).

    python3 bench/baseline.py --workload NAME [--seeds 10] [--write]

With --write, also makes one traced run on seed 0 and stores every run's
result and detail record in bench/baseline/NAME.json, the baseline later
changes are compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    detail = json.loads((ROOT / detail_line.split(": ", 1)[1]).read_text())
    return json.loads(result_line), detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    runs = []
    for seed in range(args.seeds):
        result, detail = one_run(args.workload, seed, seconds, 0)
        runs.append(detail)
        print(seed, json.dumps({k: v["value"]
                                for k, v in result["metrics"].items()}),
              flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
        summary[m["name"]] = {"median": med, "spread": sp,
                              "bound": m["bound"]}
        print(f"{m['name']:12s} median {med:.6g}  spread {sp:.4f}  "
              f"bound {m['bound']}")
    if args.write:
        _, traced = one_run(args.workload, 0, seconds, 1)
        out = BENCH / "baseline" / f"{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"summary": summary, "runs": runs,
                                   "traced": traced}, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
