"""Usage: check-evaluate.py OBJECTIVE_JSON

Checks the objective.json of a ``hydrosp evaluate`` run: scenario 0
starts from the model's start basis and every other scenario from, or is
settled at, scenario 0's final basis, so ``warm_starts`` equals
``scenarios`` unless a start basis was refused.  Prints the run's solver
counts (lp_iterations, factorizations, bunched) either way.
"""
import json
import sys


def main(path):
    with open(path) as fh:
        run = json.load(fh)
    print(f"{path}: " + ", ".join(
        f"{key} {run[key]}" for key in ("scenarios", "warm_starts",
                                        "lp_iterations", "factorizations",
                                        "bunched")))
    if run["warm_starts"] != run["scenarios"]:
        return "a start basis was refused: " + json.dumps(run)
    return None


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
