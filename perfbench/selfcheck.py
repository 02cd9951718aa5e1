"""Self-check of the benchmark harness at N=4, n=16.

    python3 perfbench/selfcheck.py

Drives every workload path, untraced and traced, on seed 0 and seed 1
at a size that takes seconds, and checks each result against what
BENCHMARK.json declares: exactly the result keys, a correct run with no
failed operation, and every metric present as a finite number with its
declared unit.  It also checks the displacement-basis build counts the
workloads are built to show.  Exits 0 when everything passes.
"""

import contextlib
import io
import json
import math
import os
import sys

import run

# displacement-basis builds per pass: the sweep's ascending J_u order
# rebuilds the basis at every J_u
EXPECTED_BUILDS = {"ci": 1, "paper": 1, "sweep": 3}


def validate(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    attempted, failed = result["attempted"], result["failed"]
    if type(attempted) is not int or attempted < 1:
        problems.append(f"attempted={attempted!r}")
    if failed != 0:
        problems.append(f"failed={failed!r}")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: entry {m!r}")
        elif m["unit"] != units.get(name):
            problems.append(f"{name}: unit {m['unit']!r}")
        elif type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    run.pin_environment()
    if not run.import_program():
        print("msbiot sources not found", file=sys.stderr)
        return 2
    import harness
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    unknown = {w["name"] for w in bench["workloads"]} - set(harness.WORKLOADS)
    if unknown:
        print(f"BENCHMARK.json names workloads the harness lacks: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 1

    failures = 0
    for workload in harness.WORKLOADS:
        for seed in (0, 1):
            for trace in (False, True):
                log = io.StringIO()
                with contextlib.redirect_stdout(log):
                    result = harness.measure(workload, seed, 0.1, trace,
                                             run.ROOT, small=True)
                problems = validate(
                    result, bench["per_layer" if trace else "end_to_end"])
                if trace:
                    builds = result["metrics"].get(
                        "displacement_offline.builds", {}).get("value")
                    if builds != EXPECTED_BUILDS[workload]:
                        problems.append(f"displacement_offline.builds={builds}")
                label = f"{workload} seed={seed} trace={int(trace)}"
                print(f"{label:26s} {'ok' if not problems else 'FAIL'}")
                if problems:
                    failures += 1
                    print(log.getvalue(), end="")
                    for p in problems:
                        print(f"    {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
