"""msbiot benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload ci --seed 0 --seconds 60 --trace 0

Workloads: ci and sweep (listed in BENCHMARK.json) and paper (n=200,
about a minute untraced and 1.1 GB; run by hand).  Runs from a
checkout of the repository: msbiot is imported from the checkout's
``src`` directory, never from an installed copy, and the run
exits with status 2 before measuring anything if that is missing.
Human-readable lines (environment, errors per solve point, the span
table of a traced run) come first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread and no sweep worker pool in every benchmark process:
# two-thread runs of the same stage spread more on a two-core machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pin_environment():
    """Must run before numpy is imported."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("MSBIOT_WORKERS", None)


def import_program():
    """Put the checkout's sources first on sys.path; False if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "msbiot", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    if not import_program():
        print(f"msbiot sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
