"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload verify-m3 --seed 0 --seconds 25 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run.  The line before the result describes
the environment and the run.  The exit code is 0 when a result was
printed, 1 on a harness error and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, info = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": harness.environment(args.seed), "workload": args.workload,
                      "trace": args.trace, "run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
