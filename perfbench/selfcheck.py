"""Harness self-check: every metric named in BENCHMARK.json is emitted with its unit.

    python3 perfbench/selfcheck.py

Runs each workload on its reduced inputs, untraced and traced, and checks
the shape of the result line and that every call passed its output check.
It makes no assertion about how long anything takes.
"""

from __future__ import annotations

import json
import sys

import harness
import inputs

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def problems_of(result: dict, expected: list[dict]) -> list[str]:
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        out.append(f"metrics differ: missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            out.append(f"{name}: unit {got.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or isinstance(got.get("value"), bool):
            out.append(f"{name}: value {got.get('value')!r} is not a number")
    return out


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    harness.import_program()
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(inputs.WORKLOADS):
        print(f"BENCHMARK.json workloads {names} differ from the harness's {sorted(inputs.WORKLOADS)}")
        return 1
    failed = 0
    for name in names:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, info = harness.measure(name, inputs.DEFAULT_SEED, 0, trace, small=True)
            json.dumps(result)  # the result line must serialize
            problems = problems_of(result, expected) + info["failures"]
            failed += bool(problems)
            print(f"{name} trace={int(trace)}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
