"""Write the golden outputs the benchmark compares every call against.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are trusted: it records the exit
code and a SHA-256 of stdout of every call at the default seed, in
`perfbench/golden/<workload>.json`.  `graph-m3` and `dims-m3` take no
input from the seed, and the `verify-m3` report is the same for every
iota period (checked here on all six), so those goldens cover every seed;
the `geom-batch` golden covers the default seed only.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

import harness
import inputs

SEED_FREE = {"verify-m3", "graph-m3", "dims-m3"}


def outputs(cli, name: str, seed: int) -> tuple[inputs.Workload, list[harness.CallResult]]:
    workdir = harness.RUN_DIR / f"golden-{name}-seed{seed}"
    try:
        workload = inputs.build(name, seed, workdir)
        results = [harness.run_call(cli, call.argv) for call in workload.calls]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for call, result in zip(workload.calls, results):
        problem = harness.output_problem(workload.kind, call, result)
        if problem:
            raise SystemExit(f"{name} seed {seed}, {call.label}: {problem}")
    return workload, results


def main() -> int:
    cli = harness.import_program()
    seeds_by_iota: dict[str, int] = {}
    for seed in itertools.count():
        seeds_by_iota.setdefault(inputs.verify_iota(seed), seed)
        if len(seeds_by_iota) == 6:
            break
    reports = {tuple(harness.digest(r.stdout) for r in outputs(cli, "verify-m3", seed)[1])
               for seed in seeds_by_iota.values()}
    if len(reports) != 1:
        raise SystemExit("the verify-m3 report depends on the iota period; its golden cannot cover every seed")
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in inputs.WORKLOADS:
        seed = inputs.DEFAULT_SEED
        workload, results = outputs(cli, name, seed)
        calls = [{"label": call.label, "exit": r.exit, "sha256": harness.digest(r.stdout), "bytes": len(r.stdout)}
                 for call, r in zip(workload.calls, results)]
        golden = {"workload": name, "seed": seed, "any_seed": name in SEED_FREE, "calls": calls}
        path = harness.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(harness.ROOT)} ({len(calls)} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
