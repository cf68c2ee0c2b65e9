"""Measurement loop, output checks and set-up timing for the benchmark.

Every workload runs in this process: `cli.main(argv)` with stdout and
stderr captured, one call after another, no threads.  A pass runs every
call of the workload once; a run repeats passes for the stated number of
seconds.  Every time is scaled to a reference machine speed by the gauge in
`reference.py`, which runs every quarter second while passes run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs
from reference import SpeedGauge
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
RUN_DIR = ROOT / ".perfbench_run"

MIN_PASSES = 3  # untraced passes per run, however long a pass takes
SETUP_SAMPLES = 31  # fresh interpreters timed for setup_s, after one warm-up
EXPECTED_EXIT = 0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}


class MissingProgram(Exception):
    """The checkout holds no `src/gkm_crystals` to benchmark."""


def import_program():
    """Import gkm_crystals from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "gkm_crystals" / "cli.py").is_file():
        raise MissingProgram(f"no gkm_crystals package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gkm_crystals import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"gkm_crystals was imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class CallResult:
    start: float
    end: float
    seconds: float  # wall time, without the time the speed gauge took
    cpu: float  # the same for user+sys time
    exit: int | None
    stdout: str
    error: str  # traceback text when the call raised


def run_call(cli, argv: list[str], gauge: SpeedGauge | None = None) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    spent = gauge.spent if gauge else 0.0
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any escaping exception is a failed call, never a crash of the benchmark
        code, error = None, traceback.format_exc()
    end, cpu = time.perf_counter(), time.process_time() - cpu
    gauged = (gauge.spent if gauge else 0.0) - spent
    return CallResult(start, end, end - start - gauged, cpu - gauged, code, out.getvalue(), error)


# -- output checks ------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(workload: inputs.Workload, seed: int, small: bool) -> dict[str, dict] | None:
    """Golden {label: {"exit", "sha256"}} when it covers this run, else None."""
    path = GOLDEN_DIR / f"{workload.name}.json"
    if small or not path.is_file():
        return None
    golden = json.loads(path.read_text(encoding="utf-8"))
    if not golden["any_seed"] and golden["seed"] != seed:
        return None
    return {c["label"]: c for c in golden["calls"]}


def output_problem(kind: str, call: inputs.Call, result: CallResult) -> str | None:
    """Why a call's output is wrong, from checks that hold for every seed."""
    if result.error:
        return "traceback: " + result.error.strip().splitlines()[-1]
    if result.exit != EXPECTED_EXIT:
        return f"exit code {result.exit}"
    lines = result.stdout.splitlines()
    if not lines:
        return "empty output"
    if kind == "verify":
        bad = [line for line in lines if not line.endswith(": ok")]
        return f"verify line not ok: {bad[0]!r}" if bad else None
    if kind == "dims":
        if lines[0] != "weight\tcrystal\toracle\tmatch":
            return "missing dims header"
        bad = [line for line in lines[1:] if line.split("\t")[-1] != "ok"]
        return f"dims row not ok: {bad[0]!r}" if bad else None
    if kind == "graph":
        try:
            graph = json.loads(result.stdout)
        except ValueError:
            return "graph output is not JSON"
        keys = {node["key"] for node in graph["nodes"]}
        if graph["root"] != "hw" or any(e["src"] not in keys or e["dst"] not in keys for e in graph["edges"]):
            return "graph edges do not join exported nodes"
        return None
    if kind == "geom":
        prefixes = ("moment map: ", "flag: ", "regular semisimple: ", "(eps, eps*) = ")
        if len(lines) != len(prefixes) or not all(l.startswith(p) for l, p in zip(lines, prefixes)):
            return "geom report does not have its four lines"
        if call.expect_flag and not lines[1].startswith("flag: found"):
            return "no flag found for a representation built to admit one"
        return None
    raise ValueError(f"unknown workload kind {kind!r}")


def call_problem(workload, call, result, golden) -> str | None:
    problem = output_problem(workload.kind, call, result)
    if problem is None and golden is not None:
        want = golden.get(call.label)
        if want is None:
            problem = "no golden output for this call"
        elif (want["exit"], want["sha256"]) != (result.exit, digest(result.stdout)):
            problem = "output differs from the golden output"
    return problem


def units_of(workload: inputs.Workload, results: list[CallResult]) -> int:
    """Elements verified, nodes exported, weights decided or reps evaluated in one pass."""
    if workload.kind == "graph":
        return sum(len(json.loads(r.stdout)["nodes"]) for r in results)
    return workload.units


# -- set-up time --------------------------------------------------------------

_SETUP_PROBE = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
import json
import gkm_crystals.cli
from gkm_crystals.binfinity import BInfinityCrystal, IotaSequence
from gkm_crystals.cartan import load_cartan
from gkm_crystals.geometry import load_rep
for item in json.loads(sys.argv[2]):
    with open(item[1], encoding="utf-8") as fh:
        text = fh.read()
    if item[0] == "rep":
        load_rep(text)
    else:
        datum = load_cartan(text)
        BInfinityCrystal(datum, IotaSequence.from_spec(item[2], datum.index_count))
print(repr(time.monotonic()))
"""


def _probe(spec: str) -> float:
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), spec],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - start


def setup_seconds(workload: inputs.Workload) -> float:
    """Median time from spawning a fresh interpreter to built inputs, at reference speed.

    A first probe warms the file cache and writes byte code; it is not
    counted.  A reference chunk runs before the first counted probe and
    after every one, and each probe is scaled by the chunks on either side
    of it.  time.monotonic is one clock for every process here.
    """
    spec = json.dumps(workload.setup)
    _probe(spec)
    gauge = SpeedGauge()
    gauge.sample()
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        seconds = _probe(spec)
        end = time.perf_counter()
        gauge.sample()
        samples.append(seconds * gauge.scale(start, end))
    return statistics.median(samples)


# -- environment ----------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


# -- the run ----------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # as measured
    scale: float  # reference-speed factor over the whole pass
    call_seconds: list[float]  # at reference speed, like the two below
    call_cpu: list[float]
    call_raw: list[float]  # call_seconds as measured
    layers: dict | None  # per-layer metrics of a traced pass, as measured


class Run:
    """The passes of one run, with every call checked as it completes."""

    def __init__(self, workload: inputs.Workload, golden: dict | None):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb: float | None = None
        self.units: int | None = None
        self.spans: list = []  # of the last traced pass

    def one_pass(self, gauge: SpeedGauge, traced: bool) -> Pass:
        from gkm_crystals import cli

        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            results = [run_call(cli, call.argv, gauge) for call in self.workload.calls]
            end = time.perf_counter()
        finally:
            if tracer:
                tracer.restore()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for call, result in zip(self.workload.calls, results):
            self.attempted += 1
            problem = call_problem(self.workload, call, result, self.golden)
            if problem:
                self.failures.append(f"{call.label}: {problem}")
        if self.units is None and not self.failures:
            self.units = units_of(self.workload, results)
        if tracer:
            self.spans = tracer.spans
        scales = [gauge.scale(r.start, r.end) for r in results]
        return Pass(end - start, gauge.scale(start, end),
                    [r.seconds * k for r, k in zip(results, scales)],
                    [r.cpu * k for r, k in zip(results, scales)],
                    [r.seconds for r in results],
                    tracer.metrics() if tracer else None)

    def passes(self, seconds: float, minimum: int, traced: bool = False) -> list[Pass]:
        """At least `minimum` passes, then more while the next one fits in `seconds`."""
        start = time.perf_counter()
        out: list[Pass] = []
        with SpeedGauge() as gauge:
            while True:
                out.append(self.one_pass(gauge, traced))
                typical = statistics.median(p.wall for p in out)
                if len(out) >= minimum and time.perf_counter() - start + typical > seconds:
                    return out


def median_per_call(passes: list[Pass], field: str) -> list[float]:
    """Each call's median over the passes."""
    return [statistics.median(values) for values in zip(*(getattr(p, field) for p in passes))]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds(run.workload)
    passes = run.passes(seconds, MIN_PASSES)
    call_ms = [t * 1000 for t in median_per_call(passes, "call_seconds")]
    wall = sum(call_ms) / 1000
    # An op is what one user waits for: one `geom` call of the batch, and the
    # whole pass elsewhere (one call, or the `dims` sweep over the gate data).
    if run.workload.kind == "geom":
        ops_ms = call_ms
    else:
        ops_ms = [sum(p.call_seconds) * 1000 for p in passes]
    values = {
        "wall_s": wall,
        "cpu_s": sum(median_per_call(passes, "call_cpu")),
        "units_per_s": (run.units or 0) / wall,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": setup,
        "op_ms.p50": statistics.median(ops_ms),
        "op_ms.p90": statistics.quantiles(ops_ms, n=10, method="inclusive")[8],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {"passes": len(passes), "units_per_pass": run.units, "ops": len(ops_ms),
            "raw_wall_s": sum(median_per_call(passes, "call_raw")),
            "pass_wall_s": [p.wall for p in passes], "pass_scale": [p.scale for p in passes]}
    return metrics, info


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("e_per_step", "rows_per_rank", "overhead_frac")):
        return "ratio"
    return "count"


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Untraced passes for half the time, then traced passes for the other half."""
    plain = run.passes(seconds / 2, 1)
    traced = run.passes(seconds / 2, 1, traced=True)
    layers = [p.layers for p in traced]
    # Counts repeat exactly from pass to pass; times are medians over the
    # traced passes of their reference-speed values.
    values = {name: layers[0][name] if layer_unit(name) != "s"
              else statistics.median(m[name] * p.scale for m, p in zip(layers, traced))
              for name in layers[0]}
    values["trace.overhead_frac"] = (statistics.median(p.wall * p.scale for p in traced)
                                     / statistics.median(p.wall * p.scale for p in plain))
    counts_repeat = all(m[k] == layers[0][k] for m in layers for k in m if layer_unit(k) != "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"names": ["name", "start", "end", "parent"],
                                      "spans": run.spans}) + "\n", encoding="utf-8")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    info = {"untraced_passes": len(plain), "traced_passes": len(traced),
            "counts_repeat": counts_repeat, "spans": str(spans_path.relative_to(ROOT))}
    return metrics, info


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, dict]:
    """One run of one workload: (result line, details)."""
    workdir = RUN_DIR / f"{name}-seed{seed}-{os.getpid()}"
    try:
        workload = inputs.build(name, seed, workdir, small)
        run = Run(workload, load_golden(workload, seed, small))
        if trace:
            spans_path = RUN_DIR / f"spans-{name}-seed{seed}.json"
            metrics, info = per_layer(run, seconds, spans_path)
        else:
            metrics, info = end_to_end(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["failures"] = run.failures[:5]
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, info
