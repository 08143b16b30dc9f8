#!/usr/bin/env python3
"""End-to-end benchmark of the onticsim CLI, with a traced run for
per-layer timings.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one table

Each workload is a closed loop with one client: the CLI runs as a child
process (``PYTHONPATH=src`` of this checkout, ``--threads`` left at 1),
and the next call starts only after the previous one has exited.  Passes
over the workload's calls repeat until ``--seconds`` is used up.  Every
output is checked (see ``checks.py``); a repeated pass must reproduce the
first pass byte for byte.  ``--trace 1`` instead calls
``onticsim.cli.main`` in this process, alternating untraced and traced
passes, and reports per-layer span totals (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracing import ROOT as ROOT_SPAN
from tracing import TRACED, Tracer

BENCH_VERSION = "1"
REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
HWM_TAG = "perfbench:VmHWM_kB="
# The child reports its own peak RSS (VmHWM) on its last stderr line;
# ru_maxrss from wait4 would also count this process's resident size at
# the fork, which is not the CLI's.
CLI_SNIPPET = (
    "import sys\n"
    "from onticsim.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    hwm = [line.split()[1] for line in fh if line.startswith('VmHWM:')]\n"
    f"print({HWM_TAG!r} + hwm[0], file=sys.stderr)\n"
    "sys.exit(code)\n"
)
SETUP_SNIPPET = "import onticsim.cli"
SETUP_PER_PASS = 2  # imports timed before each pass, spreading them over the run
SETUP_REPEATS = 7  # fewest imports timed in a run; any missing follow the last pass
MIN_PASSES = 2  # the rerun check needs a second pass
RUN_LIMIT_S = 170.0  # a run of one workload ends within 180 s, hung children included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload and what its outputs must satisfy."""

    label: str
    args: tuple[str, ...]
    outputs: dict[str, Path]
    spec: object
    purities: int  # purities the call computes; 0 for the census


# ---------------------------------------------------------------- inputs


def random_pattern(rng: random.Random, n: int) -> int:
    """Uniform over the nontrivial subsets of n elements."""
    full = (1 << n) - 1
    while True:
        bits = rng.getrandbits(n)
        if bits not in (0, full):
            return bits


def random_images(rng: random.Random, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def cycle_notation(images: list[int]) -> str:
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        j = images[start]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = images[j]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def sweep_call(out: Path, tag: str, k: int, states: list[int], extra: list[str],
               plot: bool, oracle_masks: int) -> Call:
    n = 1 << k
    args = ["sweep", "--shape", f"2^{k}"]
    for bits in states:
        args += ["--ontic", f"{n}:0x{bits:X}"]
    outputs = {"csv": out / f"{tag}.csv"}
    args += extra + ["--out", str(outputs["csv"])]
    if plot:
        outputs["plot"] = out / f"{tag}.plot.txt"
        args += ["--plot-data", str(outputs["plot"])]
    spec = checks.SweepSpec((2,) * k, tuple(states), oracle_masks > 0, oracle_masks)
    return Call("sweep", tuple(args), outputs, spec, len(states) * ((1 << k) - 2))


def flagship(rng: random.Random, out: Path) -> list[Call]:
    states = [random_pattern(rng, 1 << 12) for _ in range(10)]
    return [sweep_call(out, "flagship", 12, states, [], True, 8)]


def stretch(rng: random.Random, out: Path) -> list[Call]:
    return [sweep_call(out, "stretch", 14, [random_pattern(rng, 1 << 14)], [], False, 32)]


def energy(rng: random.Random, out: Path) -> list[Call]:
    states = [random_pattern(rng, 1 << 12) for _ in range(10)]
    generator = cycle_notation(random_images(rng, 1 << 12))
    extra = ["--basis", "energy", "--generator", generator]
    return [sweep_call(out, "energy", 12, states, extra, True, 0)]


def dynamics(rng: random.Random, out: Path) -> list[Call]:
    n, t_max, positions = 1 << 12, 4095, (0, 1, 2, 3, 4, 5)
    state = random_pattern(rng, n)
    images = random_images(rng, n)
    series = out / "evolve.csv"
    evolve = Call(
        "evolve",
        ("evolve", "--shape", "2^12", "--generator", cycle_notation(images),
         "--mask", ",".join(str(p + 1) for p in positions),
         "--ontic", f"{n}:0x{state:X}", "--t-max", str(t_max), "--allow-wrap",
         "--out", str(series)),
        {"csv": series},
        checks.EvolveSpec((2,) * 12, state, tuple(images), positions, t_max, 16),
        t_max + 1,
    )
    census_n, samples = 20, 200_000
    table = out / "cycles.csv"
    census = Call(
        "cycles",
        ("cycles", "--n", str(census_n), "--samples", str(samples),
         "--seed", str(rng.randrange(1 << 31)), "--out", str(table)),
        {"csv": table},
        checks.CensusSpec(census_n, samples),
        0,
    )
    return [evolve, census]


WORKLOADS = {"flagship": flagship, "stretch": stretch, "energy": energy, "dynamics": dynamics}


# ---------------------------------------------------------------- checks


class Verifier:
    """Checks a call's outputs in full the first time, and afterwards
    requires the same bytes (which then carry the same verdict)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first: dict[int, tuple[tuple[str, ...], list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index: int, call: Call, returncode: int | None, stderr: str) -> None:
        self.attempted += 1
        problems = checks.check_process(-1 if returncode is None else returncode, stderr)
        if not problems:
            problems = self._outputs(index, call)
        if problems:
            self.failed += 1
            self.errors += [f"{call.label}: {message}" for message in problems]

    def _outputs(self, index: int, call: Call) -> list[str]:
        try:
            blobs = {key: path.read_bytes() for key, path in call.outputs.items()}
        except OSError as exc:
            return [f"output missing: {exc}"]
        digests = tuple(hashlib.sha256(blobs[key]).hexdigest() for key in sorted(blobs))
        if index in self.first:
            digest0, verdict = self.first[index]
            if digests != digest0:
                return ["output differs from the first run of the same inputs"]
            return verdict
        texts = {key: blob.decode(errors="replace") for key, blob in blobs.items()}
        rng = random.Random(f"oracle/{self.seed}/{index}")
        spec = call.spec
        if isinstance(spec, checks.SweepSpec):
            verdict = checks.check_sweep(texts["csv"], spec, rng, texts.get("plot"))
        elif isinstance(spec, checks.EvolveSpec):
            verdict = checks.check_evolve(texts["csv"], spec, rng)
        else:
            verdict = checks.check_census(texts["csv"], spec)
        self.first[index] = (digests, verdict)
        return verdict


def clear_outputs(call: Call) -> None:
    for path in call.outputs.values():
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------- untraced runs


def spawn(argv: list[str], env: dict[str, str], stderr_path: Path,
          deadline: float) -> tuple[float, int]:
    """Run a child to completion and reap it: wall seconds, exit code.
    A child still running at ``deadline`` is killed."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def peak_rss_mb(stderr: str) -> float | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(HWM_TAG):
            return int(line[len(HWM_TAG):]) / 1024.0
    return None


def probe_import(env: dict[str, str], verifier: Verifier, deadline: float) -> bool:
    """One untimed import: writes bytecode and proves onticsim comes from src."""
    try:
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET + "; import onticsim; print(onticsim.__file__)"],
            env=env, capture_output=True, text=True, timeout=deadline - perf_counter(),
        )
    except subprocess.TimeoutExpired:
        verifier.errors.append("setup: importing onticsim timed out")
        return False
    location = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC not in location.parents:
        verifier.errors.append(f"setup: onticsim not importable from {SRC}: {probe.stderr[-500:]}")
        return False
    return True


def run_untraced(calls: list[Call], seconds: float, out: Path, verifier: Verifier,
                 deadline: float) -> tuple[dict, dict]:
    """Closed loop of child processes.  Returns the per-pass samples of
    each metric and the values to report where they are not the median."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if not probe_import(env, verifier, deadline):
        return {}, {}
    setup: list[float] = []

    def time_setup() -> None:
        wall, code = spawn([sys.executable, "-c", SETUP_SNIPPET], env, out / "setup.err",
                           deadline)
        if code != 0:
            verifier.errors.append(f"setup: import exited {code}")
        setup.append(wall)

    passes: list[list[tuple[float, float | None]]] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        for _ in range(SETUP_PER_PASS):
            time_setup()
        results = []
        for index, call in enumerate(calls):
            clear_outputs(call)
            stderr_path = out / f"call{index}.err"
            wall, code = spawn([sys.executable, "-c", CLI_SNIPPET, *call.args],
                               env, stderr_path, deadline)
            stderr = stderr_path.read_text(errors="replace")
            verifier.record(index, call, code, stderr)
            results.append((wall, peak_rss_mb(stderr)))
        passes.append(results)
        durations.append(perf_counter() - began)
        elapsed = perf_counter() - start
        if verifier.failed or (
            len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds
        ):
            break
    while len(setup) < SETUP_REPEATS and not verifier.errors:
        time_setup()

    def call_walls(keep) -> list[float]:
        return [sum(w for c, (w, _) in zip(calls, p) if keep(c)) for p in passes]

    walls = call_walls(lambda c: True)
    purity_walls = call_walls(lambda c: c.purities)
    purities = sum(c.purities for c in calls)
    samples = {
        "setup_s": setup,
        "wall_s": walls,
        "purities_per_s": [purities / w for w in purity_walls],
        "peak_rss_mb": [max(r for _, r in p) for p in passes
                        if all(r is not None for _, r in p)],
    }
    # The machine's speed switches between modes for seconds at a time; a
    # time-weighted mean over the run tracks the share of time spent in each
    # mode, and measured steadier across runs than the median of a few passes.
    reported = {
        "wall_s": statistics.fmean(walls),
        "purities_per_s": purities * len(passes) / sum(purity_walls),
    }
    for label, name, work in (("evolve", "evolve_steps_per_s", lambda c: c.purities),
                              ("cycles", "census_perms_per_s", lambda c: c.spec.samples)):
        chosen = [c for c in calls if c.label == label]
        if chosen:
            done = sum(work(c) for c in chosen)
            times = call_walls(lambda c: c.label == label)
            samples[name] = [done / t for t in times]
            reported[name] = done * len(passes) / sum(times)
    return samples, reported


# ---------------------------------------------------------------- traced runs


def run_traced(calls: list[Call], seconds: float, verifier: Verifier,
               names: list[str]) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes over the calls."""
    sys.path.insert(0, str(SRC))
    import onticsim
    import onticsim.cli as cli

    if SRC not in Path(onticsim.__file__).resolve().parents:
        verifier.errors.append(f"trace: onticsim imported from {onticsim.__file__}")
        return {}, {}
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    totals: list[dict] = []
    coverage: list[float] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        for traced in (False, True):
            tracer.spans.clear()
            if traced:
                tracer.install()
            wall = 0.0
            try:
                for index, call in enumerate(calls):
                    clear_outputs(call)
                    err = io.StringIO()
                    t0 = perf_counter()
                    with contextlib.redirect_stderr(err):
                        try:
                            if traced:
                                code = tracer.call_root(cli.main, list(call.args))
                            else:
                                code = cli.main(list(call.args))
                        except (Exception, SystemExit):
                            code = None
                            err.write(traceback.format_exc())
                    wall += perf_counter() - t0
                    verifier.record(index, call, code, err.getvalue())
            finally:
                tracer.remove()
            walls[traced].append(wall)
            if traced:
                pass_totals = tracer.totals()
                totals.append(pass_totals)
                layered = sum(v["self_s"] for k, v in pass_totals.items() if k != ROOT_SPAN)
                coverage.append(layered / wall)
        tracer.spans.clear()
        durations.append(perf_counter() - began)
        if verifier.failed or perf_counter() - start + statistics.median(durations) > seconds:
            break

    known = {name for name, _, _ in TRACED} | {ROOT_SPAN}
    samples = {
        "trace.overhead_s": [statistics.median(walls[True]) - statistics.median(walls[False])],
        "trace.coverage": coverage,
        "missing": [],
    }
    for name in names:
        if name.startswith("trace."):
            continue
        span, stat = name.rsplit(".", 1)
        if span not in known or span in tracer.missing:
            samples["missing"].append(name)
        samples[name] = [t.get(span, {}).get(stat, 0) for t in totals]
    return samples, {}


# ---------------------------------------------------------------- reporting


def summarize(values: list[float]) -> tuple[float, float, int]:
    """Median, interquartile range as a share of the median, sample count."""
    median = statistics.median(values)
    spread = 0.0
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
    return median, spread, len(values)


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def provenance(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (REPO / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "onticsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "benchmark_version": BENCH_VERSION,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {name: os.environ.get(name, "default") for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit or "unknown",
        "source_sha256": source.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, metrics: list[dict],
                 trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    verifier = Verifier(seed)
    scratch = REPO / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        calls = WORKLOADS[name](random.Random(f"{name}/{seed}"), out)
        if trace:
            samples, reported = run_traced(calls, seconds, verifier,
                                           [m["name"] for m in metrics])
        else:
            samples, reported = run_untraced(calls, seconds, out, verifier, deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    result = {
        "correct": not verifier.errors and verifier.failed == 0,
        "attempted": max(verifier.attempted, 1),
        "failed": verifier.failed if verifier.attempted else 1,
        "metrics": {},
    }
    lines = []
    extras = [{"name": "evolve_steps_per_s", "unit": "1/s"},
              {"name": "census_perms_per_s", "unit": "1/s"}]
    for metric in metrics + extras:
        name, values = metric["name"], samples.get(metric["name"])
        if not values:
            if metric not in extras:
                result["correct"] = False
            continue
        median, spread, count = summarize(values)
        value = reported.get(name, median)
        if metric not in extras:
            result["metrics"][name] = {"value": value, "unit": metric["unit"]}
        lines.append((name, metric["unit"], value, median, spread, count))
    ratio = verifier.failed / max(verifier.attempted, 1)
    lines.append(("fail_ratio", "ratio", ratio, ratio, 0.0, verifier.attempted))
    return {"result": result, "lines": lines, "errors": verifier.errors,
            "missing": samples.get("missing", []),
            "samples": {k: v for k, v in samples.items() if k != "missing"}}


def print_report(name: str, report: dict) -> None:
    print(f"== {name}")
    print(f"{'metric':36} {'unit':6} {'value':>12} {'median':>12} {'spread':>8} {'n':>4}")
    for metric, unit, value, median, spread, count in report["lines"]:
        print(f"{metric:36} {unit:6} {value:12.6g} {median:12.6g} {spread:8.4f} {count:4d}")
    if report["missing"]:
        print(f"missing (not traced, reported as 0): {', '.join(report['missing'])}")
    for message in report["errors"][:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "onticsim" / "cli.py").is_file() or not (REPO / "BENCHMARK.json").is_file():
        print(f"no onticsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, seconds, metrics, bool(args.trace))
        print_report(name, reports[name])
    print(json.dumps({"samples": {name: r["samples"] for name, r in reports.items()}}))
    print(json.dumps({"provenance": provenance(args.seed)}))
    if args.workload:
        final = reports[args.workload]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports.values()),
            "attempted": sum(r["result"]["attempted"] for r in reports.values()),
            "failed": sum(r["result"]["failed"] for r in reports.values()),
            "metrics": {f"{name}.{metric}": value for name, r in reports.items()
                        for metric, value in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
