#!/usr/bin/env python3
"""Benchmark of circleclone, run from the root of a source checkout.

    python3 perfbench/run.py --workload bound_sweep --seed 1 --seconds 30 --trace 0

Imports ``circleclone`` from ``src/`` of the checkout this file sits in and
runs one workload (see ``workloads.py``) through ``circleclone.cli.main`` in
this process: a warm-up at tiny size, then full passes until ``--seconds`` is
spent.  Every pass's output goes through the workload's correctness gate, and
passes with the same seed must produce the same output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
``import circleclone`` over fresh interpreters), ``wall_s`` (median pass) and
``peak_rss_mb``.  Both times are normalised to the nominal speed of a
reference kernel timed around every import and pass (see
REFERENCE_NOMINAL_S); raw seconds are printed beside them.  ``--trace 1`` reports the per-layer metrics: it runs
untraced passes for half the time and traced passes (``tracer.py``) for the
rest, and adds the ``python -X importtime`` breakdown of set-up.  Metric names
and units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object; details, metadata and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, count_mismatches, median_metrics, pass_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The host has few cores and passes are single-threaded Python; extra BLAS or
# OpenMP threads only add scheduling noise.  Set before numpy is imported.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_PASSES = 2
SUBPROCESS_TIMEOUT_S = 60
# A shared host's speed drifts by tens of percent within minutes, for any
# CPU-bound code alike.  Pass and import times are therefore divided by the
# time of a fixed reference kernel measured on either side of them and
# reported at the kernel's nominal speed; raw seconds are printed beside them.
REFERENCE_ITERATIONS = 12000
REFERENCE_NOMINAL_S = 0.2

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import circleclone\n"
    "print(time.perf_counter() - start, circleclone.__file__)\n"
)
_IMPORT_ONLY = "import sys; sys.path.insert(0, sys.argv[1]); import circleclone"
_IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _python(*args: str) -> subprocess.CompletedProcess:
    # -E: a PYTHONPATH of the caller must not put another circleclone first.
    return subprocess.run([sys.executable, "-E", *args], capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True)


def reference_seconds() -> float:
    """Seconds of a fixed kernel that shares no code with circleclone.

    It mixes what the workloads spend their time on: small complex matrices
    built from Python scalars, 4x4 Hermitian eigenvalues and einsum partial
    traces.
    """
    import numpy as np

    rho = np.outer(np.arange(8.0), np.arange(1.0, 9.0)).astype(complex).reshape(2, 2, 2, 2, 2, 2)
    start = time.perf_counter()
    total = 0.0
    for index in range(REFERENCE_ITERATIONS):
        x = index * 1e-6
        matrix = np.array([[1 + x, x - 1j * x, 0.5, 0.25j], [x + 1j * x, 2 - x, 0.5j, 0.5],
                           [0.5, -0.5j, 3 + x, x], [-0.25j, 0.5, x, 4 - x]])
        total += float(np.linalg.eigvalsh(matrix)[0]) + float(np.einsum("abcabf->cf", rho)[0, 0].real)
    return time.perf_counter() - start


def normalise(seconds: float, before: float, after: float) -> tuple[float, float]:
    """(normalised seconds, reference seconds) for a measurement between two reference timings."""
    reference = (before + after) / 2
    return seconds * REFERENCE_NOMINAL_S / reference, reference


def _import_seconds() -> float:
    seconds, path = _python("-c", _IMPORT_TIMER, str(SRC)).stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported circleclone from {path}, not {SRC}")
    return float(seconds)


def measure_setup(repeats: int) -> list[tuple[float, float, float]]:
    """(seconds, normalised seconds, reference seconds) of cold ``import circleclone``s.

    Each runs in a fresh interpreter, after one discarded import that writes
    the bytecode cache; the reference kernel runs between imports.
    """
    _import_seconds()
    samples = []
    before = reference_seconds()
    for _ in range(repeats):
        seconds = _import_seconds()
        after = reference_seconds()
        samples.append((seconds, *normalise(seconds, before, after)))
        before = after
    return samples


def import_breakdown() -> dict[str, float]:
    """numpy, scipy.optimize and circleclone's own modules in ``-X importtime`` (median of runs)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        own_us, cumulative_us = 0, {}
        for line in _python("-X", "importtime", "-c", _IMPORT_ONLY, str(SRC)).stderr.splitlines():
            match = _IMPORTTIME_LINE.match(line)
            if match:
                self_us, total_us, name = int(match[1]), int(match[2]), match[3]
                cumulative_us.setdefault(name, total_us)
                if name.split(".")[0] == "circleclone":
                    own_us += self_us
        runs.append({"setup.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
                     "setup.scipy_optimize_s": cumulative_us.get("scipy.optimize", 0) / 1e6,
                     "setup.circleclone_own_s": own_us / 1e6})
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def run_cli(cli, argv: list[str]) -> tuple[float, int, str]:
    """One in-process ``circleclone`` call: (seconds, exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exit_request:  # argparse rejecting the arguments
        code = exit_request.code if isinstance(exit_request.code, int) else 2
    except Exception:  # a raising pass is a failed pass, reported by the gate
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def run_passes(cli, argv: list[str], seconds: float, min_passes: int, tracer=None) -> list[tuple]:
    """Full passes until another one would overrun ``seconds`` (at least ``min_passes``).

    Each pass gives (seconds, exit code, standard output, normalised seconds,
    reference seconds); the reference kernel runs before the first pass and
    after every pass.
    """
    records: list[tuple] = []
    before = reference_seconds()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(records)
        gc.collect()
        pass_seconds, code, text = run_cli(cli, argv)
        after = reference_seconds()
        records.append((pass_seconds, code, text, *normalise(pass_seconds, before, after)))
        before = after
        elapsed = time.perf_counter() - start
        if len(records) >= min_passes and elapsed + statistics.median(r[0] + after for r in records) > seconds:
            return records


def gate(workload, argv: list[str], records: list[tuple], expected: str, label: str,
         problems: list[str]) -> tuple[int, int]:
    """Attempted and failed items over passes; problems collects what went wrong."""
    attempted = failed = 0
    for index, (_, code, text, _, _) in enumerate(records):
        items, misses, problem = workload.gate(argv, text, code)
        attempted += items
        failed += misses
        if problem:
            problems.append(f"{label} pass {index}: {problem}")
        if workload.fingerprint(text) != expected:
            problems.append(f"{label} pass {index}: output differs from the first pass with the same seed")
    return attempted, failed


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def metadata(seed: int, argv: list[str]) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "circleclone").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "seed": seed,
        "argv": argv,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "circleclone" / "__init__.py").is_file():
        print(f"error: no circleclone sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"

    workload = WORKLOADS[args.workload]
    workload_argv = workload.argv(args.seed, args.tiny)
    setup_samples = [] if args.trace else measure_setup(SETUP_REPEATS)
    breakdown = import_breakdown() if args.trace else {}

    sys.path.insert(0, str(SRC))
    import circleclone
    from circleclone import cli
    if not Path(circleclone.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported circleclone from {circleclone.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_cli(cli, workload.argv(args.seed, True))  # warm-up: lazy set-up inside numpy and scipy
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    start = time.perf_counter()
    untraced = run_passes(cli, workload_argv, args.seconds / 2 if args.trace else args.seconds,
                          1 if args.trace else MIN_PASSES)
    expected = workload.fingerprint(untraced[0][2])
    attempted, failed = gate(workload, workload_argv, untraced, expected, "untraced", problems)
    untraced_wall = statistics.median(record[3] for record in untraced)

    if args.trace:
        tracer = Tracer(circleclone)
        tracer.install()
        try:
            passes = run_passes(cli, workload_argv, args.seconds - (time.perf_counter() - start), 1, tracer)
        finally:
            tracer.restore()
        traced_attempted, traced_failed = gate(workload, workload_argv, passes, expected, "traced", problems)
        attempted += traced_attempted
        failed += traced_failed
        per_pass = [pass_metrics(tracer, index) for index in range(len(passes))]
        problems += [f"count {name} differs between traced passes" for name in count_mismatches(per_pass)]
        values = median_metrics(per_pass) | breakdown
        values["trace.overhead_ratio"] = statistics.median(record[3] for record in passes) / untraced_wall
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        declared_metrics = declared["per_layer"]
    else:
        passes = untraced
        values = {
            "setup_s": statistics.median(sample[1] for sample in setup_samples),
            "wall_s": untraced_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared_metrics = declared["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared_metrics}
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"circleclone benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}  "
          f"argv: {' '.join(workload_argv)}")
    timings = [("wall_s", passes, 3), ("raw pass seconds", passes, 0), ("reference kernel seconds", passes, 4),
               ("setup_s", setup_samples, 1), ("raw import seconds", setup_samples, 0)]
    for label, samples, column in timings:
        if samples:
            q1, median, q3 = quartiles([sample[column] for sample in samples])
            kind = "fresh imports" if samples is setup_samples else "traced passes" if args.trace else "passes"
            print(f"  {label} {median:.4f} s  median of {len(samples)} {kind} (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  fail_ratio {failed / attempted:.6g}  ({failed} failed of {attempted} attempted items)")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    meta = metadata(args.seed, workload_argv)
    print("meta " + json.dumps(meta, sort_keys=True))

    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"result": result, "meta": meta, "problems": problems,
              "setup": [{"seconds": seconds, "normalised_seconds": normalised, "reference_seconds": reference_s}
                        for seconds, normalised, reference_s in setup_samples],
              "passes": [{"seconds": seconds, "exit_code": code, "normalised_seconds": normalised,
                          "reference_seconds": reference_s}
                         for seconds, code, _, normalised, reference_s in passes]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
