"""Benchmark of the omegadet command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json, workload inputs in
``workloads.py``.  Each run starts one fresh single-threaded workload process
(``worker.py``) that calls ``omegadet.cli.main`` in-process on generated
inputs, one job after another, for about ``--seconds`` seconds, and checks
every output.  Set-up time (interpreter start, importing omegadet, writing
the inputs) is measured from here, in the measuring process and in
``SETUP_PROBES`` extra processes that stop after set-up; the median is
reported.

The end-to-end times are scaled to a reference machine speed (see
``worker.py``); the raw times are printed beside them with a ``.raw``
suffix.  ``wall_s`` is the median pass over all jobs.  Job latencies are
folded to one median per job; ``job_s.p50`` is their smoothed median and
``job_s.tail`` the highest percentile with ten jobs beyond it.  Per-layer
figures come from a traced run and are raw seconds and exact counts.

The run prints every metric with its unit, then, as the last line, one JSON
object: the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.  Full results, the environment and the output digest go
to ``.perfbench/<workload>-seed<N>-trace<T>.json``.  The exit status is 0
whenever a result is printed; it is nonzero, with no result, when the
checkout has no ``src/omegadet`` or a workload process fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_LOOP_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 8
# A run must end within 180 s; the measuring process is stopped after this.
PROCESS_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def spawn(args, workdir: Path, *, setup_only: bool) -> tuple[tuple[float, float], dict | None]:
    """Start one workload process.

    Returns its raw and speed-scaled set-up time and, unless set-up only, its
    report.  The reference loop runs here just before the start and just
    after the process reports ready.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    before = reference_loop()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        scale = 2 * REFERENCE_LOOP_S / (before + reference_loop())
        rest, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process ran longer than {PROCESS_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"workload process failed with exit status {proc.returncode}")
    return (setup_s, setup_s * scale), None if setup_only else json.loads(rest.strip().splitlines()[-1])


def smoothed_median(ordered: list[float]) -> float:
    """Harrell-Davis style median: order statistics weighted by the spread of a sample median.

    The weight of the i-th smallest of n samples is the probability that a
    normal variable with mean 1/2 and variance 1/(4(n+2)), the large-sample
    law of a sample median's rank share, falls in ((i-1)/n, i/n].  Unlike the
    middle order statistic, this does not jump when the median falls into a
    gap between two clusters of jobs, as it does on check-corpus between
    one- and two-letter automata.
    """
    n = len(ordered)
    scale = math.sqrt(2 / (4 * (n + 2)))
    cdf = [0.5 * (1 + math.erf((i / n - 0.5) / scale)) for i in range(n + 1)]
    total = cdf[n] - cdf[0]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered)) / total


def latency_summary(passes: list[list[float]]) -> dict:
    """Median and tail of the per-job latencies, each job's latency its median over passes.

    The tail is the highest percentile with at least ten samples beyond it,
    the eleventh-largest sample, or the maximum when there are fewer than
    eleven.  A job list repeats every pass, so samples of the same job are
    folded first: otherwise the tail would jump from one job to another as
    the number of passes changes.
    """
    ordered = sorted(statistics.median(times) for times in zip(*passes))
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return {
        "p50": smoothed_median(ordered),
        "tail": ordered[index],
        "percentile": 100 * (index + 1) / n,
        "samples": n,
    }


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def measure(args) -> dict:
    """Run the set-up probes and the measuring process; returns every figure of the run."""
    if not (ROOT / "src" / "omegadet" / "__init__.py").is_file():
        raise BenchmarkError(f"no omegadet sources under {ROOT / 'src'}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = [spawn(args, workdir, setup_only=True)[0] for _ in range(SETUP_PROBES)]
        setup, report = spawn(args, workdir, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "setup_s.raw": (statistics.median(raw for raw, _ in setups), "s"),
    }
    for suffix, key in (("", "scaled_latencies"), (".raw", "latencies")):
        wall_s = statistics.median(sum(times) for times in report[key])
        latency = latency_summary(report[key])
        metrics.update({
            f"wall_s{suffix}": (wall_s, "s"),
            f"macrostates_per_s{suffix}": (report["dpa_states"] / wall_s, "1/s"),
            f"lassos_per_s{suffix}": (report["lassos"] / wall_s, "1/s"),
            f"job_s.p50{suffix}": (latency["p50"], "s"),
            f"job_s.tail{suffix}": (latency["tail"], "s"),
        })
    metrics.update({
        "dpa_states": (report["dpa_states"], "count"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
        "jobs_failed": (report["failed"], "count"),
    })
    correct = report["failed"] == 0
    if args.trace:
        correct = correct and report["trace_digest"] == report["digest"] and report["counts_repeat"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failures": report["failures"],
        "digest": report["digest"],
        "trace_digest": report.get("trace_digest"),
        "params": report["params"],
        "jobs": report["jobs"],
        "passes": report["passes"],
        "traced_passes": report.get("traced_passes", 0),
        "tail_percentile": latency["percentile"],
        "latency_samples": latency["samples"],
        "metrics": metrics,
        "layer": report.get("layer", {}),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = measure(args)
    except (OSError, ValueError, BenchmarkError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {result['jobs']} jobs, {result['passes']} untraced passes")
    print(f"output sha256 {result['digest']}")
    env = result["environment"]
    print(f"python {env['python']}, nproc {env['nproc']}, src lines {env['src_lines']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    print(f"  job_s.tail is p{result['tail_percentile']:.3g} of {result['latency_samples']} per-job median latencies")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    if args.trace:
        print(f"traced passes {result['traced_passes']}, traced output sha256 {result['trace_digest']}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["layer"].items():
            print(f"  {name:<44} {value:>16.6g} {units.get(name, '')}")
        chosen = {m["name"]: {"value": result["layer"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: {"value": result["metrics"][m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
