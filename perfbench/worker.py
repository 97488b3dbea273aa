"""One workload process of the omegadet benchmark.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--setup-only]

Imports omegadet from the checkout's ``src``, writes the workload's inputs
under ``--workdir``, prints ``ready`` and then calls ``omegadet.cli.main``
in-process as a closed loop with one client: each job starts when the
previous one has returned.  Passes over the job list repeat until
``--seconds`` have passed, at least two of them.  With ``--trace 1`` the
first half of the time runs untraced, at least one pass, and the rest traced,
at least one pass; the spans of the last traced pass are written next to
``--workdir``.  After the passes, every output is checked.  The last stdout
line is one JSON object with the raw figures, which ``run.py`` summarizes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Machine-speed calibration.  On a shared 2-core virtual machine the CPU speed
# drifted by 10-25% over tens of seconds, longer than a run, so raw times of
# two runs of the same code disagreed by more than any useful bound.  A fixed
# pure-Python loop that does not touch omegadet is timed before and after
# every chunk of jobs lasting at least CHUNK_S, and each job's latency is scaled by
# REFERENCE_LOOP_S / (mean loop time around its chunk).  Scaled times are
# seconds on a machine where the loop takes REFERENCE_LOOP_S; that constant
# fixes their unit and must never change.
REFERENCE_LOOP_S = 0.0007
LOOP_ROUNDS = 700
CHUNK_S = 0.05


def reference_loop() -> float:
    """Duration of one fixed round of set, tuple and dict work (median of three)."""
    durations = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict = {}
        for i in range(LOOP_ROUNDS):
            block = frozenset((i % 17, (i * 7) % 19, (i * 3) % 23))
            key = (block, i % 13)
            table[key] = table.get(key, 0) + len(block | {i % 5})
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def run_pass(cli, jobs) -> dict:
    """Run every job once: raw and speed-scaled latencies, output digests, stdout, failures."""
    gc.collect()
    latencies, scales, digests, texts, failures = [], [], [], [], []
    before, chunk_start, chunk_s = reference_loop(), 0, 0.0
    for index, job in enumerate(jobs):
        if job.output is not None:
            job.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = cli.main(list(job.argv))
            except (Exception, SystemExit) as exc:  # a raising job is a failed job
                status = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
        chunk_s += latencies[-1]
        if chunk_s >= CHUNK_S or index == len(jobs) - 1:
            after = reference_loop()
            scales += [2 * REFERENCE_LOOP_S / (before + after)] * (index + 1 - chunk_start)
            before, chunk_start, chunk_s = after, index + 1, 0.0
        if job.output is not None and job.output.exists():
            payload = job.output.read_bytes()
        else:
            payload = out.getvalue().encode()
        digests.append(hashlib.sha256(payload).hexdigest())
        texts.append(out.getvalue())
        if status != 0:
            failures.append((job.name, f"exit {status} {err.getvalue().strip()[:200]}"))
    return {
        "latencies": latencies,
        "scaled": [t * f for t, f in zip(latencies, scales)],
        "digests": digests,
        "texts": texts,
        "failures": failures,
    }


def oracle_gate(jobs, texts) -> tuple[list[tuple[str, str]], int, int]:
    """Check every job's output against the lasso oracle; returns failures, DPA states, lassos.

    A determinize job's .dpa must agree with ``nba_accepts_lasso`` on every
    lasso within the stem and cycle bounds.  A check job must report
    agreement on exactly the number of lassos those bounds give; its DPA
    size is counted by determinizing once more here.
    """
    from omegadet.determinize import determinize
    from omegadet.oracle import enumerate_lassos, nba_accepts_lasso
    from omegadet.parity import parse_dpa, run_lasso
    from workloads import MAX_CYCLE, MAX_STEM

    failures, states, lassos = [], 0, 0
    for job, text in zip(jobs, texts):
        sample = list(enumerate_lassos(job.automaton.alphabet, MAX_STEM, MAX_CYCLE))
        if job.output is None:
            if text != f"checked {len(sample)} lassos: agreement\n":
                failures.append((job.name, f"unexpected check report {text[:200]!r}"))
            lassos += len(sample)
            states += determinize(job.automaton, job.strategy).num_states
            continue
        try:
            dpa = parse_dpa(job.output.read_bytes())
        except (OSError, ValueError) as exc:
            failures.append((job.name, f"unreadable output: {exc}"))
            continue
        states += dpa.num_states
        for lasso in sample:
            if run_lasso(dpa, lasso).accepted != nba_accepts_lasso(job.automaton, lasso).accepted:
                failures.append((job.name, f"disagrees with the oracle on {lasso}"))
                break
    return failures, states, lassos


def workload_digest(jobs, digests) -> str:
    """SHA-256 over every job's name and output digest, in job order."""
    h = hashlib.sha256()
    for job, digest in zip(jobs, digests):
        h.update(f"{job.name}\0{digest}\n".encode())
    return h.hexdigest()


def layer_figures(untraced, traced) -> tuple[dict, bool]:
    """Per-layer figures of the traced passes, and whether every count repeated in each.

    Counts come from the first traced pass, times are medians over traced
    passes.  ``trace.wall_s`` is the median traced pass, ``trace.overhead_s``
    its excess over the median untraced pass, and ``trace.unattributed_s``
    the part of a traced pass that no span covers.  All times are raw seconds.
    """
    summaries = [p["spans"].summary() for p in traced]
    layer = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        layer[key] = statistics.median(values) if key.endswith("_s") else values[0]
    walls = [sum(p["latencies"]) for p in traced]
    layer["trace.wall_s"] = statistics.median(walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(sum(p["latencies"]) for p in untraced)
    layer["trace.unattributed_s"] = statistics.median(w - s["spans.total_s"] for w, s in zip(walls, summaries))
    del layer["spans.total_s"]
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    return layer, all(c == counts[0] for c in counts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import omegadet.cli

    if Path(omegadet.__file__).resolve().parent != SRC / "omegadet":
        print(f"omegadet imported from {omegadet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    cli = sys.modules["omegadet.cli"]
    jobs = workloads.build_jobs(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # Keep the benchmark's own objects out of the collections that jobs trigger.
    gc.collect()
    gc.freeze()

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    begin = time.perf_counter()
    passes = []
    while len(passes) < 2 - args.trace or time.perf_counter() - begin < untraced_seconds:
        passes.append(run_pass(cli, jobs))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = []
    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            while not traced or time.perf_counter() - begin < args.seconds:
                traced.append(run_pass(cli, jobs))
                traced[-1]["spans"] = tracer.reset()

    every = passes + traced
    failures = [f for p in every for f in p["failures"]]
    first = passes[0]["digests"]
    for index, job in enumerate(jobs):
        if any(p["digests"][index] != first[index] for p in every):
            failures.append((job.name, "output bytes differ between passes"))
    oracle_failures, dpa_states, lassos = oracle_gate(jobs, passes[0]["texts"])
    failures += oracle_failures
    failed_jobs = {name for name, _ in failures}

    report = {
        "params": workloads.WORKLOADS[args.workload],
        "jobs": len(jobs),
        "passes": len(passes),
        "attempted": len(jobs) * len(every),
        "failed": len(failed_jobs) * len(every),
        "failures": [f"{name}: {what}" for name, what in failures[:20]],
        "digest": workload_digest(jobs, first),
        "latencies": [p["latencies"] for p in passes],
        "scaled_latencies": [p["scaled"] for p in passes],
        "dpa_states": dpa_states,
        "lassos": lassos,
        "peak_rss_kb": peak_rss_kb,
    }
    if traced:
        report["layer"], report["counts_repeat"] = layer_figures(passes, traced)
        report["traced_passes"] = len(traced)
        report["trace_digest"] = workload_digest(jobs, traced[0]["digests"])
        traced[-1]["spans"].write(args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.bin")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
