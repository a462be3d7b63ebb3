"""Benchmark of the szegedcut library: one workload per process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all      # each in a fresh process

A single closed-loop client runs one job at a time, with no threads. The
inputs come from the seed; every job's output is checked against reference
values computed at set-up. `--seconds` fixes the measured work: the case
list is run round after round, and the number of rounds is `--seconds`
over the workload's nominal round time, so two commits run identical job
lists. Every time is scaled to a nominal host speed by a calibration
kernel timed just before it. With `--trace 0` the last stdout line holds
the end-to-end metrics; with `--trace 1` every job runs once untraced and
once traced, back to back, for half as many rounds, and the last line
holds the per-layer metrics. Spans go to `.bench_trace/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("molecule-cut", "theta-star", "weighted-generic")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
CALIBRATION_NOMINAL_S = 0.05

# end-to-end metric -> unit, in report order
END_TO_END_UNITS = {
    "edges_per_s": "edges/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(cmd, check=False).returncode
    return status


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(times: list[float]) -> tuple[float, float, int]:
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it.

    Never at or below the median: with fewer than 2 * TAIL_BEYOND + 2 jobs
    the tail is the rank just above the median and fewer jobs lie beyond.
    Returns (time, percentile, jobs beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _calibration_kernel():
    total = 0
    for chunk in range(5):  # small chunks keep the kernel out of peak_rss_mb
        pairs = [(i, i * 7 % 1000) for i in range(chunk, 150_000, 5)]
        buckets = [[] for _ in range(1000)]
        for a, b in pairs:
            buckets[b].append(a)
        total += sum(len(x) for x in buckets)
    return total


def calibrate() -> float:
    """Seconds a fixed allocation-heavy kernel takes, collector off.

    Host speed on a shared machine drifts by tens of percent over minutes,
    mostly in memory-bound work such as allocating and walking many small
    tuples and lists, which is what the library does. The kernel does the
    same and is timed right before every job and set-up, so its time
    measures the host's speed at that moment, independent of the program.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        _calibration_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, calibration_s: float) -> float:
    """`seconds` at the nominal host speed, given the kernel time beside it."""
    return seconds * CALIBRATION_NOMINAL_S / calibration_s


def run_job(job, steps, case):
    """Run one job; return (seconds, output or None if it raised)."""
    t0 = perf_counter()
    try:
        out = job(steps, case)
    except Exception:  # a job failure is counted, never fatal
        traceback.print_exc()
        return perf_counter() - t0, None
    return perf_counter() - t0, out


def passed(bench, case, out) -> bool:
    return out is not None and bench.check(case, out)


def setup(bench, workload, seed):
    """Generate inputs, compute references and warm up, SETUP_REPEATS times.

    Returns the cases, (raw seconds, calibration seconds) per repeat, and
    whether every warm-up passed. Repeats must yield identical inputs, or
    the seed does not fix them.
    """
    samples, first, warm_ok = [], None, True
    for _ in range(SETUP_REPEATS):
        cal = calibrate()
        t0 = perf_counter()
        cases = bench.make_cases(workload, seed)
        _, out = run_job(workload.job, bench.plain_steps(), cases[0])
        samples.append((perf_counter() - t0, cal))
        warm_ok = warm_ok and passed(bench, cases[0], out)
        fingerprint = [(c.label, c.sizes, c.expected) for c in cases]
        if first is None:
            first = fingerprint
        elif fingerprint != first:
            raise RuntimeError("set-up is not deterministic for this seed")
        gc.collect()
    return cases, samples, warm_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "szegedcut" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import szegedcut
    import bench_workloads as bench
    from bench_trace import PER_LAYER_UNITS, Tracer

    if Path(szegedcut.__file__).resolve().parent != SRC / "szegedcut":
        print(f"error: imported szegedcut from {szegedcut.__file__}", file=sys.stderr)
        return 2

    workload = bench.WORKLOADS[args.workload]
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  cpu {cpu_model()}")
    print(f"commit {git_commit()}  workload {workload.name}  seed {args.seed}"
          f"  seconds {args.seconds:g}  trace {args.trace}")

    cases, setup_samples, warm_ok = setup(bench, workload, args.seed)
    rounds = max(1, math.floor(args.seconds / workload.round_s + 0.5))
    if args.trace:  # each traced round runs every job twice
        rounds = max(1, rounds // 2)

    plain = bench.plain_steps()
    if args.trace:
        tracer = Tracer()
        traced = tracer.steps()
        traced_job = tracer.wrap("job", workload.job)
    samples, traced_times, edges, failed = [], [], 0, 0
    classes, case_times = {}, {case.label: [] for case in cases}
    t_run = perf_counter()
    for _ in range(rounds):
        for case in cases:
            gc.collect()
            cal = calibrate()
            dt, out = run_job(workload.job, plain, case)
            ok = passed(bench, case, out)
            if args.trace:
                tracer.job += 1
                tracer.scale.append(scaled(1.0, cal))
                gc.collect()
                with tracer.quotient_seam():
                    dt_traced, out = run_job(traced_job, traced, case)
                ok = ok and passed(bench, case, out)
                traced_times.append(scaled(dt_traced, cal))
            samples.append((dt, cal))
            case_times[case.label].append(scaled(dt, cal))
            edges += case.edges
            failed += not ok
            if out is not None:
                classes[case.label] = json.loads(out).get("classes")
    wall = perf_counter() - t_run

    for case in cases:
        sizes = "  ".join(f"{k} {v}" for k, v in case.sizes.items())
        print(f"input {case.label:<18} {sizes}  classes {classes.get(case.label)}"
              f"  median job {statistics.median(case_times[case.label]):.3f} s")
    times = [scaled(dt, cal) for dt, cal in samples]
    attempted = len(times)
    print(f"jobs {attempted} in {rounds} rounds of {len(cases)}  wall {wall:.1f} s"
          f"  failed {failed}  fail_ratio {failed / attempted:g} ratio"
          f"  warm-up {'ok' if warm_ok else 'FAILED'}")

    calibration = [cal for _, cal in setup_samples + samples]
    print(f"calibration median {statistics.median(calibration) * 1e3:.2f} ms over"
          f" {len(calibration)} samples; times below are at the nominal"
          f" {CALIBRATION_NOMINAL_S * 1e3:g} ms")
    if args.trace:
        span_file = ROOT / ".bench_trace" / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(span_file, t_run)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        metrics = tracer.layer_metrics(attempted, sum(traced_times), sum(times))
        units = PER_LAYER_UNITS
    else:
        tail_s, tail_pct, beyond = tail(times)
        print(f"job_tail_s at p{tail_pct:.1f} of {attempted} jobs, {beyond} beyond it")
        raw = [dt for dt, _ in samples]
        print(f"raw  edges_per_s {edges / sum(raw):.6g}  job_p50_s {statistics.median(raw):.6g}"
              f"  setup_s {statistics.median(dt for dt, _ in setup_samples):.6g}")
        metrics = {
            "edges_per_s": edges / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(scaled(dt, cal) for dt, cal in setup_samples),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
