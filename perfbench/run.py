"""tateshift benchmark: one workload per process, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload tate-scan --seed 1 --seconds 16 --trace 0

The load is a closed loop: one client and one thread run the workload's jobs
in order, each after the previous one returns, pass after pass until
``--seconds`` have gone by and at least the workload's minimum number of
passes is done.  Frontier jobs then run once each in a child process that is
stopped at the job's deadline; at most one child runs at a time.

Every job's output is checked on its first pass; later passes must repeat
its report byte for byte.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and work counters, plus the tracing overhead.  End-to-end times
are calibrated to a nominal host speed by reference slices taken on a timer
while the passes run (``refclock.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import refclock
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
HARD_STOP_S = 60.0  # no pass starts later than this into the run
TAIL_BEYOND = 10  # samples the tail percentile leaves above it


def load_program():
    """Import tateshift from this checkout's sources, and nowhere else."""
    if not (SRC / "tateshift" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tateshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tateshift

    if Path(tateshift.__file__).resolve().parent != SRC / "tateshift":
        sys.exit(f"perfbench: imported tateshift from {tateshift.__file__}")


@dataclass
class Outcome:
    job: str
    kind: str  # done (unchecked), ok, error, raised, timeout, wrong
    detail: str = ""
    text: str = ""  # report bytes, compared across passes
    latency: float = 0.0  # wall-clock seconds, reference slices excluded
    start: float = 0.0
    end: float = 0.0


def execute(job, clock, tracer=None) -> Outcome:
    """Run one job in this process; an uncaught exception is an outcome."""
    start = perf_counter()
    try:
        code, text = tracer.run_job(job.id, job.run) if tracer else job.run()
    except Exception as exc:  # the run goes on; the job counts as failed
        end = perf_counter()
        detail = f"{type(exc).__name__}: {exc}"
        print(f"perfbench: job {job.id} raised\n{traceback.format_exc()}",
              file=sys.stderr)
        return Outcome(job.id, "raised", detail, detail, clock.net(start, end),
                       start, end)
    end = perf_counter()
    if code != 0:
        return Outcome(job.id, "error", f"exit {code}: {text[:160]}", text,
                       clock.net(start, end), start, end)
    return Outcome(job.id, "done", "", text, clock.net(start, end), start, end)


def run_child(argv, deadline_s) -> Outcome:
    """Run one job in a child process, stopped and reaped at the deadline."""
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=deadline_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return Outcome("", "timeout", f"deadline {deadline_s:g} s",
                       f"timeout {deadline_s:g}", perf_counter() - start)
    latency = perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        detail = f"child exited {proc.returncode}: {proc.stderr[-300:]}"
        return Outcome("", "raised", detail, detail, latency)
    result = json.loads(lines[-1])
    if "raised" in result:
        return Outcome("", "raised", result["raised"], result["raised"], latency)
    if result["code"] != 0:
        return Outcome("", "error", f"exit {result['code']}: {result['text'][:160]}",
                       result["text"], latency)
    return Outcome("", "done", "", result["text"], latency)


def judge(job, out: Outcome, first: dict):
    """Check a job's first output; later outputs must repeat it exactly."""
    earlier = first.get(job.id)
    if earlier is not None:
        if out.text != earlier.text:
            out.kind, out.detail = "wrong", "report differs from the first pass"
        elif out.kind == "done":
            out.kind, out.detail = earlier.kind, earlier.detail
        return
    if out.kind == "done":
        try:
            reason = job.check(json.loads(out.text))
        except Exception as exc:  # a malformed report fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        out.kind, out.detail = ("ok", "") if reason is None else ("wrong", reason)
    first[job.id] = out


def run_passes(jobs, seconds, min_passes, clock, tracer=None):
    """Closed loop over the jobs; with a tracer, every second pass is traced."""
    passes, first = [], {}
    start = perf_counter()
    with clock:  # samples the host speed every refclock.EVERY_S seconds
        while perf_counter() - start < HARD_STOP_S and (
                len(passes) < min_passes or perf_counter() - start < seconds):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                outcomes = [execute(job, clock, tracer if traced else None)
                            for job in jobs]
            finally:
                if traced:
                    tracer.uninstall()
            for job, out in zip(jobs, outcomes):
                judge(job, out, first)
            passes.append({"traced": traced, "outcomes": outcomes,
                           "trace": tracer.pass_summary() if traced else None})
    return passes


def failed_jobs(outcomes) -> set:
    """Jobs counted once each: failed if any of their runs failed."""
    return {o.job for o in outcomes if o.kind != "ok"}


def run_frontier(jobs, workload, seed):
    outcomes, first = [], {}
    for job in jobs:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(seed), "--child-job", job.id]
        out = run_child(argv, job.deadline_s)
        out.job = job.id
        judge(job, out, first)
        outcomes.append(out)
    return outcomes


def measure_setup(workload, seed) -> list[float]:
    """Process start to the first job's inputs ready, in fresh interpreters.

    Each probe is calibrated by the host speed it measures right after.
    """
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        ready, speed = map(float, proc.stdout.split()[-2:])
        times.append((ready - start) * speed)
    return times


def tail_fraction(jobs_per_pass, min_passes) -> float:
    """The tail percentile: mid-way through the samples of the k-th slowest job.

    Every job contributes one sample per pass, so the pooled samples fall in
    bands, one per job.  k is the smallest number of jobs such that half of
    the k-th slowest job's band and all bands above it hold TAIL_BEYOND
    samples at min_passes.  Mid-band, the tail reads that job's median, not
    the edge where it meets its neighbour, and it names the same job however
    many passes a run completes.
    """
    k = math.ceil(TAIL_BEYOND / min_passes + 0.5)
    return 1 - (k - 0.5) / jobs_per_pass


def end_to_end(passes, failed, total, min_passes, setup_times, clock, lines):
    """End-to-end metrics; every time is calibrated by the reference clock."""
    runs = [p["outcomes"] for p in passes if not p["traced"]]
    jobs_per_pass = len(runs[0])
    calibrated = [[clock.calibrate(o.start, o.end) for o in outs] for outs in runs]
    pass_times = [sum(outs) for outs in calibrated]
    wall_pass = statistics.median(sum(o.latency for o in outs) for outs in runs)
    # Latencies pool the jobs that succeeded: a failure counts in ok_share,
    # and how fast a job fails is no latency its user waits for.
    samples = [(o.kind == "ok", t) for outs, times in zip(runs, calibrated)
               for o, t in zip(outs, times)]
    latencies = sorted(t for ok, t in samples if ok) or sorted(t for _, t in samples)
    n = len(latencies)
    q = tail_fraction(sum(o.kind == "ok" for o in runs[0]) or jobs_per_pass, min_passes)
    rank = max(1, math.ceil(q * n))
    ok_share = 1 - failed / total
    median_pass = statistics.median(pass_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "jobs_per_s": (jobs_per_pass / median_pass, "1/s",
                       f"{jobs_per_pass} jobs / median pass {median_pass:.3f} s "
                       f"over {len(runs)} passes (wall clock {wall_pass:.3f} s)"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms",
                       f"n={n} samples of jobs that succeeded"),
        "job_tail_ms": (1000 * latencies[rank - 1], "ms",
                        f"p{100 * q:.1f}, n={n}, {n - rank} beyond"),
        "ok_share": (ok_share, "ratio",
                     f"{total - failed} of {total} jobs ok; "
                     f"fail_share {1 - ok_share:.4f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "peak RSS of this process"),
    }
    low, mid, high = statistics.quantiles(clock.speeds, n=4)
    lines.append(f"times below are calibrated to the nominal host speed; this host "
                 f"ran at {mid:.2f} of it (quartiles {low:.2f}, {high:.2f}) over "
                 f"{len(clock.speeds)} reference slices")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:<14} {value:>12.4f} {unit:<6} {note}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def per_layer(passes, problems, clock, lines):
    traced = [p["trace"] for p in passes if p["traced"]]

    def pass_times(was_traced):  # calibrated, as the end-to-end times are
        return [sum(clock.calibrate(o.start, o.end) for o in p["outcomes"])
                for p in passes if p["traced"] == was_traced]
    counts = traced[0]["counts"]
    if any(t["counts"] != counts for t in traced[1:]):
        problems.append("work counters differ between traced passes")
    for t in traced:
        total = sum(t["self_s"].values())
        if abs(total - t["job_s"]) > 1e-6 * max(1.0, t["job_s"]) or t["lowest_self_s"] < -1e-6:
            problems.append("layer self times do not add up to the traced job time")
    metrics = {}
    for name in spans.SELF_TIME_METRICS:
        metrics[name] = (statistics.median(t["self_s"][name] for t in traced), "s")
    for name in spans.COUNT_METRICS:
        if name != "ring_core.cert_found":
            unit = "bytes" if name == "cli.report_bytes" else "count"
            metrics[name] = (counts[name], unit)
    searches = counts["ring_core.cert_searches"]
    metrics["ring_core.cert_found_ratio"] = (
        counts["ring_core.cert_found"] / searches if searches else 0.0, "ratio")
    job_s = statistics.median(t["job_s"] for t in traced)
    metrics["trace.job_s"] = (job_s, "s")
    metrics["trace.overhead"] = (
        statistics.median(pass_times(True)) / statistics.median(pass_times(False)) - 1,
        "ratio")
    lines.append(f"traced passes: {len(traced)}, "
                 f"untraced passes: {len(passes) - len(traced)}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<32} {value:>14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    all_jobs = workloads.build(args.workload, args.seed, workloads.Checker())

    if args.setup_probe:
        ready = time.monotonic()
        print(ready, refclock.speed_now())
        return 0
    if args.child_job:
        job = next(j for j in all_jobs if j.id == args.child_job)
        try:
            code, text = job.run()
        except Exception as exc:
            print(json.dumps({"raised": f"{type(exc).__name__}: {exc}"}))
        else:
            print(json.dumps({"code": code, "text": text}))
        return 0

    jobs = [j for j in all_jobs if j.deadline_s is None]
    frontier_jobs = [j for j in all_jobs if j.deadline_s is not None]
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    clock = refclock.RefClock()

    tracer = spans.Tracer() if args.trace else None
    passes = run_passes(jobs, args.seconds, spec.min_passes, clock, tracer)
    frontier = run_frontier(frontier_jobs, args.workload, args.seed)

    lines = [f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass "
             f"and {len(frontier_jobs)} frontier jobs; closed loop, one client; "
             f"{len(passes)} passes"]
    outcomes = [o for p in passes for o in p["outcomes"]] + frontier
    failed = len(failed_jobs(outcomes))
    problems = []
    if args.trace:
        metrics = per_layer(passes, problems, clock, lines)
        tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(passes, failed, len(all_jobs), spec.min_passes,
                             setup_times, clock, lines)

    reported = set()
    for o in outcomes:
        if o.kind != "ok" and (o.job, o.kind, o.detail) not in reported:
            reported.add((o.job, o.kind, o.detail))
            lines.append(f"FAIL {o.kind} {o.job}: {o.detail}")
        if o.kind == "wrong":
            problems.append(f"{o.job}: {o.detail}")
    lines += [f"INCORRECT {p}" for p in dict.fromkeys(problems)]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
