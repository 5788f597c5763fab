"""The benchmark's own checks.  Run from the repository root:

    python3 perfbench/selfcheck.py [workload ...]   # default: tuple-witness

1. A job past its deadline is stopped and recorded as a timeout.
2. An injected uncaught exception counts as a failed job in ok_share.
3. Traced and untraced runs of one seed give identical job outcomes.
4. Two traced runs of one seed give identical work counters.
5. Without the program's sources the benchmark exits nonzero, printing no
   result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from time import perf_counter

import run

NON_COUNT_UNITS = ("s", "ratio")


def check(ok, message, failures):
    print(("PASS " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def benchmark(workload, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.splitlines()
    fails = sorted(" ".join(line.split()[:3]) for line in lines if line.startswith("FAIL "))
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result, fails


def main(workloads) -> int:
    failures = []

    start = perf_counter()
    out = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], 1.0)
    check(out.kind == "timeout" and perf_counter() - start < 10,
          f"deadline path records '{out.kind}' after {perf_counter() - start:.1f} s",
          failures)

    run.load_program()
    import workloads as wl

    def boom():
        raise RuntimeError("injected")

    jobs = [wl.Job("injected-raise", boom, lambda report: None),
            wl.Job("fine", lambda: (0, "{}"), lambda report: None)]
    clock = run.refclock.RefClock()
    passes = run.run_passes(jobs, 0.0, 2, clock)
    failed = run.failed_jobs(o for p in passes for o in p["outcomes"])
    metrics = run.end_to_end(passes, len(failed), len(jobs), 2, [0.0], clock, [])
    check(failed == {"injected-raise"} and metrics["ok_share"]["value"] == 0.5,
          f"injected exception counted: failed {sorted(failed)}, "
          f"ok_share {metrics['ok_share']['value']}", failures)

    for workload in workloads:
        _, plain, plain_fails = benchmark(workload, 0)
        _, traced, traced_fails = benchmark(workload, 1)
        _, again, _ = benchmark(workload, 1)
        check(plain and traced and plain["correct"] and traced["correct"]
              and plain_fails == traced_fails,
              f"{workload}: traced and untraced outcomes agree {traced_fails}", failures)
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                            if v["unit"] not in NON_COUNT_UNITS}
        check(traced and again and counts(traced) == counts(again),
              f"{workload}: counters repeat exactly for one seed", failures)

    bare = run.BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc, result, _ = benchmark("law-build", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and result is None and '"metrics"' not in proc.stdout,
          f"without sources: exit {proc.returncode}, no result", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["tuple-witness"]))
