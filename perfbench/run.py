#!/usr/bin/env python3
"""The gkhopf benchmark: seeded workloads, end-to-end metrics, traced run.

One workload, as the last line a JSON result:

    python3 perfbench/run.py --workload primitive-scan --seed 1 --seconds 25 --trace 0

All four workloads, each in its own fresh interpreter, one after another:

    python3 perfbench/run.py --seed 1 --seconds 25 [--trace 1]

Run from the root of a checkout; the program is imported from ``src/``.
Load comes from one process and one thread in a closed loop: a task starts
only after the previous one returned.

End-to-end metrics (``--trace 0``):

- ``setup_s``: import ``gkhopf``, build what the workload reuses and finish
  one untimed warm-up task; the median of seven set-ups, six of them in
  fresh child interpreters pinned to each CPU in turn, three before the
  timed loop and three after it.
- ``task_ms_p50`` and ``task_ms_tail`` (the workload's fixed tail
  percentile, printed with the number of executed tasks beyond it) over
  every execution in the whole cycles completed, and ``tasks_per_s``, the
  cycle length over the sum of each task's median latency.
- ``peak_rss_mb``: peak resident set size of the workload's process.

A workload is a cycle of tasks that repeats, with the same inputs, for
``--seconds``.  Every time is scaled to a fixed machine speed: a shared
virtual machine runs up to 1.9x slower for anything from a fraction of a
second to minutes, so a fixed pure-Python reference computation runs before
the first task, after every task and around every set-up, and each time is
multiplied by ``REFERENCE_S`` over the mean of the reference times just
before and after it (see ``reference.py``).  The plain wall-clock rate and
median are printed beside them.

``failed_frac`` (tasks that raised or whose output disagreed with a pinned
or oracle value, over tasks attempted) is printed too; in the JSON line it
is ``failed`` over ``attempted``.

``--trace 1`` runs half the time untraced and half traced, prints every
per-layer metric (see ``spans.py``) and writes the spans to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
SETUP_REFS = 5
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from reference import REFERENCE_S, local_speed, time_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, write_files  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_ms_p50": "ms",
                    "task_ms_tail": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    git = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git": git}


def import_program():
    sys.path.insert(0, str(SRC))
    import gkhopf

    if not Path(gkhopf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported gkhopf from {gkhopf.__file__}, not from {SRC}")
    return gkhopf


def set_up(workload, tasks, workdir) -> tuple[object, float]:
    """The set-up and its time, scaled to the reference speed by the mean
    of the reference times just before and after it."""
    refs = [time_reference() for _ in range(SETUP_REFS)]
    started = time.perf_counter()
    import_program()
    state = workload.setup(tasks, workdir)
    workload.run(state, tasks[0])
    seconds = time.perf_counter() - started
    refs += [time_reference() for _ in range(SETUP_REFS)]
    return state, seconds * REFERENCE_S / statistics.fmean(refs)


def probe_setup(args, workdir: Path, cpu: int) -> float:
    """One set-up in a fresh child interpreter pinned to ``cpu``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, state, tasks, seconds: float, tracer: Tracer | None = None,
            whole_cycles: bool = False) -> dict:
    """Closed loop over the cycle of tasks for ``seconds``, and at least one
    whole cycle; with ``whole_cycles`` it also ends on a cycle boundary.

    The reference runs before the first task and after every task, and each
    latency is scaled to the reference speed by the reference times just
    before and after it (see ``reference.py``).
    Each cycle runs pinned to the next allowed CPU in turn, so that every
    task has executions on each CPU and its reference runs where it ran.
    """
    cycle = len(tasks)
    cpus = sorted(os.sched_getaffinity(0))
    latencies: list[float] = []
    refs = [time_reference()]
    failures: list[str] = []
    report_bytes = 0
    i = 0
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and i >= cycle and (not whole_cycles or i % cycle == 0):
                break
            if i % cycle == 0:
                os.sched_setaffinity(0, {cpus[i // cycle % len(cpus)]})
            task = tasks[i % cycle]
            workload.prepare(state, task)
            if tracer is not None:
                tracer.task = i
            t0 = time.perf_counter()
            try:
                output = workload.run(state, task)
            except Exception as exc:  # a task that raises counts as failed
                latencies.append(time.perf_counter() - t0)
                failures.append(f"task {i}: {type(exc).__name__}: {exc}")
            else:
                latencies.append(time.perf_counter() - t0)
                problem = workload.check(task, output)
                if problem is not None:
                    failures.append(f"task {i}: {problem}")
                report_bytes += workload.report_bytes(output)
            refs.append(time_reference())
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    cycles = i // cycle
    n = cycles * cycle
    scaled = [lat * speed for lat, speed in zip(latencies[:n], local_speed(refs)[:n])]
    typical = [statistics.median(scaled[j::cycle]) for j in range(cycle)]
    return {"attempted": i, "failures": failures, "cycles": cycles, "scaled": scaled,
            "tasks_per_s": cycle / sum(typical), "report_bytes": report_bytes,
            "wall_tasks_per_s": n / sum(latencies[:n]), "wall_p50": statistics.median(latencies[:n]),
            "reference_s": statistics.median(refs)}


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, run: dict, setups: list[float]) -> dict:
    scaled, cycles = run["scaled"], run["cycles"]
    tail_s, beyond = tail(scaled, workload.tail_percentile)
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": run["tasks_per_s"],
        "task_ms_p50": 1000 * statistics.median(scaled),
        "task_ms_tail": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"reference      {1000 * run['reference_s']:.3f} ms median here, "
          f"times below scaled to {1000 * REFERENCE_S:g} ms")
    print(f"setup_s        {values['setup_s']:.4f} s  (median of {len(setups)} set-ups)")
    print(f"tasks_per_s    {values['tasks_per_s']:.3f} 1/s  (cycle of {len(scaled) // cycles} tasks, "
          f"median of {cycles} executions each; wall clock {run['wall_tasks_per_s']:.3f} 1/s)")
    print(f"task_ms_p50    {values['task_ms_p50']:.3f} ms  (wall clock {1000 * run['wall_p50']:.3f} ms)")
    print(f"task_ms_tail   {values['task_ms_tail']:.3f} ms  (p{workload.tail_percentile:g}, "
          f"{beyond} of {len(scaled)} executed tasks beyond it)")
    if beyond < 10:
        print(f"warning: fewer than ten executed tasks beyond p{workload.tail_percentile:g}")
    print(f"peak_rss_mb    {values['peak_rss_mb']:.1f} MB")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(workload, state, tasks, args) -> dict:
    half = args.seconds / 2
    plain = measure(workload, state, tasks, half)
    tracer = Tracer()
    missing = tracer.install()
    try:
        run = measure(workload, state, tasks, half, tracer, whole_cycles=True)
    finally:
        tracer.uninstall()
    if missing:
        print(f"not found, reads 0: {', '.join(missing)}")
    overhead = run["tasks_per_s"] - plain["tasks_per_s"]
    metrics = tracer.layer_metrics(run["attempted"], run["report_bytes"], overhead)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    prefix = OUT / f"spans-{workload.name}-seed{args.seed}"
    tracer.write(prefix, {"workload": workload.name, "seed": args.seed, "tasks": run["attempted"],
                          "environment": environment()})
    print(f"spans written to {prefix.relative_to(ROOT)}.json and .f64")
    run["attempted"] += plain["attempted"]
    run["failures"] = plain["failures"] + run["failures"]
    return {"run": run, "metrics": metrics}


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    tasks = workload.inputs(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if "file" in tasks[0]:
            write_files(tasks, workdir)
        cpus = sorted(os.sched_getaffinity(0))
        probes = range(SETUP_SAMPLES - 1)

        def set_ups(half):
            return [probe_setup(args, workdir, cpus[k % len(cpus)]) for k in half]

        # half the set-up probes run before the timed loop and half after it,
        # so that their median spans the run rather than one moment
        setups = [] if args.trace else set_ups(probes[:len(probes) // 2])
        state, own = set_up(workload, tasks, workdir)
        setups.append(own)
        if args.trace:
            result = traced(workload, state, tasks, args)
            run, metrics = result["run"], result["metrics"]
        else:
            run = measure(workload, state, tasks, args.seconds)
            metrics = end_to_end(workload, run, setups + set_ups(probes[len(probes) // 2:]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(run["failures"])
    print(f"failed_frac    {failed / run['attempted']:.6g}  ({failed} of {run['attempted']} tasks)")
    for line in run["failures"][:5]:
        print(f"failed: {line}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own interpreter, one at a time."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 2 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, each in its own interpreter)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gkhopf" / "__init__.py").is_file():
        print(f"error: {SRC / 'gkhopf'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = WORKLOADS[args.workload]
        _, seconds = set_up(workload, workload.inputs(args.seed), Path(args.setup_probe))
        print(json.dumps({"setup_s": seconds}))
        return 0
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.workload is None:
        return run_all(args)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
