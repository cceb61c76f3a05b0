"""One benchmark process: set up a workload, run its passes, report as JSON.

Protocol on stdout: the line "ready" once set-up is done (the caller times
process start to this line as set-up time), then, unless --setup-only, one
JSON line with the run's raw measurements. Nothing else is written to
stdout; the program's own output is captured per op.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 [--setup-only] [--span-dir DIR]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

from workloads import WORKLOADS


def run_pass(workload, ops, tracer, log: dict) -> int:
    """Run every op once; returns the pass's wall time in ns (op time only).

    The checker runs between ops, outside the timed region.
    """
    wall = 0
    for op in ops:
        gc.collect()  # so an op's time does not depend on the garbage of the ops before it
        t0 = time.perf_counter_ns()
        result = workload.execute(op, tracer)
        dt = time.perf_counter_ns() - t0
        wall += dt
        log["latency_ns"].append(dt)
        log["out_bytes"] += workload.out_bytes(result)
        failure = workload.check(op, result)
        log["attempted"] += 1
        if failure is not None:
            kind, reason = failure
            log[kind] += 1
            key = f"{kind}: {reason[:120]}"
            log["reasons"][key] = log["reasons"].get(key, 0) + 1
    return wall


def peak_rss_kib(children: bool) -> int:
    """Peak resident set of this process, or of the largest child it waited for.

    For this process it reads VmHWM: on Linux ru_maxrss also keeps the peak
    of the address space an exec replaced, which here is the parent's. A
    child's ru_maxrss has the same floor, the worker's size when it started
    the child, which is below the size of a child that imports ramify.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def new_log() -> dict:
    return {"latency_ns": [], "out_bytes": 0, "attempted": 0, "error": 0, "wrong": 0, "reasons": {}}


def environment(seed: int) -> dict:
    import ramify

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "PYTHONPATH": os.environ.get("PYTHONPATH", ""),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "ramify_file": ramify.__file__,
        "platform": platform.platform(),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--span-dir")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]()
    ops = workload.prepare(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    log = new_log()
    walls = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        walls.append(run_pass(workload, ops, None, log))
        pass_elapsed = time.perf_counter() - pass_start
        if args.trace:
            break
        # Start another pass only if it should end within --seconds, unless
        # the run still has too few ops for its p90.
        if (time.perf_counter() - start + pass_elapsed > args.seconds
                and len(log["latency_ns"]) >= workload.min_ops):
            break
    result = {"walls_ns": walls, "log": log, "env": environment(args.seed), "ops_per_pass": len(ops)}

    if args.trace:
        import tracer

        spans = tracer.Tracer(child_dir=args.span_dir)
        spans.install()
        traced_log = new_log()
        result["traced_wall_ns"] = run_pass(workload, ops, spans, traced_log)
        result["traced_extra_ns"] = run_pass(workload, workload.trace_extra_ops, spans, traced_log)
        spans.uninstall()
        path = os.path.join(args.span_dir, "worker.json")
        spans.dump(path)
        result["span_files"] = [path] + spans.child_paths
        result["traced_log"] = traced_log

    result["peak_rss_kib"] = peak_rss_kib(workload.rss_of_children)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
