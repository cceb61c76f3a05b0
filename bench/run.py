"""Run the ramify benchmark from the root of a checkout.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One workload per call, or every workload in turn when --workload is left
out. Each run starts fresh worker processes (see worker.py): several that
only set up, to time set-up, then one that sets up and measures. With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced pass. The line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import metrics
import tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")
SETUP_REPEATS = 8
IMPORT_REPEATS = 5
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(argv: list[str], deadline: float):
    """Start a worker; return it and its set-up time (start to its "ready" line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
                            stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError("worker failed during set-up")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for a worker and return the rest of its stdout; kill it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure_imports() -> dict:
    texts = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ramify.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=worker_env(), timeout=60)
        if proc.returncode != 0:
            raise BenchError("import ramify.cli failed")
        texts.append(proc.stderr)
    return metrics.import_times_ms(texts)


def source_state() -> dict:
    """Commit when the checkout is a git work tree; always a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    span_dir = os.path.join(OUT_DIR, "spans", f"{name}-seed{seed}")
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        argv += ["--span-dir", span_dir]
    else:
        for _ in range(SETUP_REPEATS):
            proc, setup_s = start_worker(argv + ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup_s)
    proc, setup_s = start_worker(argv, deadline)
    setups.append(setup_s)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    logs = [result["log"]] + ([result["traced_log"]] if trace else [])
    if trace:
        summary = tracer.summarize(result["span_files"])
        values = metrics.per_layer(summary, measure_imports(), result)
    else:
        values = metrics.end_to_end(result, setups)
    report = {
        "workload": name,
        "correct": all(log["wrong"] == 0 for log in logs),
        "attempted": sum(log["attempted"] for log in logs),
        "failed": sum(log["error"] + log["wrong"] for log in logs),
        "metrics": values,
        "env": {**result["env"], **source_state(), "seconds": seconds, "trace": trace},
        "passes": len(result["walls_ns"]),
        "ops_per_pass": result["ops_per_pass"],
        "setups_s": setups,
        "failure_reasons": {k: sum(log["reasons"].get(k, 0) for log in logs)
                            for log in logs for k in log["reasons"]},
    }
    if trace:
        report["traced_wall_s"] = (result["traced_wall_ns"] + result["traced_extra_ns"]) / 1e9
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}: {report['passes']} pass(es) of {report['ops_per_pass']} ops")
    traced_ms = report.get("traced_wall_s", 0) * 1e3
    for metric, value in report["metrics"].items():
        share = ""
        if traced_ms and value["unit"] == "ms" and not metric.startswith("import."):
            share = f"  ({value['value'] / traced_ms:6.1%} of traced wall)"
        print(f"  {metric:48s} {value['value']:>16.6g} {value['unit']}{share}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_ratio':48s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} ops attempted)")
    for reason, count in sorted(report["failure_reasons"].items()):
        print(f"    {count:6d} x {reason}")
    print("  env " + json.dumps(report["env"], sort_keys=True))


def result_line(report: dict) -> str:
    return json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ramify", "__init__.py")):
        print("bench: no ramify sources under src/ramify; run from a full checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        print(result_line(reports[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
