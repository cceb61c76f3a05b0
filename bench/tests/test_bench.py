"""Tests of the benchmark itself: seeded inputs, tracing transparency, checkers.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import metrics
import oracles
import tracer
import worker
import workloads
from conftest import BENCH, ROOT

ALL = sorted(workloads.WORKLOADS)


def _sizes(argv):
    return [int(argv[i + 1]) for i, flag in enumerate(argv) if flag in ("--e", "--m", "--max-index")]


def _case_lines(case):
    p, f, regime, size = case
    if regime == "charp":
        return oracles.model_lines(p, f, None, True, size)
    return oracles.model_lines(p, f, size, regime == "zeta", None)


def _small_report_ops(seed, limit, count):
    return [a for a in workloads.ReportScaling().make_ops(seed) if max(_sizes(a)) <= limit][:count]


@pytest.mark.parametrize("name", ALL)
def test_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]()
    assert w.make_ops(7) == w.make_ops(7)
    assert w.make_ops(7) != w.make_ops(8)


def test_report_scaling_sizes_are_stratified():
    ops = workloads.ReportScaling().make_ops(3)
    assert len(ops) == 54 * workloads.ReportScaling.STRATA
    sizes = [max(_sizes(a)) for a in ops]
    assert max(sizes) <= 800 and min(sizes) >= 1
    assert sum(s > 400 for s in sizes) >= len(ops) // 10  # the share that sets op_p90_ms


def test_oracle_grid_size_multiset_is_seed_independent():
    w = workloads.OracleGrid()

    assert sorted(map(_case_lines, w.make_ops(1))) == sorted(map(_case_lines, w.make_ops(2)))
    assert len(w.make_ops(1)) >= 100


def _traced(fn):
    spans = tracer.Tracer()
    spans.install()
    try:
        return fn(), spans
    finally:
        spans.uninstall()


def test_traced_ops_print_identical_bytes():
    small = _small_report_ops(5, 40, 40)
    plain = [workloads._run_cli(a) for a in small]
    traced, spans = _traced(lambda: [workloads._run_cli(a) for a in small])
    assert traced == plain
    assert "cli.run" in spans.names and len(spans.start) > len(small)
    import ramify.cli

    assert not hasattr(ramify.cli.run, "__wrapped__")  # uninstall restored the originals


def test_traced_driver_prints_identical_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv, _ in workloads.GOLDEN:
        plain = subprocess.run([sys.executable, os.path.join(BENCH, "cli_main.py"), *argv],
                               capture_output=True, env=env, timeout=60)
        spans = tmp_path / "spans.json"
        traced = subprocess.run([sys.executable, os.path.join(BENCH, "cli_main_traced.py"), str(spans), *argv],
                                capture_output=True, env=env, timeout=60)
        assert (traced.returncode, traced.stdout, traced.stderr) == (plain.returncode, plain.stdout, plain.stderr)
        summary = tracer.summarize([str(spans)])
        assert summary["calls"]["cli.run"] == 1
        assert summary["calls"]["breaks.b_upper"] > 0


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    with spans.span("outer"):
        with spans.span("inner"):
            sum(range(10000))
    path = os.path.join(BENCH, ".out", "test-spans.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    spans.dump(path)
    summary = tracer.summarize([path])
    os.remove(path)
    outer = summary["total_ns"]["outer"]
    assert summary["self_ns"]["outer"] == outer - summary["total_ns"]["inner"]
    assert summary["calls"] == {"outer": 1, "inner": 1}


def test_latency_is_each_ops_median_over_passes():
    # three passes of two ops; one pause hits op 0 in the second pass
    latency_ns = [10, 100, 90, 102, 11, 98]
    assert metrics.op_medians_ns(latency_ns, 2) == [11, 100]
    result = {"log": {"latency_ns": latency_ns}, "ops_per_pass": 2, "walls_ns": [110, 192, 109],
              "peak_rss_kib": 1024}
    values = metrics.end_to_end(result, [0.5, 0.7, 0.6])
    assert values["wall_s"]["value"] == 111 / 1e9
    assert values["setup_s"]["value"] == 0.6


def test_brute_force_counts_computed_lines():
    import ramify

    params = ramify.FieldParams(p=3, f=1, e=2, zeta_in_field=True)
    _, spans = _traced(lambda: ramify.brute_force_mass(params))
    assert spans.counters["mass.lines_enumerated"] == (3**4 - 1) // 2


def _smoke(w, ops):
    w.prepare(1)
    log = worker.new_log()
    worker.run_pass(w, ops, None, log)
    return log


def test_smoke_report_scaling():
    w = workloads.ReportScaling()
    ops = _small_report_ops(2, 30, 30)
    log = _smoke(w, ops)
    assert (log["attempted"], log["error"], log["wrong"]) == (len(ops), 0, 0)


def test_smoke_oracle_grid():
    w = workloads.OracleGrid()
    ops = [c for c in w.make_ops(2) if _case_lines(c) <= 2000][:12]
    assert ops
    log = _smoke(w, ops)
    assert (log["attempted"], log["error"], log["wrong"]) == (len(ops), 0, 0)


def test_smoke_cli_cold():
    w = workloads.CliCold()
    all_ops = w.make_ops(2)
    ops = [o for o in all_ops if o[1] == "golden"][:1] + [o for o in all_ops if o[1] == "valid"][:2] \
        + [o for o in all_ops if o[1] == "invalid"][:2]
    log = _smoke(w, ops)
    assert (log["attempted"], log["error"], log["wrong"]) == (5, 0, 0)


def test_smoke_verify_battery():
    w = workloads.VerifyBattery()
    log = _smoke(w, ["breaks.c_truncation_counts", "mass.average_consistency"])
    assert (log["attempted"], log["error"], log["wrong"]) == (2, 0, 0)


def test_every_invalid_template_is_rejected_cleanly():
    import random

    w = workloads.CliCold()
    w.prepare(1)
    rng = random.Random(0)
    for make in workloads.INVALID:
        op = (make(rng), "invalid", None)
        assert w.check(op, w.execute(op, None)) is None, op


def test_checkers_catch_wrong_output():
    argv = ["report", "--p", "3", "--e", "2", "--zeta", "in", "--format", "json"]
    code, out, err, exc = workloads._run_cli(argv)
    assert oracles.check_output(argv, out) is None
    assert oracles.check_output(argv, out.replace('"num": "13"', '"num": "14"', 1)) is not None
    text_argv = argv[:-1] + ["text"]
    text = workloads._run_cli(text_argv)[1]
    assert oracles.check_output(text_argv, text) is None
    assert oracles.check_output(text_argv, text.replace("lower breaks: -1, 1, 4", "lower breaks: -1, 1, 5")) is not None
    assert oracles.check_invalid(0, "", "") is not None
    assert oracles.check_invalid(1, "", "usage: x\nramify: error: y\n") is not None
    assert oracles.check_invalid(1, "", "error: p must be a prime\n") is None


def test_known_digit_limit_defect_counts_as_failure():
    w = workloads.ReportScaling()
    argv = ["mass", "--p", "5", "--f", "2", "--e", "800", "--zeta", "out", "--format", "json"]
    kind, reason = w.check(argv, w.execute(argv, None))
    assert kind == "error" and "4300" in reason


def test_closed_forms_match_small_enumeration():
    assert [oracles.b_lower(i, 3, 3) for i in (1, 2, 3)] == [1, 4, 22]
    assert oracles.mass_char0(3, 1, 2, True) == oracles.Fraction(13, 27)
    assert oracles.mass_char_p(2, 3) == 2


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    declared = sorted(w["name"] for w in spec["workloads"])
    assert declared == sorted(set(ALL) - {"oracle_grid"})


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
