"""The benchmark's own op checker, run on the seed-1 op lists of two workloads.

A benchmark run counts the ops that fail its checker, so a change that fails
one more op than its parent shows up here first. `bench/workloads.py` is
imported as it is, through `sys.path`; nothing under `bench/` is written.

The only ops allowed to fail are those past the interpreter's 4300-digit
limit for int-to-str conversion: `report` and `mass` at p = 5, f = 2 with
e >= 769, where the total or its fraction of Serre's total has a
denominator past 4300 digits.

The seed-1 report_scaling ops also pin the bytes: the stdout of every op
that exits 0 must hash to the digest recorded before the CLI printed its
big columns from the walks' ints, when it printed str() of every value.
"""

import hashlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

pytestmark = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the failing ops are those past the default 4300-digit limit",
)


def _near_digit_limit(argv, size):
    """A report or mass op at p = 5, f = 2 whose e, or --max-index, is at least size."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] not in ("report", "mass") or (flags["--p"], flags["--f"]) != ("5", "2"):
        return False
    return int(flags.get("--e") or flags["--max-index"]) >= size


def _past_digit_limit(argv):
    return _near_digit_limit(argv, 769) and "--e" in argv


# sha1 over the stdout of each seed-1 report_scaling op that exits 0, in op order.
SEED_1_STDOUT_SHA1 = "082ed58920990fc8d3d863cfb1089ea0b9bb8a08"


def _assert_fail_only_past_the_digit_limit(scaling, ops):
    """Run the ops through the benchmark's checker; return the sha1 of the
    stdout of those that exit 0, in op order."""
    failed = {}
    digest = hashlib.sha1()
    for argv in ops:
        result = scaling.execute(argv, None)
        failure = scaling.check(argv, result)
        if failure is not None:
            failed[tuple(argv)] = failure
        if result[0] == 0:
            digest.update(result[1].encode())
    assert sorted(failed) == sorted(tuple(argv) for argv in ops if _past_digit_limit(argv))
    assert all(kind == "error" and "Exceeds the limit" in reason for kind, reason in failed.values())
    return digest.hexdigest()


def test_report_scaling_fails_only_past_the_digit_limit():
    scaling = workloads.ReportScaling()
    digest = _assert_fail_only_past_the_digit_limit(scaling, scaling.make_ops(1))
    assert digest == SEED_1_STDOUT_SHA1


def test_report_scaling_near_the_digit_limit_fails_only_in_characteristic_0():
    # Seeds 1-20 draw 19 such ops; the characteristic-p ones past 4300
    # digits (such as --max-index 789 at seed 19) print in full and pass.
    scaling = workloads.ReportScaling()
    ops = [
        argv
        for seed in range(1, 21)
        for argv in scaling.make_ops(seed)
        if _near_digit_limit(argv, 740)
    ]
    assert len(ops) == 19
    _assert_fail_only_past_the_digit_limit(scaling, ops)


def test_cli_cold_ops_pass_in_process():
    # CliCold.execute starts an interpreter per op; here each op runs through
    # `ramify.cli.run` in process, as report_scaling's ops do.
    cold = workloads.CliCold()
    golden = pathlib.Path(workloads.GOLDEN_DIR)
    cold.golden = {name: (golden / name).read_text(encoding="utf-8") for _, name in workloads.GOLDEN}
    for op in cold.make_ops(1):
        code, out, err, exc = workloads._run_cli(op[0])
        assert exc is None, exc
        assert cold.check(op, (code, out, err)) is None, op
