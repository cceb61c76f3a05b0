import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import ramify.verify
from ramify.cli import _build_parser, _digit_column, _json, run
from ramify.filtration import FieldParams
from ramify.mass import cyclic_mass

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    (
        ["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out",
         "--format", "json"],
        "report_p3_e1_f1_regular.json",
    ),
    (
        ["report", "--p", "3", "--e", "2", "--f", "1", "--char", "0", "--zeta", "in",
         "--format", "json"],
        "report_p3_e2_f1_zeta.json",
    ),
    (
        ["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8", "--m", "5",
         "--format", "json"],
        "report_p3_f1_charp.json",
    ),
    (
        ["herbrand", "--p", "3", "--e", "2", "--f", "1", "--zeta", "out", "--format", "json"],
        "herbrand_p3_e2_f1_regular.json",
    ),
    (
        ["herbrand", "--p", "3", "--e", "2", "--f", "1", "--zeta", "in", "--format", "json"],
        "herbrand_p3_e2_f1_zeta.json",
    ),
    (
        ["herbrand", "--p", "3", "--f", "1", "--char", "p", "--m", "5", "--format", "json"],
        "herbrand_p3_f1_charp_m5.json",
    ),
    (
        ["breaks", "--p", "3", "--f", "2", "--e", "12", "--format", "json"],
        "breaks_p3_f2_e12.json",
    ),
    # Characteristic p without --m: no lower breaks, the space model follows --max-index.
    (
        ["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8"],
        "report_p3_f1_charp_nom.txt",
    ),
    (
        ["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8", "--format", "json"],
        "report_p3_f1_charp_nom.json",
    ),
    (
        ["report", "--p", "5", "--f", "2", "--e", "4", "--zeta", "out"],
        "report_p5_e4_f2_regular.txt",
    ),
    (["report", "--p", "3", "--e", "2", "--zeta", "in"], "report_p3_e2_f1_zeta.txt"),
    (["mass", "--p", "2", "--f", "3", "--char", "p"], "mass_p2_f3_charp.txt"),
    (["breaks", "--p", "5", "--e", "6"], "breaks_p5_f1_e6.txt"),
    (["herbrand", "--p", "3", "--e", "2", "--zeta", "out"], "herbrand_p3_e2_f1_regular.txt"),
    # --m above the shown level: upper breaks to level 5, lower breaks and the
    # space model (dim 11) at level 9.
    (
        ["report", "--p", "2", "--f", "2", "--char", "p", "--max-index", "3", "--m", "9"],
        "report_p2_f2_charp_m9.txt",
    ),
    (
        ["report", "--p", "2", "--f", "2", "--char", "p", "--max-index", "3", "--m", "9",
         "--format", "json"],
        "report_p2_f2_charp_m9.json",
    ),
]


@pytest.mark.parametrize("argv,fixture", GOLDEN_CASES)
def test_report_matches_golden_file(argv, fixture):
    code, out, err = _run(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / fixture).read_text()


def _regime_flags(regime, size):
    """--p/--e/--m flags of one regime; `size` is e, or m and --max-index."""
    if regime == "regular":
        return ["--p", "3", "--f", "2", "--e", str(size), "--zeta", "out"]
    if regime == "zeta":
        return ["--p", "2", "--f", "2", "--e", str(size), "--zeta", "in"]
    return ["--p", "3", "--f", "2", "--char", "p", "--m", str(size), "--max-index", str(size)]


SCHEMA_ARGVS = [
    ["breaks", "--p", "3", "--f", "2", "--e", str(size)] for size in (1, 2, 37, 200)
] + [
    [sub, *_regime_flags(regime, size)]
    for sub in ("report", "herbrand", "mass")
    for regime in ("regular", "zeta", "charp")
    for size in (1, 2, 37, 200)
] + [
    # p = 5, f = 2 near the 4300-digit limit, where the mass rows have the most digits.
    [sub, "--p", "5", "--f", "2", *flags]
    for sub in ("report", "mass")
    for flags in (
        ["--e", "760", "--zeta", "out"],
        ["--e", "760", "--zeta", "in"],
        ["--char", "p", "--m", "700", "--max-index", "700"],
    )
]


@pytest.mark.parametrize("argv", SCHEMA_ARGVS, ids=" ".join)
def test_json_writer_matches_stdlib_on_documents(argv):
    code, out, err = _run(argv + ["--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert _json(doc) == json.dumps(doc, indent=2) == out[:-1]


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        None,
        [True, False, None, 0, -7, ""],
        {"empty": [], "nested": {"inner": {}, "list": [[], [1, [2]]]}},
        "a\"b\\é",
        {"a\"b\\é": ["\n\t\u2028", 10**50]},
    ],
)
def test_json_writer_matches_stdlib_on_hand_made_documents(doc):
    assert _json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("sub", ["report", "mass"])
@pytest.mark.parametrize(
    "flags,params",
    [
        (["--e", "760", "--zeta", "out"], FieldParams(p=5, f=2, e=760, zeta_in_field=False)),
        (["--e", "760", "--zeta", "in"], FieldParams(p=5, f=2, e=760, zeta_in_field=True)),
        (["--char", "p", "--m", "700", "--max-index", "700"],
         FieldParams(p=5, f=2, characteristic=5)),
        # The last row's denominator has exactly 4300 digits, the most the limit allows.
        (["--char", "p", "--m", "769", "--max-index", "769"],
         FieldParams(p=5, f=2, characteristic=5)),
    ],
    ids=["e760 zeta out", "e760 zeta in", "char p m700", "char p m769"],
)
def test_text_mass_rows_equal_str_of_the_rows(sub, flags, params):
    code, out, err = _run([sub, "--p", "5", "--f", "2", *flags])
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if line.startswith("  break ")]
    display_rows = int(flags[-1]) if params.characteristic else 16
    expected = [
        f"  break {b} (i = {i}): {str(count)} extensions, "
        f"contribution {str(c.numerator)}/{str(c.denominator)}"
        for i, b, count, c in cyclic_mass(params, display_rows=display_rows).per_break
    ]
    assert rows == expected


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_digit_column_equals_str_past_10000_digits(no_digit_limit):
    rows = cyclic_mass(FieldParams(p=5, f=2, e=1900, zeta_in_field=False)).per_break[-100:]
    columns = [
        [count for _, _, count, _ in rows],
        [c.denominator for _, _, _, c in rows],
        # Small values, zeros and values that are no multiple of the one before
        # go through str(); big negative chains keep a twin too.
        [0, 5, 5, 10, 3, -6, -12, 0, 7**13000, 7**13001, 7**13001 + 1, 1,
         -(7**13000), -(7**13002)],
    ]
    assert len(str(columns[1][-1])) > 10_000
    for values in columns:
        assert _digit_column(values) == [str(v) for v in values]


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "int key"}])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json({"x": value})


def test_json_writer_keeps_the_digit_limit_error():
    big = 10**5000
    with pytest.raises(ValueError) as stdlib:
        json.dumps([big], indent=2)
    with pytest.raises(ValueError) as ours:
        _json([big])
    assert str(ours.value) == str(stdlib.value)


def test_parser_is_built_once_and_keeps_no_state():
    assert _build_parser() is _build_parser()
    charp = ["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8"]
    code, out, _ = _run(charp + ["--m", "5"])
    assert code == 0 and "lower breaks: -1, 1, 4, 22, 49\n" in out
    code, out, _ = _run(charp)
    assert code == 0
    assert "lower breaks: (pass --m to pick a finite quotient)\n" in out


def test_reused_parser_gives_the_bytes_of_a_fresh_one():
    argvs = [
        ["breaks", "--p", "5", "--e", "6", "--format", "json"],
        ["mass", "--p", "3", "--f", "1", "--char", "p"],
        ["herbrand", "--p", "3", "--e", "2", "--f", "1", "--zeta", "in"],
        ["breaks", "--p", "2", "--f", "2", "--e", "4"],
        ["mass", "--p", "3", "--e", "2", "--zeta", "out", "--max-index", "3", "--format", "json"],
        ["herbrand", "--p", "3", "--f", "1", "--char", "p", "--m", "5", "--format", "json"],
        ["report", "--p", "3"],
    ]
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(_run(argv))
    assert [_run(argv) for argv in argvs] == fresh


@pytest.mark.parametrize("argv,fixture", GOLDEN_CASES)
def test_report_is_deterministic(argv, fixture):
    assert _run(argv)[1] == _run(argv)[1]


def test_report_regular_json_values():
    code, out, _ = _run(
        ["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["discriminant_exponent"] == 12
    assert doc["mass"]["total"] == {"num": "1", "den": "3"}
    assert doc["params"]["s"] == 2
    assert doc["upper_breaks"] == [-1, 1]


def test_report_json_round_trip():
    _, out, _ = _run(
        ["report", "--p", "3", "--e", "2", "--f", "1", "--char", "0", "--zeta", "in",
         "--format", "json"]
    )
    doc = json.loads(out)
    total = Fraction(int(doc["mass"]["total"]["num"]), int(doc["mass"]["total"]["den"]))
    assert total == Fraction(13, 27)
    assert json.dumps(doc, indent=2) + "\n" == out


def test_report_text_mentions_key_quantities():
    code, out, _ = _run(
        ["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out"]
    )
    assert code == 0
    assert "different exponent: 4" in out
    assert "discriminant exponent: 12" in out
    assert "total = 1/3" in out


def test_report_char_p_without_m_leaves_lower_null():
    code, out, _ = _run(["report", "--p", "2", "--f", "1", "--char", "p", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_breaks"] is None
    assert doc["upper_breaks"][0] == -1


def test_breaks_table():
    code, out, _ = _run(["breaks", "--p", "5", "--e", "6"])
    assert code == 0
    uppers = [int(line.split()[2]) for line in out.splitlines()[2:]]
    assert uppers == [1, 2, 3, 4, 6, 7]


def test_breaks_json():
    code, out, _ = _run(["breaks", "--p", "2", "--f", "2", "--e", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [row["b_upper"] for row in doc["rows"]] == [1, 3, 5, 7]
    assert doc["q"] == 4


def test_mass_char_p_p2_total():
    code, out, _ = _run(["mass", "--p", "2", "--f", "3", "--char", "p", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mass"]["total"] == {"num": "2", "den": "1"}


def test_mass_text_shows_decimal():
    code, out, _ = _run(["mass", "--p", "3", "--f", "1", "--char", "p"])
    assert code == 0
    assert "9/20" in out and "0.45" in out


def test_herbrand_json():
    code, out, _ = _run(
        ["herbrand", "--p", "3", "--e", "2", "--f", "1", "--char", "0", "--zeta", "out",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    xs = [bp["x"] for bp in doc["psi"]["breakpoints"]]
    ys = [bp["y"] for bp in doc["psi"]["breakpoints"]]
    assert xs[-1] == {"num": "2", "den": "1"} and ys[-1] == {"num": "4", "den": "1"}
    assert doc["phi"]["slopes"][-1] == {"num": "1", "den": "9"}


def test_herbrand_char_p_needs_m():
    code, _, err = _run(["herbrand", "--p", "3", "--f", "1", "--char", "p"])
    assert code == 1
    assert "--m" in err or "m" in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["report", "--p", "3", "--f", "1", "--char", "0"], "e must be"),
        (["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0"], "zeta"),
        (["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "in"],
         "(p - 1) | e"),
        (["report", "--p", "2", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out"],
         "zeta"),
        (["report", "--p", "4", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out"],
         "prime"),
        (["report", "--p", "3", "--e", "2", "--f", "1", "--char", "p"], "undefined"),
        (["report", "--p", "3", "--f", "1", "--char", "p", "--zeta", "out"], "convention"),
        (["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out",
          "--m", "4"], "characteristic p"),
        (["report", "--p", "3", "--f", "1", "--char", "p", "--m", "0"],
         "positive truncation index"),
        (["herbrand", "--p", "3", "--f", "1", "--char", "p", "--m", "0"],
         "positive truncation index"),
        (["breaks", "--p", "3", "--f", "0", "--e", "2"], "f must be a positive integer"),
        (["breaks", "--p", "3", "--f", "-2", "--e", "2"], "f must be a positive integer"),
        (["breaks", "--p", "3", "--e", "0"], "need at least one break index"),
        (["mass", "--p", "3", "--char", "p", "--max-index", "0"], "display row"),
    ],
)
def test_validation_errors_exit_1_with_diagnostic(argv, needle):
    code, out, err = _run(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mass", "--p", "101", "--char", "p"],
        ["mass", "--p", "5", "--f", "2", "--e", "800", "--zeta", "in"],
        ["breaks", "--p", "5", "--f", "2", "--e", "3100"],
    ],
    ids=" ".join,
)
def test_failing_command_leaves_stdout_empty(argv):
    # Each fails on an integer past the interpreter's 4300-digit limit, after
    # thousands of rows were already rendered.
    code, out, err = _run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _digit_limit_message():
    with pytest.raises(ValueError) as exc:
        str(25**3200)
    return str(exc.value)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mass", "--p", "5", "--f", "2", "--char", "p", "--max-index", "770"],
        ["mass", "--p", "5", "--f", "2", "--e", "797", "--zeta", "out"],
        ["report", "--p", "5", "--f", "2", "--e", "800", "--zeta", "in"],
    ],
    ids=" ".join,
)
def test_row_past_the_digit_limit_fails_with_the_interpreters_message(argv, fmt):
    code, out, err = _run(argv + ["--format", fmt])
    assert code == 1 and out == ""
    assert err == "error: " + _digit_limit_message() + "\n"


def test_usage_error_exits_nonzero():
    code, _, _ = _run(["report"])  # missing required --p
    assert code == 1


def test_verify_subcommand_passes(monkeypatch):
    # The real checks run once each in test_acceptance.py; this covers the plumbing.
    stubs = [("sentinel.first", lambda: None), ("sentinel.second", lambda: None)]
    monkeypatch.setattr(ramify.verify, "CHECKS", stubs)
    code, out, _ = _run(["verify"])
    assert code == 0
    assert out.splitlines() == ["PASS sentinel.first", "PASS sentinel.second"]


def test_verify_subcommand_reports_failure(monkeypatch):
    def bad_check():
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(ramify.verify, "CHECKS", [("sentinel.failing", bad_check)])
    code, out, _ = _run(["verify"])
    assert code == 2
    assert "FAIL sentinel.failing" in out
    assert "deliberately broken" in out


@pytest.mark.parametrize("module", ["ramify", "ramify.cli"])
def test_python_dash_m_runs_the_cli(module):
    argv = ["breaks", "--p", "5", "--e", "6"]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == _run(argv)[1]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_pipe_exits_1_without_traceback(fmt, unbuffered):
    # The report is at least 230 kB, far more than a pipe buffers, so the
    # writer is still writing when the reader goes away. PYTHONUNBUFFERED=1
    # (python -u) must not turn the lost output into exit 0.
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = ["report", "--p", "3", "--e", "400", "--zeta", "out", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramify", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first_line = b"field parameters\n" if fmt == "text" else b"{\n"
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
