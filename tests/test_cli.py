import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ramify.cli
import ramify.verify
from ramify.breaks import b_lower, b_upper
from ramify.cli import (
    _build_parser,
    _Digits,
    _index_rows,
    _json,
    _lower_texts,
    _psi_rows,
    _Table,
    _TWIN_BITS,
    run,
)
from ramify.filtration import (
    FieldParams,
    herbrand_psi,
    index_table,
    lower_filtration,
    upper_filtration,
)
from ramify.mass import cyclic_mass
from ramify.verify import _char0_grid

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
    # The mass rows of the level of the first 5 breaks, b_upper(5) = 7.
    (
        ["mass", "--p", "3", "--f", "1", "--char", "p", "--max-index", "5", "--format", "json"],
        "mass_p3_f1_charp_n5.json",
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
    # p = 5, f = 2 near the 4300-digit limit, where the mass rows have the most
    # digits; at m = 800 the last denominators are past it and print in full.
    [sub, "--p", "5", "--f", "2", *flags]
    for sub in ("report", "mass")
    for flags in (
        ["--e", "760", "--zeta", "out"],
        ["--e", "760", "--zeta", "in"],
        ["--char", "p", "--m", "700", "--max-index", "700"],
        ["--char", "p", "--m", "800", "--max-index", "800"],
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


def _table_and_plain(schema, values):
    """A _Table of rows of ints and Fractions, and the lists and dicts that
    json.dumps writes for it: each Fraction as a {"num", "den"} block."""
    rows, plain = [], []
    for row in values:
        slots, fields = [], []
        for (_, kind), v in zip(schema, row):
            if kind is Fraction:
                slots += [v.numerator, v.denominator]
                fields.append({"num": str(v.numerator), "den": str(v.denominator)})
            else:
                slots.append(v)
                fields.append(v)
        rows.append(tuple(slots) if len(slots) > 1 else slots[0])
        keys = [key for key, _ in schema]
        plain.append(fields[0] if keys == [None] else dict(zip(keys, fields)))
    return _Table(schema, rows), plain


TABLES = {
    "empty": ((("x", int),), []),
    "empty bare": (((None, Fraction),), []),
    "bare ints": (((None, int),), [(-1,), (0,), (-(10**40),), (7,)]),
    "bare rationals": (((None, Fraction),), [(Fraction(3),), (Fraction(-5, 7),), (Fraction(0),)]),
    "rows": (
        (("i", int), ("x", Fraction), ("y", Fraction)),
        [(1, Fraction(1), Fraction(-2, 3)), (-2, Fraction(-4), Fraction(10**30, 7))],
    ),
    "one int field": ((('key "%s"', int),), [(-5,), (6,)]),
}


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize(
    "wrap",
    [lambda t: t, lambda t: {"a": t}, lambda t: [[t, 1]], lambda t: {"a": {"b": [t]}, "c": t}],
    ids=["top", "depth 1", "depth 2", "depth 3"],
)
def test_table_leaf_matches_stdlib(name, wrap):
    table, plain = _table_and_plain(*TABLES[name])
    assert _json(wrap(table)) == json.dumps(wrap(plain), indent=2)


@pytest.mark.parametrize("schema,row", [(((None, int),), 10**5000),
                                        ((("x", Fraction),), (1, 10**5000))],
                         ids=["int", "block"])
def test_table_leaf_keeps_the_digit_limit_error(schema, row):
    with pytest.raises(ValueError) as stdlib:
        json.dumps([10**5000], indent=2)
    with pytest.raises(ValueError) as ours:
        _json({"t": _Table(schema, [row])})
    assert str(ours.value) == str(stdlib.value)


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
        # Past it: the mass columns print in full under the default limit.
        (["--char", "p", "--m", "800", "--max-index", "800"],
         FieldParams(p=5, f=2, characteristic=5)),
    ],
    ids=["e760 zeta out", "e760 zeta in", "char p m700", "char p m769", "char p m800"],
)
def test_text_mass_rows_equal_str_of_the_rows(sub, flags, params):
    code, out, err = _run([sub, "--p", "5", "--f", "2", *flags])
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if line.startswith("  break ")]
    # --max-index n shows the rows of the level of the first n breaks.
    level = b_upper(int(flags[-1]), 5) if params.characteristic else None
    with _digit_limit(0):
        expected = [
            f"  break {b} (i = {i}): {str(count)} extensions, "
            f"contribution {str(c.numerator)}/{str(c.denominator)}"
            for i, b, count, c in cyclic_mass(params, level).per_break
        ]
    assert rows == expected


@contextlib.contextmanager
def _digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def no_digit_limit():
    with _digit_limit(0):
        yield


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
        assert list(map(_Digits(), values)) == [str(v) for v in values]


def test_digit_column_prints_a_chain_past_the_default_limit():
    # The chain starts below 4300 digits, so its first value goes through str()
    # under the default limit; the rest are multiples rendered by the twin.
    values = [7**k for k in range(4000, 6001, 50)]
    texts = list(map(_Digits(), values))
    with _digit_limit(0):
        assert len(str(values[-1])) > 5000
        assert texts == [str(v) for v in values]


def _walk_texts(upper):
    """The CLI's texts of psi's values and slopes, of the lower breaks and of
    the index column, each as the list its renderer prints."""
    ys, slopes = [], []
    for hi, y, column in _psi_rows(upper):
        slopes.append(column.text())
        if hi is not None:
            ys.append(y)
    return ys, slopes, list(_lower_texts(upper)), [text for _, _, text in _index_rows(upper)]


def _walk_strs(upper):
    """str() of the same four columns, from the library's own values."""
    psi = herbrand_psi(upper)
    return (
        [str(y) for _, y in psi.breakpoints[1:]],
        [str(s) for s in psi.slopes],
        [str(loc) for loc in lower_filtration(upper).locations],
        [str(index) for _, _, index in index_table(upper)],
    )


WALK_FILTRATIONS = [upper_filtration(params) for params in _char0_grid()] + [
    upper_filtration(FieldParams(p=p, f=f, characteristic=p), m)
    for p in (2, 3, 5)
    for f in (1, 2)
    for m in range(1, 41)
]


def test_walk_columns_equal_str_on_the_grids():
    for upper in WALK_FILTRATIONS:
        assert _walk_texts(upper) == _walk_strs(upper)


@pytest.mark.parametrize(
    "params,level",
    [
        (FieldParams(p=5, f=2, e=800, zeta_in_field=False), None),
        (FieldParams(p=5, f=2, e=800, zeta_in_field=True), None),
        (FieldParams(p=5, f=2, characteristic=5), 800),
        (FieldParams(p=2, f=3, e=900, zeta_in_field=True), None),
    ],
    ids=["e800 zeta out", "e800 zeta in", "char p m800", "p2 f3 e900"],
)
def test_walk_columns_equal_str_along_long_chains(params, level):
    # Values pass _TWIN_BITS after a few dozen rows, so most of each column
    # is printed from its twin, and stays below the 4300-digit limit here.
    upper = upper_filtration(params, level)
    texts = _walk_texts(upper)
    assert max(map(len, texts[0])) > 3 * _TWIN_BITS // 10
    assert texts == _walk_strs(upper)


def test_walk_chain_equals_str_past_10000_digits(no_digit_limit):
    # q = 7^12 gives about 10 digits per row; the last 100 rows are compared.
    upper = upper_filtration(FieldParams(p=7, f=12, e=1100, zeta_in_field=False))
    ys, slopes, _, _ = _walk_texts(upper)
    psi = herbrand_psi(upper)
    assert ys[-100:] == [str(y) for _, y in psi.breakpoints[-100:]]
    assert slopes[-100:] == [str(s) for s in psi.slopes[-100:]]
    assert len(ys[-1]) > 10_000


def _map_texts(xs, ys, slopes):
    """A y column rendered by the second rule of _Digits: y_k against
    y_{k-1} + (x_k - x_{k-1}) * s_{k-1}."""
    y_column, s_column = _Digits(), _Digits()
    texts = []
    for k, (x, y, s) in enumerate(zip(xs, ys, slopes)):
        texts.append(y_column(y, x - xs[k - 1], s_column) if k else y_column(y))
        s_column.advance(s)
    return texts


def _map_column(xs, slopes, y0):
    """The values of the piecewise-linear map through (xs[0], y0) with these slopes."""
    ys = [y0]
    for k in range(1, len(xs)):
        ys.append(ys[-1] + (xs[k] - xs[k - 1]) * slopes[k - 1])
    return ys


BIG = 7**2000  # past _TWIN_BITS, below the 4300-digit limit
XS = [0, 1, 3, 4, 7, 9, 10, 14]
SLOPES = [BIG * 5**k for k in range(len(XS))]

MAP_COLUMNS = {
    "a chain": (XS, SLOPES, _map_column(XS, SLOPES, BIG)),
    "a first value past the threshold": (XS, SLOPES, _map_column(XS, SLOPES, 3 * BIG)),
    "a small start": (XS, SLOPES, _map_column(XS, SLOPES, 0)),
    "a step off the map": (
        XS, SLOPES, [v + (k == 4) for k, v in enumerate(_map_column(XS, SLOPES, BIG))]
    ),
    "a zero rise": ([0, 1, 1, 2, 2], SLOPES[:5], _map_column([0, 1, 1, 2, 2], SLOPES[:5], BIG)),
    "a negative rise": (
        [0, 2, 1, 3, 0], SLOPES[:5], _map_column([0, 2, 1, 3, 0], SLOPES[:5], BIG * 10**9)
    ),
    "small slopes": (XS, [3**k for k in range(8)], _map_column(XS, [3**k for k in range(8)], BIG)),
    "slopes across the threshold": (
        XS, [5, BIG, 7, BIG * 7, BIG * 49, 1, BIG, BIG * 2],
        _map_column(XS, [5, BIG, 7, BIG * 7, BIG * 49, 1, BIG, BIG * 2], BIG),
    ),
    "values across the threshold": (
        XS, SLOPES, [5, BIG, 6, BIG * 2, -BIG, 0, BIG**2, BIG**2 + SLOPES[6] * 4]
    ),
    "negative slopes": (
        XS, [-s for s in SLOPES], _map_column(XS, [-s for s in SLOPES], BIG)
    ),
}


@pytest.mark.parametrize("name", MAP_COLUMNS)
def test_map_rule_falls_back_to_str_off_the_map(name):
    xs, slopes, ys = MAP_COLUMNS[name]
    assert _map_texts(xs, ys, slopes) == [str(y) for y in ys]


PRODUCT_COLUMNS = {
    "a chain": [BIG * 3**k for k in range(8)],
    "a first value past the threshold": [BIG, BIG * 2, BIG * 10],
    "a step that is no multiple": [BIG, BIG * 3, BIG * 3 + 1, BIG * 9 + 3, BIG * 27 + 9],
    "a negative quotient": [BIG, -BIG * 4, BIG * 16, -BIG],
    "values across the threshold": [1, BIG, 0, BIG, 5, BIG * 5, 3, BIG * 15, -2, -BIG * 30],
    "a repeated value": [BIG, BIG, BIG * 2, BIG * 2],
}


@pytest.mark.parametrize("name", PRODUCT_COLUMNS)
def test_product_rule_falls_back_to_str_off_the_chain(name):
    values = PRODUCT_COLUMNS[name]
    assert list(map(_Digits(), values)) == [str(v) for v in values]


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
        (["mass", "--p", "3", "--char", "p", "--max-index", "0"], "positive truncation index"),
        (["breaks", "--p", "3215031751", "--e", "1"], "p must be a prime"),
        (["breaks", "--p", "3317044064679887385961981", "--e", "1"], "p must be below"),
    ],
)
def test_validation_errors_exit_1_with_diagnostic(argv, needle):
    code, out, err = _run(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_breaks_accepts_a_61_bit_prime():
    # Trial division to the square root of 2^61 - 1 would run for minutes.
    start = time.perf_counter()
    code, out, err = _run(["breaks", "--p", str(2**61 - 1), "--e", "1"])
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "") and out.endswith("    1       0          1   1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["mass", "--p", "101", "--char", "p"],
        ["mass", "--p", "5", "--f", "2", "--e", "800", "--zeta", "in"],
    ],
    ids=" ".join,
)
def test_failing_command_leaves_stdout_empty(argv):
    # Each fails on an integer past the interpreter's 4300-digit limit, after
    # thousands of rows were already rendered.
    code, out, err = _run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _block(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _herbrand_by_str(params, fmt):
    """The herbrand output from str() of psi's and phi's Fractions; call it
    with the digit limit lifted."""
    psi = herbrand_psi(upper_filtration(params))
    maps = {"psi": psi, "phi": psi.inverse()}
    if fmt == "json":
        return {
            name: {
                "breakpoints": [{"x": _block(x), "y": _block(y)} for x, y in m.breakpoints],
                "slopes": [_block(s) for s in m.slopes],
            }
            for name, m in maps.items()
        }
    lines = []
    for name, m in zip(("psi (upper -> lower)", "phi (lower -> upper)"), maps.values()):
        pts = ", ".join(f"({x}, {y})" for x, y in m.breakpoints)
        lines += [name, f"  breakpoints: {pts}", f"  slopes: {', '.join(map(str, m.slopes))}"]
    return "\n".join(lines) + "\n"


def _breaks_by_str(p, f, count):
    """The breaks output from str() of the closed form b_lower; call it with
    the digit limit lifted."""
    q = p**f
    rows = [
        f"{i:5d}   {b_upper(i, p) - i:5d}   {b_upper(i, p):8d}   {b_lower(i, p, q)}"
        for i in range(1, count + 1)
    ]
    header = [f"break table for p = {p}, q = {q}", "    i    a(i)    b_upper    b_lower"]
    return "\n".join(header + rows) + "\n"


P5F2_E3200_OUT = FieldParams(p=5, f=2, e=3200, zeta_in_field=False)


PAST_THE_DIGIT_LIMIT = [
    (["breaks", "--p", "5", "--f", "2", "--e", "3100"], lambda: _breaks_by_str(5, 2, 3100)),
    (["herbrand", "--p", "5", "--f", "2", "--e", "3200", "--zeta", "out"],
     lambda: _herbrand_by_str(P5F2_E3200_OUT, "text")),
    (["herbrand", "--p", "5", "--f", "2", "--e", "3200", "--zeta", "out", "--format", "json"],
     lambda: _herbrand_by_str(P5F2_E3200_OUT, "json")),
]


@pytest.mark.parametrize(
    "argv,expected", PAST_THE_DIGIT_LIMIT, ids=[" ".join(argv) for argv, _ in PAST_THE_DIGIT_LIMIT]
)
def test_walk_columns_past_the_digit_limit_print_in_full(argv, expected):
    # Under the default limit; the lower breaks, psi's values and the
    # indices here pass 4300 digits, and no other number is printed.
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    with _digit_limit(0):
        want = expected()
    if isinstance(want, dict):
        doc = json.loads(out)
        assert {name: doc[name] for name in want} == want
        assert len(doc["psi"]["breakpoints"][-1]["y"]["num"]) > 4300
    else:
        assert out == want
        assert max(map(len, out.replace(",", " ").split())) > 4300


def _digit_limit_message():
    with pytest.raises(ValueError) as exc:
        str(25**3200)
    return str(exc.value)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mass", "--p", "5", "--f", "2", "--e", "797", "--zeta", "out"],
        ["report", "--p", "5", "--f", "2", "--e", "800", "--zeta", "in"],
    ],
    ids=" ".join,
)
def test_row_past_the_digit_limit_fails_with_the_interpreters_message(argv, fmt):
    code, out, err = _run(argv + ["--format", fmt])
    assert code == 1 and out == ""
    assert err == "error: " + _digit_limit_message() + "\n"


def test_memory_error_exits_1_with_one_line(monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(ramify.cli, "lower_filtration", exhausted)
    assert _run(["breaks", "--p", "3", "--e", "4"]) == (1, "", "error: out of memory\n")


_ADDRESS_SPACE = 400 << 20  # bytes


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def test_out_of_memory_in_a_real_process_exits_1_without_traceback():
    # Unbounded, this table would need gigabytes. Where the kernel ignores
    # RLIMIT_AS, a 1 GiB mapping (reserved, never touched) succeeds, and the
    # command is not run.
    probe = subprocess.run(
        [sys.executable, "-c", "import mmap; mmap.mmap(-1, 1 << 30)"],
        capture_output=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    if probe.returncode == 0:
        pytest.skip("RLIMIT_AS is not enforced here")
    proc = subprocess.run(
        [sys.executable, "-m", "ramify", "breaks", "--p", "3", "--e", "200000"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_usage_error_exits_nonzero(capsys):
    # argparse's wording varies across Python versions, so only the shape is
    # pinned: exit 1, one error line on err, nothing on stdout or sys.stderr.
    for argv in (
        ["report"],  # missing required --p
        ["report", "--p", "x", "--e", "1"],
        ["report", "--p", "3", "--zeta", "maybe"],
        ["nosuch"],
        [],
        ["breaks", "--p", "3", "--e", "2", "--bogus", "1"],
    ):
        code, out, err = _run(argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert capsys.readouterr() == ("", "")


def test_help_exits_0(capsys):
    # The help text goes to run()'s out, not to the real stdout.
    for argv in (["--help"], ["breaks", "--help"], ["report", "--help"]):
        code, out, err = _run(argv)
        assert code == 0 and err == "", argv
        assert out.startswith("usage: ramify"), argv
        assert capsys.readouterr() == ("", ""), argv


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


_LOADED_BY_COMMAND = """
import io, json, sys
import ramify
seen = {"import ramify": sorted(m for m in sys.modules if m.startswith("ramify."))}
import ramify.cli
heavy = ("ramify.fpspace", "ramify.mass", "ramify.verify", "dataclasses")
seen["import ramify.cli"] = [m for m in heavy if m in sys.modules]
for argv in (
    ["breaks", "--p", "3", "--e", "4"],
    ["herbrand", "--p", "3", "--e", "2", "--zeta", "in", "--format", "json"],
    ["herbrand", "--p", "3", "--char", "p", "--m", "5"],
    ["mass", "--p", "3", "--e", "2", "--zeta", "out"],
):
    assert ramify.cli.run(argv, out=io.StringIO()) == 0
    seen[argv[0]] = [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
"""


def test_cli_import_leaves_the_verify_battery_unloaded():
    # `import ramify` is lazy, and each command imports what only it runs
    # (mass, verify) on demand. A fresh interpreter shows what a cold call
    # loads; the commands run in order, so mass comes last.
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_COMMAND],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "import ramify": [],
        "import ramify.cli": [],
        "breaks": [],
        "herbrand": [],
        "mass": ["ramify.mass"],
    }


def test_cli_import_leaves_the_json_package_unloaded():
    # The writer takes encode_basestring_ascii from the C module _json.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ramify.cli; print([m for m in sys.modules if m.split('.')[0] == 'json'])"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


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
