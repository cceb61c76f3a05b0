"""Command-line interface.

Subcommands: report (full document for one field), breaks (break table),
herbrand (transition breakpoints), mass (cyclic mass report), verify (run
the invariant checks). Output is deterministic; --format json emits the
stable schema (schema_version "1") with rationals as
{"num": "<decimal>", "den": "<decimal>"} so consumers never need bignum
JSON numbers for exact values.

The commands print the ints that the package's walks compute: herbrand,
report and breaks read index_table and lower_filtration, so no HerbrandMap
is built to be printed, and report and mass read the int rows of the mass
walk. Each big column of those ints (psi's values, the indices, the mass
counts and denominators) prints through one chain renderer, _Digits, in
time linear in its digits and past the interpreter's digit limit. Every
other number goes through str() and keeps the limit.

Exit codes: 0 success (--help too), 1 invalid parameters or a usage error
(one-line diagnostic on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Iterable, Iterator, Optional, Sequence

# json.encoder's own C helper, taken from its extension module so that a cold
# call does not import the json package for it.
from _json import encode_basestring_ascii

from .breaks import b_upper
from .filtration import (
    FieldParams,
    RamificationFiltration,
    discriminant_exponent,
    index_table,
    lower_filtration,
    space_model,
    upper_filtration,
)
from .rationals import decimal_string

__all__ = ["run", "main"]

SCHEMA_VERSION = "1"


class _Table:
    """A JSON list of rows of one fixed schema, which _json renders from one row template.

    schema holds one (key, kind) pair per field of a row's object, or one
    (None, kind) pair for a list of bare values. A kind is int for a value
    written bare, or Fraction for a {"num": ..., "den": ...} block. A row
    is the tuple of its template's %s slots in order: one per int field, the
    numerator then the denominator per Fraction field, or the bare value of
    a one-slot template. A slot holds an int, which %s renders with str()
    and so with its digit limit, or a text written as it is. rows is any
    iterable, read once when the table is rendered: from a generator, the
    texts of a row live only until the row is formatted.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: tuple[tuple[Optional[str], type], ...], rows: Iterable) -> None:
        self.schema = schema
        self.rows = rows


_INTS = ((None, int),)
_RATIONALS = ((None, Fraction),)


@functools.cache
def _row_template(schema: tuple[tuple[Optional[str], type], ...], indent: str) -> str:
    """The %-template of one row of a _Table, for rows written at indent."""

    def slot(kind: type, at: str) -> str:
        if kind is int:
            return "%s"
        inner = at + "  "
        return f'{{\n{inner}"num": "%s",\n{inner}"den": "%s"\n{at}}}'

    if schema[0][0] is None:
        return slot(schema[0][1], indent)
    inner = indent + "  "
    fields = [
        encode_basestring_ascii(key).replace("%", "%%") + ": " + slot(kind, inner)
        for key, kind in schema
    ]
    return f"{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{indent}}}"


def _json(obj: Any, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2) for the types our documents hold.

    Documents hold dict (with str keys), list, str, int, bool and None, plus
    two leaf types of the schema: a Fraction becomes the block
    {"num": "<decimal>", "den": "<decimal>"}, and a _Table is rendered with
    one %-template per row and one join. Anything else, floats and tuples
    included, raises TypeError. Ints and the terms of a Fraction go through
    int's own conversion, as in json.dumps, so one past the interpreter's
    digit limit raises the same ValueError. The stdlib encoder runs in pure
    Python whenever indent is set; this writer skips its generator machinery.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is Fraction:
        return _row_template(_RATIONALS, indent) % (obj.numerator, obj.denominator)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is _Table:
        template = _row_template(obj.schema, inner)
        rows = [template % row for row in obj.rows]
        return f"[\n{inner}{sep.join(rows)}\n{indent}]" if rows else "[]"
    if kind is list:
        if not obj:
            return "[]"
        items = [_json(v, inner) for v in obj]
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _rat_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# Exact decimal arithmetic: any result that would need rounding raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
# Below about 300 digits (1000 bits) str(int) is faster than the Decimal route.
_TWIN_BITS = 1000


class _Digits:
    """One column of ints, printed in turn as str() would, in time linear in
    the digits along chains.

    str(int) is quadratic in the digits on CPython 3.11; str(Decimal) is
    linear. A value past _TWIN_BITS gets an exact Decimal twin. The next
    value past _TWIN_BITS takes its twin from the one before when an exact
    int check shows that it follows one of two rules:

    * v = prev * m for an int m, as along the index and mass columns. The
      twin is multiplied by m; a divmod with a small quotient is linear too.
    * v = prev + run * slope.prev, where slope is the column of a
      piecewise-linear map's slopes and holds a twin: the map's next value,
      as along psi's y column. The twin gains run times the slope's twin.

    Any other value goes through str(), and so keeps the interpreter's
    digit limit. Only the last value and its twin are kept.
    """

    __slots__ = ("prev", "twin")

    def __init__(self) -> None:
        self.prev: Optional[int] = None
        self.twin: Optional[Decimal] = None

    def advance(self, v: int, run: int = 0, slope: Optional[_Digits] = None) -> None:
        """Move the column to v; the second rule reads run and slope."""
        twin = None
        if v.bit_length() > _TWIN_BITS:
            prev, last = self.prev, self.twin
            if last is not None and slope is None:
                step, rest = divmod(v, prev)
                if rest == 0:
                    twin = _EXACT.multiply(last, step)
            elif last is not None and slope.twin is not None and v == prev + run * slope.prev:
                twin = _EXACT.add(last, _EXACT.multiply(run, slope.twin))
            if twin is None:
                twin = Decimal(str(v))
        self.prev, self.twin = v, twin

    def text(self) -> str:
        """str() of the value the column is at."""
        return str(self.prev if self.twin is None else self.twin)

    def __call__(self, v: int, run: int = 0, slope: Optional[_Digits] = None) -> str:
        """Move the column to v and return its text."""
        if v.bit_length() <= _TWIN_BITS:  # the common case, in one call
            self.prev, self.twin = v, None
            return str(v)
        self.advance(v, run, slope)
        return str(self.twin)


def _psi_rows(
    upper: RamificationFiltration,
) -> Iterator[tuple[Optional[int], Optional[str], _Digits]]:
    """psi's breakpoints past (0, 0) and its slopes, read from the package's one walk.

    Per row (lo, hi, index) of index_table(upper) it yields (hi, text of
    psi(hi), slopes). psi(hi) is the positive location of
    lower_filtration(upper) at that row's end; on the last row, where hi is
    None, its text is None. slopes is the column of psi's slopes, moved to
    the row's index; a caller that prints the index calls slopes.text().
    """
    table = index_table(upper)
    lower = [loc for loc in lower_filtration(upper).locations if loc > 0]
    ys, slopes = _Digits(), _Digits()
    for (lo, hi, index), y in zip_longest(table, lower):
        slopes.advance(index)
        yield hi, None if hi is None else ys(y, hi - lo, slopes), slopes


def _lower_texts(upper: RamificationFiltration) -> Iterator[str]:
    """Texts of the locations of lower_filtration(upper), in order: the jumps
    at locations <= 0, which psi leaves in place, then psi's positive values."""
    yield from (str(loc) for loc, _ in upper.jumps if loc <= 0)
    yield from (y for hi, y, _ in _psi_rows(upper) if hi is not None)


def _index_rows(upper: RamificationFiltration) -> Iterator[tuple[int, Optional[int], str]]:
    """The rows (lo, hi, index) of index_table(upper), each index as its text."""
    column = _Digits()
    for lo, hi, index in index_table(upper):
        yield lo, hi, column(index)


def _params_doc(params: FieldParams) -> dict[str, Any]:
    return {
        "p": params.p,
        "f": params.f,
        "q": params.q,
        "characteristic": params.characteristic,
        "e": params.e,
        "zeta_in_field": params.zeta_in_field,
        "e1": params.e1 if params.characteristic == 0 else None,
        "s": params.s if params.regular else None,
    }


def _params_text(params: FieldParams) -> list[str]:
    """The text twin of _params_doc: the header lines of a report."""
    lines = ["field parameters", f"  p = {params.p}  f = {params.f}  q = {params.q}"]
    if params.characteristic != 0:
        return lines + [f"  characteristic = {params.p} (equal characteristic)"]
    zeta = "in" if params.zeta_in_field else "out"
    s = f"  s = {params.s}" if params.regular else ""
    return lines + [
        f"  characteristic = 0  e = {params.e}  zeta {zeta}",
        f"  e1 = {_rat_text(params.e1)}{s}",
    ]


_MASS_ROW = (("i", int), ("b_upper", int), ("count", int), ("contribution", Fraction))


def _ratio(n: int, den: int) -> tuple[int, int]:
    """The CLI's weight for the mass walk: the contribution n/den as its two ints."""
    return n, den


_MassRows = list[tuple[int, int, int, tuple[int, int]]]


def _mass_rows(rows: _MassRows) -> Iterator[tuple[int, int, str, str, str]]:
    """The mass walk's rows (i, b, count, (n, den)) as (i, b, count, n, den), the ints as texts.

    Row to row the count grows by q and the contribution's denominator by a
    small power of q, so each column is a chain of the first rule of _Digits.
    """
    counts, nums, dens = _Digits(), _Digits(), _Digits()
    for i, b, count, (n, den) in rows:
        yield i, b, counts(count), nums(n), dens(den)


def _mass_doc(
    params: FieldParams, rows: _MassRows, tres: Optional[tuple], total: Fraction
) -> dict[str, Any]:
    return {
        "per_break": _Table(_MASS_ROW, _mass_rows(rows)),
        "tres_ramifiee": (
            None if tres is None else {"count": tres[0], "contribution": Fraction(*tres[1])}
        ),
        "total": total,
        "fraction_of_serre_total": total / params.p,
    }


def _mass_text(
    params: FieldParams, rows: _MassRows, tres: Optional[tuple], total: Fraction
) -> list[str]:
    lines = ["cyclic mass"]
    lines += [
        f"  break {b} (i = {i}): {count} extensions, contribution {n}/{den}"
        for i, b, count, n, den in _mass_rows(rows)
    ]
    if tres is not None:
        count, (n, den) = tres
        lines.append(f"  deepest break: {count} extensions, contribution {n}/{den}")
    note = " (exact value of the full series)" if params.characteristic != 0 else ""
    lines.append(f"  total = {_rat_text(total)} ~ {decimal_string(total)}{note}")
    lines.append(f"  fraction of degree-p total: {_rat_text(total / params.p)}")
    return lines


def _space_label(params: FieldParams) -> str:
    """Name of the regime of space_model(params)."""
    if params.characteristic != 0:
        return "wp_char_p"
    return "V_regular" if params.regular else "Ubar_zeta"


def _space_doc(space, label: str) -> dict[str, Any]:
    return {
        "label": label,
        "total_dim": space.total_dim,
        "jumps": _Table((("index", int), ("codim", int)), space.jumps[::-1]),
    }


def _index_table_doc(rows: Iterable[tuple[int, Optional[int], str]]) -> _Table:
    """The index table's rows; the last one's open end hi = None is written null."""
    rows = ((lo, "null" if hi is None else hi, index) for lo, hi, index in rows)
    return _Table((("lo", int), ("hi", int), ("index", int)), rows)


def _parse_params(args: argparse.Namespace) -> FieldParams:
    """FieldParams from the field flags; FieldParams validates all but --m."""
    params = FieldParams(
        p=args.p,
        f=args.f,
        characteristic=0 if args.char == "0" else args.p,
        e=args.e,
        zeta_in_field=None if args.zeta is None else args.zeta == "in",
    )
    if params.characteristic == 0 and args.m is not None:
        raise ValueError("m applies to characteristic p only")
    return params


def _shown_level(params: FieldParams, n: int) -> Optional[int]:
    """Level of the first n upper breaks: b_upper(n) in characteristic p (an
    n <= 0 is passed on for the level check to reject), None in characteristic 0."""
    if params.characteristic == 0:
        return None
    return b_upper(n, params.p) if n > 0 else n


def _cmd_report(args: argparse.Namespace) -> list[str]:
    from .mass import _mass_walk  # imported here, as verify is, so breaks and herbrand skip it

    params = _parse_params(args)
    char_p = params.characteristic != 0
    # The lower breaks need the quotient that --m picks; the space model is at
    # that level, or else at the level shown by --max-index.
    shown = _shown_level(params, args.max_index)
    upper = upper_filtration(params, shown)
    # The lower breaks, the index table and the mass rows are generators, read
    # as their sections render, so only one section's texts live at a time.
    if char_p:
        lower = None if args.m is None else _lower_texts(upper_filtration(params, args.m))
    else:
        lower = _lower_texts(upper)
    table = _index_rows(upper) if params.regular else None
    space = space_model(params, args.m if args.m is not None else shown)
    label = _space_label(params)
    discriminant = discriminant_exponent(upper) if params.regular else None
    different = None if discriminant is None else discriminant // params.p  # residue degree p
    mass = _mass_walk(params, shown, _ratio)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "upper_breaks": _Table(_INTS, upper.locations),
            "lower_breaks": _Table(_INTS, lower) if lower is not None else None,
            "codimensions": _Table(_INTS, upper.codims),
            "index_table": None if table is None else _index_table_doc(table),
            "different_exponent": different,
            "discriminant_exponent": discriminant,
            "v_space": _space_doc(space, label),
            "mass": _mass_doc(params, *mass),
        }
        return [_json(doc)]
    lines = _params_text(params)
    trunc = " (truncated)" if char_p else ""
    lines.append(f"upper breaks{trunc}: {', '.join(str(x) for x in upper.locations)}")
    if lower is not None:
        lines.append("lower breaks: " + ", ".join(lower))
    else:
        lines.append("lower breaks: (pass --m to pick a finite quotient)")
    lines.append(f"codimensions: {', '.join(str(c) for c in upper.codims)}")
    if table is not None:
        rendered = []
        for lo, hi, idx in table:
            if hi is None:
                rendered.append(f"]{lo}, oo[ -> {idx}")
            elif lo == 0:
                rendered.append(f"[0, {hi}] -> {idx}")
            else:
                rendered.append(f"]{lo}, {hi}] -> {idx}")
        lines.append("index table: " + " ; ".join(rendered))
    if different is not None:
        lines.append(f"different exponent: {different}")
        lines.append(f"discriminant exponent: {discriminant}")
    # Both formats list the space's jumps deepest index first.
    jumps = ", ".join(f"{j}:{c}" for j, c in reversed(space.jumps))
    lines.append(f"space model {label} (dim {space.total_dim}) jumps index:codim = {jumps}")
    return lines + _mass_text(params, *mass)


def _cmd_breaks(args: argparse.Namespace) -> list[str]:
    count = args.e if args.e is not None else args.max_index
    if count < 1:
        raise ValueError("need at least one break index")
    params = FieldParams(p=args.p, f=args.f, characteristic=args.p)
    q = params.q
    # c(b_upper(n)) = n, so the quotient at level b_upper(count) holds the
    # first count breaks: the ends of the bounded rows of its index table.
    upper = upper_filtration(params, _shown_level(params, count))
    rows = ((i, b - i, b, bl) for i, (b, bl, _) in enumerate(_psi_rows(upper), 1) if b is not None)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "q": q,
            "rows": _Table((("i", int), ("a", int), ("b_upper", int), ("b_lower", int)), rows),
        }
        return [_json(doc)]
    lines = [f"break table for p = {args.p}, q = {q}", "    i    a(i)    b_upper    b_lower"]
    lines += [f"{i:5d}   {a:5d}   {bu:8d}   {bl}" for i, a, bu, bl in rows]
    return lines


_POINTS = (("x", Fraction), ("y", Fraction))


def _cmd_herbrand(args: argparse.Namespace) -> list[str]:
    params = _parse_params(args)
    if params.characteristic != 0 and args.m is None:
        raise ValueError("characteristic p needs --m to pick a finite quotient")
    # psi's breakpoints (x, y) and slopes s, one text each; phi is psi with
    # each breakpoint swapped and each slope inverted.
    points, slopes = [("0", "0")], []
    for hi, y, column in _psi_rows(upper_filtration(params, args.m)):
        slopes.append(column.text())
        if hi is not None:
            points.append((str(hi), y))
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "psi": {
                "breakpoints": _Table(_POINTS, ((x, 1, y, 1) for x, y in points)),
                "slopes": _Table(_RATIONALS, ((s, 1) for s in slopes)),
            },
            "phi": {
                "breakpoints": _Table(_POINTS, ((y, 1, x, 1) for x, y in points)),
                "slopes": _Table(_RATIONALS, ((1, s) for s in slopes)),
            },
        }
        return [_json(doc)]
    return [
        "psi (upper -> lower)",
        "  breakpoints: " + ", ".join([f"({x}, {y})" for x, y in points]),
        "  slopes: " + ", ".join(slopes),
        "phi (lower -> upper)",
        "  breakpoints: " + ", ".join([f"({y}, {x})" for x, y in points]),
        # Every index is a positive int, and 1/1 prints as 1.
        "  slopes: " + ", ".join([s if s == "1" else "1/" + s for s in slopes]),
    ]


def _cmd_mass(args: argparse.Namespace) -> list[str]:
    from .mass import _mass_walk

    params = _parse_params(args)
    mass = _mass_walk(params, _shown_level(params, args.max_index), _ratio)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "mass": _mass_doc(params, *mass),
        }
        return [_json(doc)]
    return _mass_text(params, *mass)


def _cmd_verify(out) -> int:
    # Imported here so that the other subcommands do not pay for the battery.
    from . import verify as verify_mod

    ok = verify_mod.run_all(write=lambda line: out.write(line + "\n"))
    return 0 if ok else 2


def _field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="residue characteristic")
    sub.add_argument("--f", type=int, default=1, help="residual degree (default 1)")
    sub.add_argument(
        "--char", choices=("0", "p"), default="0", help="field characteristic"
    )
    sub.add_argument("--e", type=int, help="ramification index (characteristic 0)")
    sub.add_argument(
        "--zeta",
        choices=("in", "out"),
        help="is a primitive p-th root of unity in the field",
    )
    sub.add_argument(
        "--m", type=int, help="finite-quotient level for characteristic p"
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so run() reports them in
    one line like any other invalid input; its subparsers share the class."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args gives a fresh Namespace per call."""
    parser = _Parser(
        prog="ramify",
        description="Exact ramification filtrations and degree-p mass data for local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, render, with_field in (
        ("report", _cmd_report, True),
        ("breaks", _cmd_breaks, False),
        ("herbrand", _cmd_herbrand, True),
        ("mass", _cmd_mass, True),
        ("verify", None, False),
    ):
        s = sub.add_parser(name)
        s.set_defaults(render=render)
        if with_field:
            _field_flags(s)
        elif name == "breaks":
            s.add_argument("--p", type=int, required=True)
            s.add_argument("--f", type=int, default=1)
            s.add_argument("--e", type=int, help="number of break indices to list")
        if name != "verify":
            s.add_argument(
                "--max-index",
                type=int,
                default=16,
                dest="max_index",
                help="display/truncation bound for infinite tables (default 16)",
            )
            s.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def run(argv: Sequence[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        try:
            with contextlib.redirect_stdout(out):
                args = _build_parser().parse_args(list(argv))
        except SystemExit:
            return 0  # --help printed its text to out; usage errors raise ValueError
        if args.command == "verify":
            return _cmd_verify(out)
        # The whole output is rendered before its one write, so a command
        # that fails leaves stdout empty.
        lines = args.render(args)
        lines.append("")
        out.write("\n".join(lines))
        return 0
    except (ValueError, ZeroDivisionError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        err.write("error: out of memory\n")
        return 1


def main() -> None:
    # Under python -u, sys.stdout writes to a raw FileIO, and a short write to
    # a closed pipe would silently lose the rest of the output. A buffered
    # stream on fd 1 retries short writes until they fail with EPIPE. It is
    # line-buffered on a terminal, so verify still streams there.
    with open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, closefd=False) as out:
        try:
            code = run(sys.argv[1:], out=out)
            out.flush()
        except BrokenPipeError:
            # The reader closed stdout early. Point fd 1 at devnull so that
            # the flush on close cannot raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
