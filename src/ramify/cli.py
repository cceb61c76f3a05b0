"""Command-line interface.

Subcommands: report (full document for one field), breaks (break table),
herbrand (transition breakpoints), mass (cyclic mass report), verify (run
the invariant checks). Output is deterministic; --format json emits the
stable schema (schema_version "1") with rationals as
{"num": "<decimal>", "den": "<decimal>"} so consumers never need bignum
JSON numbers for exact values.

Exit codes: 0 success, 1 invalid parameters (one-line diagnostic on
stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .breaks import b_upper, break_sequence
from .filtration import (
    FieldParams,
    HerbrandMap,
    different_exponent_closed,
    discriminant_exponent,
    herbrand_phi,
    index_table,
    lower_filtration,
    space_model,
    upper_filtration,
)
from .mass import MassReport, cyclic_mass
from .rationals import decimal_string

__all__ = ["run", "main"]

SCHEMA_VERSION = "1"


class _Digits(str):
    """The decimal text of an int, rendered ahead; _json writes it bare."""

    __slots__ = ()


class _Ratio:
    """A rational whose numerator and denominator were rendered ahead as decimal texts."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: str, denominator: str) -> None:
        self.numerator = numerator
        self.denominator = denominator


def _json(obj: Any, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2) for the types our documents hold.

    Documents hold dict (with str keys), list, str, int, bool and None, plus
    three leaf types of the schema: a Fraction or a _Ratio becomes the block
    {"num": "<decimal>", "den": "<decimal>"}, and a _Digits is written bare,
    as the JSON number it spells. Anything else, floats and tuples included,
    raises TypeError. Ints and the terms of a Fraction go through int's own
    conversion, as in json.dumps, so one past the interpreter's digit limit
    raises the same ValueError. The stdlib encoder runs in pure Python
    whenever indent is set; this writer skips its generator machinery.
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
    inner = indent + "  "
    if kind is Fraction or kind is _Ratio:
        num, den = obj.numerator, obj.denominator
        return f'{{\n{inner}"num": "{num}",\n{inner}"den": "{den}"\n{indent}}}'
    if kind is _Digits:
        return obj
    sep = ",\n" + inner
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


def _digit_column(values: Sequence[int]) -> list[str]:
    """str(v) for each v, in time linear in the digits along chains of small factors.

    str(int) is quadratic in the digits on CPython 3.11; str(Decimal) is
    linear. Once a value passes _TWIN_BITS, it gets an exact Decimal twin.
    While each next v is the value before it times a positive int, the twin
    is multiplied by that quotient (a divmod with a small quotient is linear
    too) and printed. Any other v goes through str(). A text longer
    than a nonzero sys.get_int_max_str_digits() is handed to str() on the
    int itself, which raises the interpreter's own ValueError, so the digit
    limit holds exactly as for str().
    """
    limit = sys.get_int_max_str_digits()
    texts = []
    prev = twin = None
    for v in values:
        if twin is not None:
            step, rest = divmod(v, prev)
            if rest == 0 and step > 0:
                twin = _EXACT.multiply(twin, step)
                text = str(twin)
                if limit and len(text) > limit:
                    str(v)
                texts.append(text)
                prev = v
                continue
        text = str(v)
        twin = Decimal(text) if v.bit_length() > _TWIN_BITS else None
        texts.append(text)
        prev = v
    return texts


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


def _mass_columns(report: MassReport) -> tuple[list[str], list[str], list[str]]:
    """Decimal texts of the per-break counts, numerators and denominators.

    Row to row the count grows by q and the contribution's denominator by a
    small power of q, so _digit_column renders each column in linear time.
    """
    rows = report.per_break
    return (
        _digit_column([row[2] for row in rows]),
        _digit_column([row[3].numerator for row in rows]),
        _digit_column([row[3].denominator for row in rows]),
    )


def _mass_doc(report: MassReport) -> dict[str, Any]:
    return {
        "per_break": [
            {"i": i, "b_upper": b, "count": _Digits(count), "contribution": _Ratio(num, den)}
            for (i, b, _, _), count, num, den in zip(report.per_break, *_mass_columns(report))
        ],
        "tres_ramifiee": (
            None
            if report.tres_ramifiee is None
            else {
                "count": report.tres_ramifiee[0],
                "contribution": report.tres_ramifiee[1],
            }
        ),
        "total": report.total,
        "fraction_of_serre_total": report.fraction_of_serre_total,
    }


def _space_label(params: FieldParams) -> str:
    """Name of the regime of space_model(params)."""
    if params.characteristic != 0:
        return "wp_char_p"
    return "V_regular" if params.regular else "Ubar_zeta"


def _space_doc(space, label: str) -> dict[str, Any]:
    return {
        "label": label,
        "total_dim": space.total_dim,
        "jumps": [{"index": j, "codim": c} for j, c in reversed(space.jumps)],
    }


def _herbrand_doc(m: HerbrandMap) -> dict[str, Any]:
    return {
        "breakpoints": [{"x": x, "y": y} for x, y in m.breakpoints],
        "slopes": list(m.slopes),
    }


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


def _cmd_report(args: argparse.Namespace) -> list[str]:
    params = _parse_params(args)
    char_p = params.characteristic != 0
    # In characteristic p, --max-index n shows the upper breaks of the level
    # b_upper(n) (an n <= 0 is passed on for the level check to reject). The
    # lower breaks need the quotient that --m picks; the space model is at
    # that level, or else at the shown one.
    n = args.max_index
    shown = (b_upper(n, params.p) if n > 0 else n) if char_p else None
    upper = upper_filtration(params, shown)
    lower = None if char_p and args.m is None else lower_filtration(params, args.m)
    space = space_model(params, args.m if args.m is not None else shown)
    label = _space_label(params)
    table = index_table(params) if params.regular else None
    different = different_exponent_closed(params) if params.regular else None
    discriminant = discriminant_exponent(params) if params.regular else None
    report = cyclic_mass(params, display_rows=n)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "upper_breaks": list(upper.locations),
            "lower_breaks": list(lower.locations) if lower is not None else None,
            "codimensions": list(upper.codims),
            "index_table": (
                None
                if table is None
                else [{"lo": lo, "hi": hi, "index": idx} for lo, hi, idx in table]
            ),
            "different_exponent": different,
            "discriminant_exponent": discriminant,
            "v_space": _space_doc(space, label),
            "mass": _mass_doc(report),
        }
        return [_json(doc)]
    lines = _params_text(params)
    trunc = " (truncated)" if char_p else ""
    lines.append(f"upper breaks{trunc}: {', '.join(str(x) for x in upper.locations)}")
    if lower is not None:
        lines.append(f"lower breaks: {', '.join(str(x) for x in lower.locations)}")
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
    return lines + _mass_text(report)


def _mass_text(report: MassReport) -> list[str]:
    lines = ["cyclic mass"]
    for (i, b, _, _), count, num, den in zip(report.per_break, *_mass_columns(report)):
        lines.append(f"  break {b} (i = {i}): {count} extensions, contribution {num}/{den}")
    if report.tres_ramifiee is not None:
        count, contribution = report.tres_ramifiee
        lines.append(f"  deepest break: {count} extensions, contribution {_rat_text(contribution)}")
    char_p = report.params.characteristic != 0
    note = " (exact value of the full series)" if char_p else ""
    lines.append(f"  total = {_rat_text(report.total)} ~ {decimal_string(report.total)}{note}")
    lines.append(f"  fraction of degree-p total: {_rat_text(report.fraction_of_serre_total)}")
    return lines


def _cmd_breaks(args: argparse.Namespace) -> list[str]:
    count = args.e if args.e is not None else args.max_index
    if count < 1:
        raise ValueError("need at least one break index")
    q = FieldParams(p=args.p, f=args.f, characteristic=args.p).q
    rows = break_sequence(args.p, q, count)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "q": q,
            "rows": [
                {"i": i, "a": a, "b_upper": bu, "b_lower": bl} for i, a, bu, bl in rows
            ],
        }
        return [_json(doc)]
    lines = [f"break table for p = {args.p}, q = {q}", "    i    a(i)    b_upper    b_lower"]
    lines += [f"{i:5d}   {a:5d}   {bu:8d}   {bl}" for i, a, bu, bl in rows]
    return lines


def _cmd_herbrand(args: argparse.Namespace) -> list[str]:
    params = _parse_params(args)
    if params.characteristic != 0 and args.m is None:
        raise ValueError("characteristic p needs --m to pick a finite quotient")
    phi = herbrand_phi(lower_filtration(params, args.m))
    psi = phi.inverse()
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "psi": _herbrand_doc(psi),
            "phi": _herbrand_doc(phi),
        }
        return [_json(doc)]
    lines = []
    for name, m in (("psi (upper -> lower)", psi), ("phi (lower -> upper)", phi)):
        pts = ", ".join(f"({x}, {y})" for x, y in m.breakpoints)
        slopes = ", ".join(str(s) for s in m.slopes)
        lines += [name, f"  breakpoints: {pts}", f"  slopes: {slopes}"]
    return lines


def _cmd_mass(args: argparse.Namespace) -> list[str]:
    params = _parse_params(args)
    report = cyclic_mass(params, display_rows=args.max_index)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": _params_doc(params),
            "mass": _mass_doc(report),
        }
        return [_json(doc)]
    return _mass_text(report)


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args gives a fresh Namespace per call."""
    parser = argparse.ArgumentParser(
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
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into code 1.
        return 0 if exc.code == 0 else 1
    try:
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
