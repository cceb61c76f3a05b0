"""Independent closed forms and output checkers for the benchmark.

Nothing here imports `ramify`: every expected value is recomputed from the
paper's closed forms, so a wrong program output cannot also be the value it
is checked against.

- b_upper(i) = i + floor((i-1)/(p-1))
- b_lower(i) = (q^i - 1)/(q - 1) + Q (Q^a - 1)/(Q - 1), Q = q^(p-1), a = floor((i-1)/(p-1))
- lines with break b_upper(i): p q^(i-1) (q-1)/(p-1), each weighing q^(-(p-1) b_upper(i))
- the zeta-in-field deepest layer adds p q^(-(p-1) e)
- characteristic p, grouped by residue of i mod p-1 (i = (p-1)a + j, b = pa + j):
  total = p (q-1)/(p-1) * sum_{j=1}^{p-1} q^(-(p-2)j - 1) / (1 - q^(-(p-1)^2))
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def b_upper(i: int, p: int) -> int:
    return i + (i - 1) // (p - 1)


def b_lower(i: int, p: int, q: int) -> int:
    big = q ** (p - 1)
    a = (i - 1) // (p - 1)
    return (q**i - 1) // (q - 1) + big * (big**a - 1) // (big - 1)


def c_truncation(m: int, p: int) -> int:
    """How many break indices i have b_upper(i) <= m."""
    return m - m // p


def _weighted_break_sum(p: int, q: int, count: int, extra_exponent: int | None) -> Fraction:
    """sum_{i<=count} p q^(i-1)(q-1)/(p-1) q^(-(p-1) b_upper(i)), plus p q^(-extra) if given.

    Summed over the common denominator q^top so the cost is one big division.
    """
    exponents = [(p - 1) * b_upper(i, p) for i in range(1, count + 1)]
    top = max(exponents + ([extra_exponent] if extra_exponent is not None else []))
    num = sum(p * q ** (i - 1) * (q - 1) // (p - 1) * q ** (top - c)
              for i, c in enumerate(exponents, start=1))
    if extra_exponent is not None:
        num += p * q ** (top - extra_exponent)
    return Fraction(num, q**top)


def mass_char0(p: int, f: int, e: int, zeta: bool) -> Fraction:
    return _weighted_break_sum(p, p**f, e, (p - 1) * e if zeta else None)


def mass_char_p(p: int, f: int) -> Fraction:
    q = p**f
    block = sum(Fraction(1, q ** ((p - 2) * j + 1)) for j in range(1, p))
    return Fraction(p * (q - 1), p - 1) * block / (1 - Fraction(1, q ** ((p - 1) ** 2)))


def mass_char_p_partial(p: int, f: int, m: int) -> Fraction:
    """Mass of the characteristic-p extensions with break <= m."""
    return _weighted_break_sum(p, p**f, c_truncation(m, p), None)


def model_lines(p: int, f: int, e: int | None, zeta: bool, m: int | None) -> int:
    """Lines of the space the mass oracle enumerates: (p^dim - 1)/(p - 1)."""
    if e is None:
        dim = 1 + c_truncation(m, p) * f
    else:
        dim = (2 if zeta else 1) + e * f
    return (p**dim - 1) // (p - 1)


# --- parsing the CLI's two output formats ---------------------------------

def _json_value(text: str, key: str):
    """Decode the JSON value that follows `"key": ` (first occurrence).

    Slicing out one value keeps the checker's memory far below the
    program's own, so the worker's peak RSS reflects the program.
    """
    start = text.find(f'"{key}": ')
    if start < 0:
        raise ValueError(f"missing key {key}")
    value, _ = json.JSONDecoder().raw_decode(text, start + len(key) + 4)
    return value


def _rat(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


_TOTAL_TEXT = re.compile(r"^  total = (-?\d+)/(\d+) ~ ", re.M)
_POINT_TEXT = re.compile(r"\(([-\d/]+), ([-\d/]+)\)")


def _text_line(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"missing line {prefix!r}")


def _text_total(text: str) -> Fraction:
    match = _TOTAL_TEXT.search(text)
    if match is None:
        raise ValueError("missing total line")
    return Fraction(int(match[1]), int(match[2]))


# --- expected values per invocation ---------------------------------------

class Expect:
    """What one valid CLI invocation must print, from its own arguments."""

    def __init__(self, argv: list[str]):
        self.command = argv[0]
        flags = dict(zip(argv[1::2], argv[2::2]))
        self.p = int(flags["--p"])
        self.f = int(flags.get("--f", "1"))
        self.q = self.p**self.f
        self.format = flags.get("--format", "text")
        self.char_p = flags.get("--char", "0") == "p"
        self.e = int(flags["--e"]) if "--e" in flags else None
        self.m = int(flags["--m"]) if "--m" in flags else None
        self.zeta = self.p == 2 or flags.get("--zeta") == "in" or self.char_p

    def lower_breaks(self) -> list[int]:
        p, q = self.p, self.q
        count = c_truncation(self.m, p) if self.char_p else self.e
        out = [-1] + [b_lower(i, p, q) for i in range(1, count + 1)]
        if not self.char_p and self.zeta:
            out.append(b_lower(self.e, p, q) + q**self.e)
        return out

    def upper_breaks(self) -> list[int]:
        """Positive upper breaks of the complete (finite) filtration."""
        p = self.p
        count = c_truncation(self.m, p) if self.char_p else self.e
        out = [b_upper(i, p) for i in range(1, count + 1)]
        if not self.char_p and self.zeta:
            out.append(p * self.e // (p - 1))
        return out

    def total(self) -> Fraction:
        if self.char_p:
            return mass_char_p(self.p, self.f)
        return mass_char0(self.p, self.f, self.e, self.zeta)


def check_output(argv: list[str], text: str) -> str | None:
    """None when `text` is a correct output of `ramify <argv>`, else why not."""
    try:
        exp = Expect(argv)
        if exp.command == "report":
            _check_report(exp, text)
        elif exp.command == "mass":
            got = _rat(_json_value(text, "total")) if exp.format == "json" else _text_total(text)
            _same("mass total", got, exp.total())
        elif exp.command == "herbrand":
            _check_herbrand(exp, text)
        elif exp.command == "breaks":
            _check_breaks(exp, text)
        else:
            return f"no checker for {exp.command}"
    except (ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _same(what: str, got, want) -> None:
    if got != want:
        raise ValueError(f"{what} differs from the closed form")


def _check_report(exp: Expect, text: str) -> None:
    if exp.format == "json":
        lower = _json_value(text, "lower_breaks")
        total = _rat(_json_value(text, "total"))
    else:
        lower = [int(x) for x in _text_line(text, "lower breaks: ").split(", ")]
        total = _text_total(text)
    _same("lower breaks", lower, exp.lower_breaks())
    _same("mass total", total, exp.total())


def _check_herbrand(exp: Expect, text: str) -> None:
    """psi's breakpoints are (0, 0) and (upper break, lower break) pairs."""
    want = [(Fraction(0), Fraction(0))] + [
        (Fraction(u), Fraction(v)) for u, v in zip(exp.upper_breaks(), exp.lower_breaks()[1:])
    ]
    if exp.format == "json":
        psi = _json_value(text, "psi")["breakpoints"]
        got = [(_rat(pt["x"]), _rat(pt["y"])) for pt in psi]
    else:
        line = _text_line(text.split("phi (lower -> upper)")[0], "  breakpoints: ")
        got = [(Fraction(x), Fraction(y)) for x, y in _POINT_TEXT.findall(line)]
    _same("psi breakpoints", got, want)


def _check_breaks(exp: Expect, text: str) -> None:
    p, q = exp.p, exp.q
    want = [(i, b_upper(i, p), b_lower(i, p, q)) for i in range(1, exp.e + 1)]
    if exp.format == "json":
        rows = _json_value(text, "rows")
        got = [(r["i"], r["b_upper"], r["b_lower"]) for r in rows]
    else:
        body = text.splitlines()[2:]
        got = [(int(i), int(bu), int(bl)) for i, _, bu, bl in (row.split() for row in body)]
    _same("break rows", got, want)


def check_invalid(returncode: int, stdout: str, stderr: str) -> str | None:
    """An invalid input must exit 1 with exactly one `error:` line and no stdout."""
    lines = stderr.splitlines()
    if returncode != 1:
        return f"exit {returncode} on invalid input"
    if stdout:
        return "stdout on invalid input"
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"stderr is not one error line: {stderr[:120]!r}"
    return None
