"""The four workloads: seeded inputs, one op each, and the op's checker.

Each workload is a class with
- `prepare(seed)`: the set-up a user pays once (imports, seeded inputs,
  warm-up); returns the fixed op list of one pass;
- `execute(op, tracer)`: the timed op, returning whatever `check` needs;
  an exception escaping the program counts as a traceback;
- `check(op, result)`: None when the op passed, else (kind, reason), where
  kind is "wrong" for an output that disagrees with its independent check
  and "error" for an op that produced no answer (bad exit code, stderr,
  traceback).

Ops reach the program only as argv lists or `FieldParams`; the seed picks
them and is never seen by the program.
"""

from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
import traceback

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(os.path.dirname(BENCH_DIR), "tests", "golden")


def _stratified_sizes(rng: random.Random, top: int, strata: int, cells: int) -> list[list[int]]:
    """sizes[c][k]: one integer in [1, top] for cell c from each of `strata` log slices.

    Within slice k the `cells` draws form a Latin hypercube (one draw per
    equal sub-slice, dealt to the cells in random order), so every seed
    draws different sizes but nearly the same multiset of them, and a pass
    costs nearly the same for every seed.
    """
    sizes = [[0] * strata for _ in range(cells)]
    for k in range(strata):
        order = list(range(cells))
        rng.shuffle(order)
        for j, c in enumerate(order):
            x = (k + (j + rng.random()) / cells) / strata
            sizes[c][k] = max(1, min(top, round(top**x)))
    return sizes


def _regimes(p: int) -> list[str]:
    return (["regular"] if p != 2 else []) + ["zeta", "charp"]


def _field_argv(p: int, f: int, regime: str, size: int, with_m: bool = True) -> list[str]:
    """Field flags for one regime; `size` is e (char 0), or --max-index and --m (char p)."""
    argv = ["--p", str(p), "--f", str(f)]
    if regime == "charp":
        m = ["--m", str(size)] if with_m else []
        return argv + ["--char", "p"] + m + ["--max-index", str(size)]
    if regime == "zeta":
        e = max(p - 1, math.ceil(size / (p - 1)) * (p - 1))
        return argv + ["--e", str(e), "--zeta", "in"]
    return argv + ["--e", str(size), "--zeta", "out"]


def _run_cli(argv: list[str]):
    import ramify.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        code = ramify.cli.run(argv, out=out, err=err)
    except Exception:  # a traceback that would reach the user
        return None, out.getvalue(), err.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue(), None


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1] if text.strip() else ""


def _check_valid_cli(argv, code, out, err, exc):
    if exc is not None:
        return "error", "traceback: " + _last_line(exc)
    if code != 0:
        return "error", f"exit {code}: {_last_line(err)[:100]}"
    if err:
        return "error", "stderr on a valid op"
    reason = oracles.check_output(argv, out)
    return None if reason is None else ("wrong", reason)


class ReportScaling:
    """In-process `ramify.cli.run` over a seeded mix of sizes up to e = m = 800.

    One op per (subcommand, p, f, regime) cell and size stratum, in json and
    text format alternately. p and f span today's verify grids. The known
    4300-digit defect is kept: for p = 5, f = 2 and e >= 769 (--max-index
    >= 770 in characteristic p), report and mass exit 1.
    """

    name = "report_scaling"
    trace_extra_ops: list = []
    TOP = 800
    STRATA = 12
    min_ops = 100
    rss_of_children = False

    def cells(self):
        for p in (2, 3, 5):
            for f in (1, 2):
                yield ("breaks", p, f, None)
                for sub in ("report", "herbrand", "mass"):
                    for regime in _regimes(p):
                        yield (sub, p, f, regime)

    def make_ops(self, seed: int) -> list[list[str]]:
        rng = random.Random(seed)
        cells = list(self.cells())
        sizes = _stratified_sizes(rng, self.TOP, self.STRATA, len(cells))
        ops = []
        for (sub, p, f, regime), cell_sizes in zip(cells, sizes):
            first = rng.randrange(2)  # formats alternate over a cell's strata
            for k, size in enumerate(cell_sizes):
                if sub == "breaks":
                    argv = ["breaks", "--p", str(p), "--f", str(f), "--e", str(size)]
                else:
                    # mass reads --max-index only; --m picks the quotient of report/herbrand
                    argv = [sub] + _field_argv(p, f, regime, size, with_m=sub != "mass")
                ops.append(argv + ["--format", ("json", "text")[(first + k) % 2]])
        rng.shuffle(ops)
        return ops

    def prepare(self, seed: int):
        import ramify.cli  # noqa: F401  (the import a user pays)

        ops = self.make_ops(seed)
        for argv in (["breaks", "--p", "3", "--e", "2"], ["report", "--p", "3", "--e", "2", "--zeta", "in"],
                     ["herbrand", "--p", "2", "--e", "3", "--format", "json"], ["mass", "--p", "5", "--char", "p"]):
            failure = self.check(argv, self.execute(argv, None))
            if failure is not None:
                raise RuntimeError(f"warm-up op {argv} failed: {failure}")
        return ops

    def execute(self, argv, tracer):
        return _run_cli(argv)

    def check(self, argv, result):
        return _check_valid_cli(argv, *result)

    def out_bytes(self, result) -> int:
        return len(result[1].encode())


class OracleGrid:
    """Brute-force line enumeration against the closed forms.

    Per p, the model sizes p^dim are log-uniform over [10^2, 5*10^5],
    discretized: each dimension p allows gets the ops of the log-range
    nearest to it, shared evenly among the f that reach it, so the multiset
    of (p, dim, f), and a pass's cost, is the same for every seed. The seed
    deals each (p, dim, f)'s ops over its fields (regime, e or m) without
    repeats until all are used, and orders the ops.
    """

    name = "oracle_grid"
    trace_extra_ops: list = []
    LOW, HIGH = 1e2, 5e5
    PER_P = 35
    min_ops = 100
    rss_of_children = False

    def candidates(self):
        """Every (p, f, regime, e or m) with p^dim in [LOW, HIGH], keyed by (p, dim)."""
        by_dim: dict[tuple[int, int], list[tuple]] = {}
        for p in (2, 3, 5, 7):
            for f in (1, 2, 3):
                for e in range(1, 40):
                    for zeta in ((False, True) if p != 2 else (True,)):
                        if zeta and e % (p - 1):
                            continue
                        dim = (2 if zeta else 1) + e * f
                        if self.LOW <= p**dim <= self.HIGH:
                            by_dim.setdefault((p, dim), []).append((p, f, "zeta" if zeta else "regular", e))
                for m in range(1, 60):
                    dim = 1 + oracles.c_truncation(m, p) * f
                    if self.LOW <= p**dim <= self.HIGH:
                        by_dim.setdefault((p, dim), []).append((p, f, "charp", m))
        return by_dim

    def counts(self, p: int, by_dim: dict) -> dict[tuple[int, int], int]:
        """Ops per (dimension, f) for one p, the same for every seed.

        Each dimension takes the share of [ln LOW, ln HIGH] nearest to its
        ln p^dim, split evenly over the f that reach it (f moves an op's cost
        most); shares are rounded to PER_P ops by largest remainder.
        """
        lo, hi = math.log(self.LOW), math.log(self.HIGH)
        dims = sorted(d for q, d in by_dim if q == p)
        points = [d * math.log(p) for d in dims]
        edges = [lo] + [(a + b) / 2 for a, b in zip(points, points[1:])] + [hi]
        quotas = {}
        for dim, a, b in zip(dims, edges, edges[1:]):
            fs = sorted({field[1] for field in by_dim[(p, dim)]})
            for f in fs:
                quotas[(dim, f)] = self.PER_P * (b - a) / (hi - lo) / len(fs)
        counts = {key: int(q) for key, q in quotas.items()}
        by_remainder = sorted(quotas, key=lambda key: counts[key] - quotas[key])
        for key in by_remainder[: self.PER_P - sum(counts.values())]:
            counts[key] += 1
        return counts

    def make_ops(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        by_dim = self.candidates()
        ops = []
        for p in (2, 3, 5, 7):
            for (dim, f), count in self.counts(p, by_dim).items():
                fields = [field for field in by_dim[(p, dim)] if field[1] == f]
                fields = rng.sample(fields, len(fields))
                ops += [fields[i % len(fields)] for i in range(count)]
        rng.shuffle(ops)
        return ops

    def prepare(self, seed: int):
        import ramify  # noqa: F401

        ops = self.make_ops(seed)
        warm = (3, 1, "regular", 2)
        failure = self.check(warm, self.execute(warm, None))
        if failure is not None:
            raise RuntimeError(f"warm-up case failed: {failure}")
        return ops

    def execute(self, case, tracer):
        import ramify

        p, f, regime, size = case
        try:
            if regime == "charp":
                params = ramify.FieldParams(p=p, f=f, characteristic=p)
                return ramify.brute_force_mass(params, size), None, None
            params = ramify.FieldParams(p=p, f=f, e=size, zeta_in_field=regime == "zeta")
            return ramify.brute_force_mass(params), ramify.cyclic_mass(params).total, None
        except Exception:
            return None, None, traceback.format_exc(limit=3)

    def check(self, case, result):
        brute, closed, exc = result
        if exc is not None:
            return "error", "traceback: " + _last_line(exc)
        p, f, regime, size = case
        if regime == "charp":
            want = oracles.mass_char_p_partial(p, f, size)
        else:
            want = oracles.mass_char0(p, f, size, regime == "zeta")
            if closed != want:
                return "wrong", "cyclic_mass total differs from the closed form"
        return None if brute == want else ("wrong", "brute-force mass differs from the closed form")

    def out_bytes(self, result) -> int:
        return 0


# The three canonical reports of tests/golden, byte for byte.
GOLDEN = [
    (["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0", "--zeta", "out", "--format", "json"],
     "report_p3_e1_f1_regular.json"),
    (["report", "--p", "3", "--e", "2", "--f", "1", "--char", "0", "--zeta", "in", "--format", "json"],
     "report_p3_e2_f1_zeta.json"),
    (["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8", "--m", "5", "--format", "json"],
     "report_p3_f1_charp.json"),
]

# Inputs the program rejects through its own validation (exit 1, one line).
# argparse usage errors print a usage block and are not in this mix.
INVALID = [
    lambda r: ["report", "--p", str(r.choice([4, 6, 9, 15])), "--e", "1", "--zeta", "out"],
    lambda r: ["mass", "--p", "3", "--f", "0", "--e", str(r.randint(1, 9)), "--zeta", "out"],
    lambda r: ["report", "--p", "2", "--e", str(r.randint(1, 9)), "--zeta", "out"],
    lambda r: ["herbrand", "--p", "5", "--e", str(r.choice([1, 2, 3, 5, 6, 7])), "--zeta", "in"],
    lambda r: ["mass", "--p", str(r.choice([2, 3, 5])), "--char", "p", "--e", "3"],
    lambda r: ["report", "--p", "3", "--zeta", "out"],
    lambda r: ["herbrand", "--p", str(r.choice([2, 3, 5])), "--char", "p"],
    lambda r: ["breaks", "--p", str(r.choice([2, 3, 5])), "--e", "0"],
    lambda r: ["report", "--p", "3", "--e", "2", "--zeta", "out", "--m", str(r.randint(1, 9))],
    lambda r: ["mass", "--p", "3", "--char", "p", "--zeta", "out"],
    lambda r: ["mass", "--p", str(r.choice([3, 5, 7])), "--e", "2"],
    lambda r: ["breaks", "--p", str(r.choice([1, 4, 8])), "--e", "3"],
]


class CliCold:
    """One fresh interpreter per op through the benchmark's one-line driver.

    Per-op compute is under 2 ms, so interpreter start, `import ramify.cli`
    and argparse set the latency.
    """

    name = "cli_cold"
    trace_extra_ops: list = []
    VALID = 36
    min_ops = 100
    rss_of_children = True

    def make_ops(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        ops = [(argv, "golden", name) for argv, name in GOLDEN]
        for _ in range(self.VALID):
            p, f = rng.choice((2, 3, 5)), rng.choice((1, 2))
            sub, fmt = rng.choice(("breaks", "herbrand", "mass")), rng.choice(("json", "text"))
            size = rng.randint(1, 12)
            if sub == "breaks":
                argv = ["breaks", "--p", str(p), "--f", str(f), "--e", str(size)]
            else:
                argv = [sub] + _field_argv(p, f, rng.choice(_regimes(p)), size)
            ops.append((argv + ["--format", fmt], "valid", None))
        ops += [(make(rng), "invalid", None) for make in INVALID]
        rng.shuffle(ops)
        return ops

    def prepare(self, seed: int):
        self.golden = {}
        for _, name in GOLDEN:
            with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
                self.golden[name] = fh.read()
        ops = self.make_ops(seed)
        warm = (["breaks", "--p", "2", "--e", "1"], "valid", None)
        failure = self.check(warm, self.execute(warm, None))
        if failure is not None:
            raise RuntimeError(f"warm-up op failed: {failure}")
        return ops

    def execute(self, op, tracer):
        argv = op[0]
        if tracer is None:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_main.py"), *argv]
        else:
            spans = tracer.next_child_path()
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_main_traced.py"), spans, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        argv, kind, golden = op
        code, out, err = result
        if "Traceback" in err:
            return "error", "traceback: " + _last_line(err)
        if kind == "invalid":
            if code == 0:
                return "wrong", "exit 0 on invalid input"
            reason = oracles.check_invalid(code, out, err)
            return None if reason is None else ("error", reason)
        if kind == "golden":
            if code != 0 or err:
                return "error", f"exit {code}: {_last_line(err)[:100]}"
            return None if out == self.golden[golden] else ("wrong", f"output differs from {golden}")
        return _check_valid_cli(argv, code, out, err, None)

    def out_bytes(self, result) -> int:
        return len(result[1].encode())


class VerifyBattery:
    """`ramify.verify.CHECKS` in process, one op per check; the seed only reorders.

    A pass leaves out the two line enumerations, which take 25 of the
    battery's 27 s today: with them a run holds one pass, and the median
    check, timed once, moved by a third from run to run. oracle_grid times
    the same enumerator on a wider grid; a traced run still runs, checks
    and times both enumerations once, after the traced pass.
    """

    name = "verify_battery"
    trace_extra_ops = ["mass.brute_force_vs_closed", "mass.char_p_partial_sums"]
    min_ops = 100
    rss_of_children = False

    def make_ops(self, seed: int) -> list[str]:
        import ramify.verify

        names = [name for name, _ in ramify.verify.CHECKS if name not in self.trace_extra_ops]
        random.Random(seed).shuffle(names)
        return names

    def prepare(self, seed: int):
        import ramify.verify

        self.checks = dict(ramify.verify.CHECKS)
        return self.make_ops(seed)

    def execute(self, name, tracer):
        try:
            if tracer is None:
                self.checks[name]()
            else:
                with tracer.span(f"verify.{name}"):
                    self.checks[name]()
        except AssertionError:
            return "wrong", traceback.format_exc(limit=3)
        except Exception:
            return "error", traceback.format_exc(limit=3)
        return None

    def check(self, name, result):
        return None if result is None else (result[0], f"{name}: " + _last_line(result[1]))

    def out_bytes(self, result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (ReportScaling, OracleGrid, CliCold, VerifyBattery)}
