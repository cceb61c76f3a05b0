"""Span tracer that wraps `ramify`'s public functions from outside the package.

Only the traced process installs it. `install()` replaces each public
function (and the public methods of public classes) of every `ramify`
module with a wrapper that records a span, in every namespace that bound
the function at import time: `ramify.mass.b_upper` is the same object as
`ramify.breaks.b_upper`, so both names are swapped. Generator functions are
left alone, since a wrapper would only time their creation.

A span is (name, start_ns, end_ns, parent). Spans stay in compact arrays in
memory and are written out once, by `dump()`, when the traced work ends.
`summarize()` reads span files back and derives per-name counts, inclusive
time and self time (duration minus the durations of direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

from oracles import model_lines

MODULES = ("rationals", "breaks", "fpspace", "filtration", "mass", "verify", "cli")


def _lines_hook(args, kwargs) -> int:
    """Lines `brute_force_mass(params, char_p_level)` walks: (p^dim - 1)/(p - 1)."""
    params = args[0]
    level = args[1] if len(args) > 1 else kwargs.get("char_p_level")
    if params.characteristic == 0:
        return model_lines(params.p, params.f, params.e, params.zeta_in_field, None)
    return model_lines(params.p, params.f, None, True, level)


# Counters computed from a call's arguments, keyed by span name.
COUNTER_HOOKS = {"mass.brute_force_mass": ("mass.lines_enumerated", _lines_hook)}


class Tracer:
    """Spans of one process; `child_dir` is where traced subprocesses write theirs."""

    def __init__(self, child_dir: str | None = None) -> None:
        self.child_dir = child_dir
        self.child_paths: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def next_child_path(self) -> str:
        path = os.path.join(self.child_dir, f"child-{len(self.child_paths)}.json")
        self.child_paths.append(path)
        return path

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                self.count(hook[0], hook[1](args, kwargs))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every public function of every ramify module, everywhere it is bound."""
        modules = {m: importlib.import_module(f"ramify.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                            self._originals.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name != "ramify" and not name.startswith("ramify."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names, four parallel integer lists, counters."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(paths: list[str]) -> dict:
    """Per span name: calls, inclusive ns and self ns, summed over span files.

    Returns {"calls": {...}, "total_ns": {...}, "self_ns": {...}, "counters": {...}}.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counters: dict[str, int] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = doc["names"]
        dur = [e - s for s, e in zip(doc["start"], doc["end"])]
        child = [0] * len(dur)
        for idx, par in enumerate(doc["parent"]):
            if par >= 0:
                child[par] += dur[idx]
        for idx, nid in enumerate(doc["name"]):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur[idx]
            self_ns[name] = self_ns.get(name, 0) + dur[idx] - child[idx]
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return {"calls": calls, "total_ns": total, "self_ns": self_ns, "counters": counters}
