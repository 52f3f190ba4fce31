"""Span tracing of dp2 from outside the package.

Every public module-level function of the dp2 layers, and the sympy entry
points dp2 calls, is replaced by a wrapper that records a span: name, start,
end, parent span and run id.  A function can be bound under several names
(``phi`` lives in geometry, covers and cli; ``cli._COMMANDS`` and
``covers._COVERS`` hold functions in containers), so every binding in every
dp2 module namespace is patched, including dict values and tuples inside
them.  Class methods are left alone, so element arithmetic such as
``PrimeFieldElt.__mul__`` is never wrapped.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter
from math import gcd

LAYERS = {
    "cli": ["dp2.cli"],
    "covers": ["dp2.covers"],
    "geometry": ["dp2.geometry"],
    "genus1": ["dp2.genus1"],
    "surface": ["dp2.surface"],
    "fforacle": ["dp2.fforacle"],
    "exactalg": [
        "dp2.exactalg.factor",
        "dp2.exactalg.field",
        "dp2.exactalg.modgcd",
        "dp2.exactalg.poly",
        "dp2.exactalg.quotient",
    ],
}

# sympy entry points called by dp2; sympy's own internal calls bind these
# names elsewhere, so only the calls crossing from dp2 into sympy are traced
SYMPY_FUNCTIONS = ["expand", "resultant", "gcd", "isprime", "nextprime", "prevprime"]
SYMPY_METHODS = [("Poly", "factor_list")]

NAMESPACES = ["dp2.exactalg"] + [m for mods in LAYERS.values() for m in mods]

# span fields
NAME, START, END, PARENT, RUN, RAISED = range(6)


def _normalized_pair(pair) -> tuple[int, int]:
    u, v = int(pair[0]), int(pair[1])
    g = gcd(u, v) or 1
    u, v = u // g, v // g
    return (-u, -v) if u < 0 or (u == 0 and v < 0) else (u, v)


class Tracer:
    """Records spans of wrapped calls, plus the argument counters the
    per-layer ratios need."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._seen_f1: set = set()
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = {"covers.f1": self._observe_f1, "exactalg.quotient_gcd": self._observe_gcd}.get(name)

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id, False]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe_f1(self, args):
        key = (self.run_id, _normalized_pair(args[1]))
        if key in self._seen_f1:
            self.counts["covers.f1.repeats"] += 1
        self._seen_f1.add(key)

    def _observe_gcd(self, args):
        if getattr(args[0].field, "degree", 0) > 6:
            self.counts["exactalg.quotient_gcd.calls_deg_gt6"] += 1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function."""
        import sympy

        wrappers = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                        continue
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for attr in SYMPY_FUNCTIONS:
            fn = getattr(sympy, attr)
            wrappers.setdefault(fn, self.wrap(f"sympy.{attr}", fn))
            self._set(sympy, attr, wrappers[fn])
        for cls_name, attr in SYMPY_METHODS:
            cls = getattr(sympy, cls_name)
            fn = cls.__dict__[attr]
            self._set(cls, attr, self.wrap(f"sympy.{attr}", fn))
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                self._rebind(mod, attr, obj, wrappers)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _rebind(self, owner, key, obj, wrappers) -> None:
        if inspect.isfunction(obj) and obj in wrappers:
            self._set(owner, key, wrappers[obj])
        elif isinstance(obj, dict):
            for k, v in list(obj.items()):
                self._rebind(obj, k, v, wrappers)
        elif isinstance(obj, tuple) and isinstance(owner, dict):
            new = tuple(wrappers.get(v, v) if inspect.isfunction(v) else v for v in obj)
            if new != obj:
                self._set(owner, key, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def write(path, tracers) -> None:
    """Write the spans of several tracers to one gzipped file of JSON lines
    [name, start, end, parent, run, raised], parents renumbered to match."""
    offset = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                parent = span[PARENT] + offset if span[PARENT] >= 0 else -1
                fh.write(json.dumps(span[:PARENT] + [parent] + span[PARENT + 1:]) + "\n")
            offset += len(tracer.spans)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-function calls / self_s / raised, per-layer self_s, and the
    ratios the benchmark reports."""
    selfs = self_times(spans)
    m: Counter = Counter()
    for span, st in zip(spans, selfs):
        name = span[NAME]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += st
        m[f"{name}.raised"] += int(span[RAISED])
        m[f"{name.split('.')[0]}.self_s"] += st
        parent = span[PARENT]
        if name == "geometry.classify_point" and parent >= 0 and spans[parent][NAME] == "covers.find_very_general_point":
            m["covers.find_very_general_point.candidates"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    m["covers.f1.repeat_ratio"] = ratio(counts["covers.f1.repeats"], m["covers.f1.calls"])
    for name in ("covers.evaluate_cover", "fforacle.phi_modp"):
        m[f"{name}.success_ratio"] = ratio(m[f"{name}.calls"] - m[f"{name}.raised"], m[f"{name}.calls"])
    m["exactalg.quotient_gcd.calls_deg_gt6"] = counts["exactalg.quotient_gcd.calls_deg_gt6"]
    return dict(m)
