"""In-memory span tracer that hooks the public functions of a package.

``Tracer.install`` replaces every public function of the given modules, and
every public method of the classes they define, with a wrapper that records
one span per call: ``[name, start, end, parent, info]``. Every module
attribute of the package that is bound to a wrapped function is rebound too,
so ``from .x import y`` copies are traced as well. ``restore`` puts each
original object back. Nothing in the package is edited on disk.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``, with
the package prefix dropped; the first component is the span's layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
import traceback

NAME, START, END, PARENT, INFO = range(5)

# Tail percentiles tried from the highest down; the reported tail is the
# highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Tracer:
    """Spans of every hooked call, kept in memory until the run ends.

    ``extractors`` maps a span name to ``f(tracer, args, kwargs, result)``,
    whose return value is stored as the span's ``info``. An extractor that
    raises marks its span name as broken instead of failing the call.
    """

    def __init__(self, package: str, modules, extractors=None):
        self.package = package
        self.modules = list(modules)
        self.extractors = dict(extractors or {})
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A function that calls ``fn`` and records one span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = self.extractors.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extract is not None and name not in self.broken:
                try:
                    rec[INFO] = extract(self, args, kwargs, out)
                except Exception:
                    self.broken.add(name)
                    traceback.print_exc(file=sys.stderr)
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer hooks are already installed")
        by_id: dict[int, tuple[object, object]] = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    by_id[id(obj)] = (obj, self.wrap(name, obj))
                    self.installed.add(name)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer}.{attr}.{meth}"
                            self._replace(obj, meth, self.wrap(name, fn))
                            self.installed.add(name)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(mod, attr, hit[1])

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def to_jsonl(self, path) -> None:
        """Write the spans, one JSON array per line, times in seconds."""
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info], default=str) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans, kids, i: int, same_layer: bool = False) -> float:
    """Span duration minus the part of it that child spans cover.

    With ``same_layer`` children of the span's own layer count as self
    time: only the nearest descendants in other layers are subtracted.
    """
    name, start, end = spans[i][NAME], spans[i][START], spans[i][END]
    layer = layer_of(name)
    pending, cover = list(kids[i]), []
    while pending:
        c = pending.pop()
        if same_layer and layer_of(spans[c][NAME]) == layer:
            pending.extend(kids[c])
        else:
            cover.append((spans[c][START], spans[c][END]))
    return (end - start) - _covered(cover, start, end)


def outermost(spans, name: str) -> list[int]:
    """Indices of spans named ``name`` whose parent is not also ``name``,
    so a recursive function counts once per outer call."""
    return [i for i, rec in enumerate(spans)
            if rec[NAME] == name and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name)]


def has_ancestor(spans, i: int, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _rank(pct: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values, pct: float):
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least TAIL_BEYOND of ``n``
    samples above its nearest rank, or None when no percentile has."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct
    return None


def summarize(values) -> tuple[float, float, int]:
    """(p50, tail, n). With too few samples for any tail the p50 stands in."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    p50 = nearest_rank(ordered, 50.0)
    pct = tail_percentile(len(ordered))
    return p50, (p50 if pct is None else nearest_rank(ordered, pct)), len(ordered)
