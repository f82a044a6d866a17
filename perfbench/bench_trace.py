"""Spans, counters and function wrappers for the traced benchmark run.

A span is one call of a wrapped function (or a benchmark step): its name,
start, end, the span that caused it, and whatever counts its probe read from
the call's arguments and result.  Spans stay in memory; the benchmark turns
them into per-layer metrics when the run ends.

The wrappers live here, in the benchmark, and are installed at run time on
the program's modules.  The program's files are not changed.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from one thread; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= max(a, reach):
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def _wrap(qualname, fn, recorder, probe, measure_alloc):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(qualname) as s:
            own_trace = measure_alloc and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if own_trace:
                    s.info["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if probe is not None:
                s.info.update(probe(args, kwargs, result))
            return result

    return wrapper


def install(recorder: Recorder, package: str, probes: dict, measure_alloc=frozenset()):
    """Wrap every public function defined in ``package``'s loaded modules.

    Each wrapper is bound under every ``package.*`` namespace that binds the
    original function, so ``from .mod import f`` call sites are traced too.
    ``probes`` maps "module.function" to ``probe(args, kwargs, result) ->
    dict``; names in ``measure_alloc`` also record the tracemalloc peak of the
    call.  Returns (wrapped names, an undo function).
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    wrapped, undo = {}, []
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            qual = f"{layer}.{name}"
            wrapped[id(fn)] = (fn, _wrap(qual, fn, recorder, probes.get(qual), qual in measure_alloc))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                setattr(mod, name, wrapped[id(obj)][1])
                undo.append((mod, name, obj))

    def uninstall():
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    names = sorted(w.__wrapped__.__module__.rpartition(".")[2] + "." + w.__name__
                   for _, w in wrapped.values())
    return names, uninstall
