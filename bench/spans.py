"""Spans and counters around calls into hallie's public functions.

The tracer works from outside the package: it replaces a function in every
loaded ``hallie`` module that bound it (``hom_dim`` lives in both
``hallie.reps`` and ``hallie.hall``, for example), or a method on its class,
and puts every original back when the ``installed`` block ends.  Private
helpers and closures are out of its reach.

Spans record name, start, end and parent.  They stay in memory, in flat
arrays, until ``dump`` writes them out; ``summarize`` turns them into
per-name call counts, inclusive seconds and self seconds.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn: Callable, name: str | Callable[..., str],
             on_result: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span.  ``name`` may be a function of
        the call's arguments; ``on_result(result, args, kwargs)`` runs after
        the span is closed, so its cost lands outside every span."""
        fixed = None if callable(name) else self._name_id(name)
        name_of = name if callable(name) else None
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock, name_id = self._stack, time.perf_counter, self._name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fixed if name_of is None else name_id(name_of(*args, **kwargs)))
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def yields(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: count calls and items yielded.  A
        generator's time interleaves with its consumer's, so no span."""
        counters = self.counters
        calls, yielded = name + ".calls", name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            for item in fn(*args, **kwargs):
                counters[yielded] += 1
                yield item

        return wrapper

    def replace(self, fn: Callable, wrapper: Callable) -> int:
        """Replace fn by wrapper in every loaded hallie module that bound
        it; returns how many bindings were replaced."""
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hallie" or modname.startswith("hallie.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is bound in no hallie module")
        return hits

    def replace_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def dump(self, path: str) -> None:
        """One JSON object per line: a header with the name table and the
        counters, then one [name, parent, start, end] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "counters": dict(self.counters),
                                 "spans": len(self.span_name)}) + "\n")
            names = self.names
            for nid, parent, start, end in zip(self.span_name, self.span_parent,
                                               self.span_start, self.span_end):
                fh.write(f'["{names[nid]}",{parent},{start!r},{end!r}]\n')


def load_spans(path: str) -> tuple[dict, list[tuple[str, int, float, float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return header, spans


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``s`` (inclusive seconds) over the
    outermost spans of that name, and ``self_s``, each span's duration
    minus the time its child spans cover.  A span nested in another of the
    same name (a recursive layer) adds to self time only, so no second is
    counted twice.  Spans are in start order, so parents come first."""
    out: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    ancestors: list[frozenset] = [frozenset()] * len(spans)
    chains: dict[tuple[frozenset, str], frozenset] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            key = (ancestors[parent], spans[parent][0])
            chain = chains.get(key)
            if chain is None:
                chain = chains[key] = key[0] | {key[1]}
            ancestors[i] = chain
            child_time[parent] += end - start
    for i, (name, parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["self_s"] += (end - start) - child_time[i]
        if name not in ancestors[i]:
            entry["calls"] += 1
            entry["s"] += end - start
    return out
