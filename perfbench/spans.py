"""In-memory span tracer that wraps the program's functions from outside.

A wrap point is an attribute of a module or class: the tracer replaces
it with a wrapper that records one span per call (name, start, end,
parent) and calls the original.  A function imported into several
modules is wrapped in each module that calls it, because each module
looks the name up in its own namespace.  ``restore`` puts every
original back.  Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable


class Tracer:
    def __init__(self, points: Iterable[tuple[object, str, str]],
                 after: dict[str, Callable[[], object]] | None = None):
        """``points`` are (owner, attribute, span name) triples.  ``after``
        maps a span name to a hook that runs after each such call, outside
        its span."""
        self.points = list(points)
        self.after = after or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrapper(self, original, name_id: int, after: Callable[[], object] | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                if after is not None:
                    after()

        return traced

    def install(self) -> None:
        """Wrap every point; a point whose attribute is gone is listed in ``missing``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name in self.points:
            # Read class attributes from __dict__ so methods stay plain functions.
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, self._name_id(name), self.after.get(name)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def root(self, name: str, on: bool = True):
        """Install the wrappers and open a root span ``name``; a no-op when not ``on``."""
        if not on:
            yield None
            return
        with self.installed(), self.span(name) as index:
            yield index

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one request."""
        name_id = self._name_id(name)
        parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    def write(self, path: str) -> None:
        """One JSON array per line: [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")


def self_times(spans: list[tuple[int, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls on one thread nest, so a span's children never overlap and
    their durations add up to the part of the span they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def roots_of(spans: list[tuple[int, float, float, int]]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
    return root


def aggregate(tracer: Tracer, under: str, nested_in: str | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, over spans below roots named ``under``.

    With ``nested_in``, only spans that have an ancestor of that name count.
    """
    spans = tracer.spans
    names = tracer.names
    selfs = self_times(spans)
    root = roots_of(spans)
    inside = None
    if nested_in is not None:
        inside = [False] * len(spans)
        for i, (name_id, _, _, parent) in enumerate(spans):
            inside[i] = parent >= 0 and (names[spans[parent][0]] == nested_in or inside[parent])
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name_id, start, end, _) in enumerate(spans):
        if names[spans[root[i]][0]] != under or (inside is not None and not inside[i]):
            continue
        row = out[names[name_id]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[i]
    return dict(out)
