"""Spans around the program's layer functions, recorded from outside.

A Tracer replaces a layer function in the module that calls it (for
instance tempcore.workload.build_core_times, which run_query calls) with a
wrapper that records a span, and puts the original back afterwards. No
module under src/ is changed. With memory=True every span also records
the tracemalloc peak while it ran; with memory=False the tracer instead
counts the collector's pauses through gc.callbacks.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

MIB = 2 ** 20


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: Any = None          # a summary of the result, never the result itself
    peak: int = 0             # traced bytes, max over the whole span
    self_peak: int = 0        # traced bytes, max while no child span ran
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, memory: bool) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.gc_full = 0
        self.gc_pause = 0.0
        self._gc_started = 0.0

    def wrap(self, name: str, fn: Callable,
             summarize: Callable[[Any], Any] | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if summarize is not None:
                span.info = summarize(result)
            return result
        return traced

    def _enter(self, name: str) -> Span:
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            if self._stack:
                parent = self.spans[self._stack[-1]]
                parent.self_peak = max(parent.self_peak, peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter())
        if parent is not None:
            self.spans[parent].children.append(len(self.spans))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.self_peak = max(span.self_peak, tracemalloc.get_traced_memory()[1])
            span.peak = max([span.self_peak]
                            + [self.spans[c].peak for c in span.children])
            tracemalloc.reset_peak()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_full += 1

    @contextmanager
    def patched(self, targets):
        """Trace (module, attribute, span name, summarize) targets while open."""
        originals = []
        try:
            for module, attr, name, summarize in targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, summarize))
            if self.memory:
                tracemalloc.start()
            else:
                gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            elif self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def find(self, name: str, parent: str) -> list[Span]:
        """Spans called `name` whose enclosing span is called `parent`."""
        return [s for s in self.spans if s.name == name and s.parent is not None
                and self.spans[s.parent].name == parent]
