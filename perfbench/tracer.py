"""In-memory span recorder that wraps functions at their import sites.

A span is ``(name, start, end, parent)``. Wrapping happens by replacing a
module attribute (``repro.sim.adaptive.g_txallo`` and so on) for the
duration of one traced operation; untraced operations run with every
original function in place, so the untraced timings carry no wrapper cost.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any

# Counts recorded on a span from the wrapped call's (args, kwargs, result).
Counter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 for a root span
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Site:
    """One import site: ``module.attr`` is traced as span ``name``."""

    module: ModuleType
    attr: str
    name: str
    count: Counter | None = None


class Tracer:
    """Records spans of wrapped calls; one tracer per traced operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # sites whose attribute does not exist
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def patched(self, sites: list[Site]) -> Iterator[None]:
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for s in sites:
                fn = getattr(s.module, s.attr, None)
                if fn is None:
                    self.missing.append(f"{s.module.__name__}.{s.attr}")
                    continue
                saved.append((s.module, s.attr, fn))
                setattr(s.module, s.attr, self.wrap(s.name, fn, s.count))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: total seconds, self seconds, call count, the
        per-call durations and the summed counts."""
        out: dict[str, dict[str, Any]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(
                s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": [], "counts": {}}
            )
            agg["s"] += s.duration
            agg["self_s"] += self_s
            agg["calls"] += 1
            agg["durations"].append(s.duration)
            for key, v in s.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0.0) + v
        return out

    def dump(self) -> list[dict[str, Any]]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]
