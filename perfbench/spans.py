"""In-memory spans recorded around calls into the library.

A traced run replaces public names with wrappers where callers look them
up (``lightcone.cli.recover_lorentz``, ``lightcone.recover.fit_affine``,
...).  Each wrapper records a span -- id, parent, name, start, end -- and
may record counts from the call's arguments and result.  Spans stay in
memory and are written once, when the run ends.  With ``memory=True`` each
span also records its tracemalloc peak above the traced size at its start;
that pass is kept apart from the timed ones so tracemalloc's cost stays out
of the durations.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.memory = memory
        self._stack: list[dict] = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            **attrs,
        }
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for outer in self._stack:
                outer["_max"] = max(outer["_max"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_max"] = current
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            for outer in self._stack:
                outer["_max"] = max(outer["_max"], peak)
            tracemalloc.reset_peak()
            span["peak_bytes"] = span.pop("_max") - span.pop("_base")
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording a span named ``name``; ``hook(tracer, span,
        args, kwargs, result)`` runs after a call that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if hook is not None:
                hook(self, s, args, kwargs, result)
            return result

        return wrapper

    def exported(self) -> list[dict]:
        return [{k: v for k, v in s.items() if not k.startswith("_")} for s in self.spans]


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each ``(module, attr, span_name, hook)`` target by a traced
    wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.
    Spans of one thread nest, so the children never overlap."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own
