"""In-memory spans around the benchmark's calls into the library.

A span records its name, start, end, parent span and job id, plus counts the
caller attaches (houses, trials, ...).  Spans stay in memory until the run
ends.  When tracing is off, ``Tracer.span`` hands out one shared no-op span,
so untraced passes pay only a method call per library call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Span:
    __slots__ = ("tracer", "name", "attrs", "start", "end", "parent", "job", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.parent = tr.stack[-1].index if tr.stack else None
        self.job = tr.job
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self.tracer.stack.pop()
        return False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans while ``enabled``; ``job`` is (pass number, job name)."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: tuple[int, str] | None = None

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, attrs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pass": s.job[0],
                "job": s.job[1],
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
