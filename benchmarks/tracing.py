"""In-memory spans around calls into mstasep's public functions.

Spans are recorded from outside the package: ``Tracer.patched`` swaps module
attributes for timing wrappers inside a ``with`` block and restores them on
exit, so the package itself runs unmodified.  Every span keeps its name,
start, end, parent span and the job it belongs to; ``write`` dumps them as
JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of every job, and the counts ``summaries`` take from return values.

    ``summaries`` maps a span name to a function from that call's return value
    to a dict of counts; the counts of the current job are in ``counts``.
    """

    def __init__(self, summaries=None):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.summaries = summaries or {}
        self.counts: dict[str, object] = {}
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack = self.spans, self._stack
        summary = self.summaries.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if summary is not None:
                self.counts.update(summary(result))
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span of its own."""
        return self.wrap(fn, name)(*args)

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name)`` targets for the block's duration.

        A target the package no longer has is skipped; its metric reads 0.
        """
        targets = [(mod, attr, name) for mod, attr, name in targets if hasattr(mod, attr)]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, name in targets:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def start_job(self, job: int) -> None:
        self.job = job
        self.counts = {}

    def self_times(self, job: int) -> dict[str, float]:
        """Seconds per span name of one job, minus the time its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, j in self.spans:
            if j == job and parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, j) in enumerate(self.spans):
            if j == job:
                out[name] += end - start - child[i]
        return dict(out)

    def span_seconds(self, job: int, name: str) -> float:
        """Summed duration of one job's spans called ``name``."""
        return sum(end - start for n, start, end, _, j in self.spans if j == job and n == name)

    def root_seconds(self, job: int) -> float:
        """Summed duration of one job's top-level spans: its self times add up to this."""
        return sum(end - start for _, start, end, parent, j in self.spans if j == job and parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                rec = {"id": i, "job": job, "name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(rec) + "\n")
