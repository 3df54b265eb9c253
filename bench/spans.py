"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent).  Calls that happen once per transport
step or once per sweep point would make millions of spans, so they are
recorded as aggregated frames instead: each name keeps its call count, total
and self seconds, and its time is subtracted from the enclosing frame just as
a span's is.  Self time is a frame's duration minus the time of its direct
children, so the self times of all names add up to the root span.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None]
        self.totals = {}    # name -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []    # open frames: [span index or None, child_s]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _close(self, name, start, end, frame):
        dt = end - start
        if self._stack:
            self._stack[-1][1] += dt
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dt
        entry[2] += dt - frame[1]

    def _parent(self):
        for index, _ in reversed(self._stack):
            if index is not None:
                return index
        return None

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._parent()]
        self.spans.append(rec)
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._close(name, rec[1], rec[2], frame)

    def wrap(self, name: str, fn):
        """``fn`` recorded as an aggregated frame on every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [None, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._close(name, start, end, frame)

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Self seconds of every name equal to ``prefix`` or under ``prefix.``."""
        return sum(
            (entry[2] for name, entry in self.totals.items()
             if name == prefix or name.startswith(prefix + ".")),
            0.0,
        )

    def write(self, path, extra: dict) -> None:
        payload = dict(extra, spans=self.spans, totals=self.totals, counters=self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
