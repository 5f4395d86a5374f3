"""In-memory span recorder used by every benchmark process.

A span is (id, name, start_ns, end_ns, parent_id, count): ``count`` is the
number of calls a batch span covers, so per-call time is the duration over
the count.  Times come from the monotonic clock, which every process on the
machine shares, so spans recorded in child processes line up with the
parent's.  Spans stay in memory until the run ends and are written once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import count as _counter

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "count")


class Spans:
    """Span recorder; ``prefix`` keeps ids unique across processes."""

    def __init__(self, prefix=""):
        self.records = []
        self._prefix = prefix
        self._ids = _counter(1)
        self._stack = []

    @contextmanager
    def span(self, name, count=1):
        sid = f"{self._prefix}{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.monotonic_ns()
        try:
            yield sid
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.records.append((sid, name, start, end, parent, count))

    def adopt(self, records, parent):
        """Add spans recorded elsewhere, hanging their roots under parent."""
        for sid, name, start, end, p, n in records:
            self.records.append((sid, name, start, end,
                                 parent if p is None else p, n))

    def per_call_us(self, name):
        """Per-call microseconds of every span with this name."""
        return [(end - start) / 1e3 / n
                for _, nm, start, end, _, n in self.records if nm == name]
