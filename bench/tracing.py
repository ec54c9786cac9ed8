"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded around calls into the library made by the benchmark
itself: name ("<layer>.<call>"), start, end and parent span.  Nothing is
written until the run ends.  `NULL` is the recorder of untraced passes; its
spans cost one attribute lookup and a no-op context manager.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name, in seconds."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name before its first dot): span durations
        minus the time their child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name.split(".", 1)[0]] += end - start - child_time[span_id]
        return out

    def as_json(self) -> dict:
        return {
            "spans": [{"id": i, "name": name, "start": start, "end": end,
                       "parent": parent}
                      for i, name, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


class _NullRecorder:
    @contextmanager
    def span(self, name: str):
        yield

    def count(self, key: str, n: int = 1) -> None:
        pass

    def peak(self, key: str, value: int) -> None:
        pass


NULL = _NullRecorder()
