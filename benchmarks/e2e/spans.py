"""In-memory spans recorded from the benchmark's side of public seams.

A span is ``[name, parent, request, start, end]``; spans of one client call
share a request id, and the parent is whichever span was open when this one
began.  The recorder serves the single closed-loop client: one stack, no
thread-local state.  Tracing reaches the program only through objects the
benchmark already hands to public functions — an engine passed to
``service.register``, a journal passed to ``feed.attach_journal``, a feed
subscriber — each wrapped in a proxy that opens a span around the call.
With ``enabled`` false every proxy calls straight through, which is how
the traced run measures its own untraced blocks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

NAME, PARENT, REQUEST, START, END = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._requests = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._requests += 1
        index = len(self.spans)
        self.spans.append([name, parent, self._requests, perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function):
        """``function`` with a span around each call while enabled."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write(self, path: Path, workload: str) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            {
                "id": index,
                "parent": span[PARENT],
                "request": span[REQUEST],
                "name": span[NAME],
                "start_us": round((span[START] - origin) * 1e6, 3),
                "end_us": round((span[END] - origin) * 1e6, 3),
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "spans": rows}))


class TimedEngine:
    """A ``RoutingEngine`` proxy: span ``engine.route`` around ``route``."""

    def __init__(self, engine, recorder: SpanRecorder) -> None:
        self._engine = engine
        self.name = engine.name
        self.route = recorder.wrap("engine.route", engine.route)

    def __getattr__(self, attribute: str):
        # peak_hours, batch_cost, cache_version, ...: the optional parts of
        # the engine protocol the service probes with getattr.
        return getattr(self._engine, attribute)


class TimedJournal:
    """A ``TrafficJournal`` proxy: span ``journal.log_traffic``."""

    def __init__(self, journal, recorder: SpanRecorder) -> None:
        self.log_traffic = recorder.wrap("journal.log_traffic", journal.log_traffic)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other (or, through clock skew, stick out of
    the parent), so the covered part is the union of the child intervals
    clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: count, median duration and median self time (seconds)."""
    selfs = self_times(spans)
    by_name: dict[str, tuple[list[float], list[float]]] = {}
    for span, self_s in zip(spans, selfs):
        totals, own = by_name.setdefault(span[NAME], ([], []))
        totals.append(span[END] - span[START])
        own.append(self_s)
    return {
        name: {
            "count": len(totals),
            "median_s": statistics.median(totals),
            "self_median_s": statistics.median(own),
        }
        for name, (totals, own) in by_name.items()
    }
