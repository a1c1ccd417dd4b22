"""In-memory spans around the calls the benchmark itself makes.

A span is ``name``, ``start``, ``end`` (``time.perf_counter`` seconds of
the recording process), ``parent`` (index of the causing span in the
same list, ``None`` for a root) and ``request`` (the id every span of
one request shares).  Spans are kept in a list and written out once,
when the run ends.  Spans *inside* the program are a later change.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, request: str,
            parent: int | None = None) -> int:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "request": request})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: str, parent: int | None = None):
        """Time the block; yields the span's index for use as a parent."""
        index = self.add(name, time.perf_counter(), 0.0, request, parent)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()

    def extend(self, spans: list[dict]) -> None:
        """Append another process's spans, re-basing their parent links."""
        base = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append(dict(span, parent=None if parent is None
                                   else parent + base))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def durations_us(spans: list[dict], name: str) -> list[float]:
    return [(span["end"] - span["start"]) * 1e6
            for span in spans if span["name"] == name]


def write_spans(path: Path, spans: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    own = self_times(spans)
    partial = path.with_suffix(f".{os.getpid()}.{id(spans)}.partial")
    partial.write_text(json.dumps(
        [dict(span, self_s=own[i]) for i, span in enumerate(spans)]))
    os.replace(partial, path)
