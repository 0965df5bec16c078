"""Spans recorded around the benchmark's calls into the gamefibers package.

A span has a name, start and end times, the span that was open when it
began (its parent), the operation it belongs to, whether the call raised,
and free-form annotations (input sizes, result facts).  Spans are kept in
memory and written out when the run ends.  With tracing off every hook is
a plain call, so the traced and untraced runs execute the same operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None             # operation id stamped on new spans
        self._open: list[int] = []
        self._last_closed = None

    def call(self, fn, *args, **kwargs):
        """Call a public library function inside a span named
        ``<module>.<function>``, e.g. ``fibers.generic_rank``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__):
            return fn(*args, **kwargs)

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def annotate(self, **info):
        """Attach facts to the most recently closed span."""
        if self.enabled and self._last_closed is not None:
            self.spans[self._last_closed]["info"].update(info)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append({"name": self.name, "layer": self.name.split(".", 1)[0],
                        "start": time.perf_counter(), "end": None,
                        "parent": t._open[-1] if t._open else None,
                        "op": t.op, "error": False, "info": {}})
        t._open.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        rec = t.spans[self.index]
        rec["end"] = time.perf_counter()
        rec["error"] = exc_type is not None
        t._open.pop()
        t._last_closed = self.index
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans
    of one thread nest without overlap, so the children's durations add."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


def by_name(spans: list[dict]) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for rec in spans:
        out[rec["name"]].append(rec)
    return out


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]
