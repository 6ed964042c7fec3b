"""In-memory spans around calls into the program, and self time per module.

A span records its name, start, end, parent span and the round it belongs
to, plus free attributes such as the layer or CSE method. Spans stay in
memory and are written out with the run's report when the benchmark ends.
The module of a span is the part of its name before the first dot
(``cse.td`` belongs to ``cse``); ``bench`` spans are the harness's own.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records nested spans; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


class NullTracer:
    """The tracer of untraced rounds: every span is a shared no-op."""

    enabled = False
    round = -1
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Calls run on one thread, so children never overlap and their durations
    can simply be summed.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += duration(rec)
    return [duration(rec) - child_time[rec["id"]] for rec in spans]


def module_self_time(spans: list[dict], under: str) -> dict[str, float]:
    """Total self time per module over the spans inside ``under`` spans.

    ``under`` names the harness span that encloses the timed operation, so
    set-up and oracle calls do not count towards the modules' share of it.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    total: dict[str, float] = defaultdict(float)
    for rec in spans:
        p = rec["parent"]
        inside[rec["id"]] = rec["name"] == under or (p is not None and inside[p])
        if inside[rec["id"]]:
            total[rec["name"].split(".", 1)[0]] += selfs[rec["id"]]
    return dict(total)
