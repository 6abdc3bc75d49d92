"""Benchmark-side spans: recorded around calls into each layer, from outside.

A span is ``name, start, end, parent`` plus the id of the statement it
belongs to.  Spans stay in memory during the run and are written as JSON
lines when it ends.  A span's *self time* is its duration minus the part of
that interval its children cover; a layer's self time is the sum over the
spans named ``<layer>.<stage>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional


@dataclass(slots=True)
class Span:
    """One recorded interval; ``id`` is its index in the log."""

    id: int
    name: str
    statement: int
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder (``begin``/``end`` cost two clock reads)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def begin(self, name: str, statement: int,
              parent: Optional[Span] = None) -> Span:
        span = Span(len(self.spans), name, statement,
                    None if parent is None else parent.id, perf_counter())
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: Span) -> None:
        span.end = perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name,
                    "statement": span.statement, "parent": span.parent,
                    "start": span.start, "end": span.end}) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of the children's
    intervals (clipped to the span, so overlapping children count once)."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.seconds - covered
    return result


def layer_of(name: str) -> str:
    """``"optimizer.search"`` -> ``"optimizer"``; a bare name is its own layer."""
    return name.split(".", 1)[0]
