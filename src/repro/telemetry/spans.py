"""Statement tracing: one span tree per statement.

A :class:`TraceSpan` is one timed stage of a statement's lifecycle —
analyze → plan-cache lookup → optimize → compile → execute — plus
cross-cutting children such as write-gate waits and adaptive-feedback
replans.  A :class:`Tracer` owns a bounded ring buffer of finished
statement trees and fans each one out to pluggable sinks
(:mod:`repro.telemetry.sinks`).

The design constraint is that tracing *off* must cost one branch per
instrumentation point: deep layers never talk to a tracer directly, they
call :func:`child_span`, which reads the thread-local *current span* and
returns a shared no-op singleton (no allocation) unless a statement span
is active on the calling thread.  Only statement entry points (the query
service, the cursor facade, the session) consult a :class:`Tracer` and
open root spans.

Thread model: a span tree is built by the one thread executing its
statement (``current span`` is thread-local, saved and restored around
every nesting, so service re-entry from method implementations nests
correctly).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from typing import Any, Iterable, Optional

from repro.telemetry.sinks import json_text

__all__ = ["TraceSpan", "Tracer", "NOOP_SPAN", "current_span", "child_span",
           "annotate_current", "activation"]

logger = logging.getLogger("repro.telemetry")

_state = threading.local()
_ids = itertools.count(1)


def current_span() -> Optional["TraceSpan"]:
    """The span active on the calling thread (None = tracing inactive)."""
    return getattr(_state, "span", None)


class TraceSpan:
    """One timed, attributed stage of a statement's execution."""

    __slots__ = ("name", "span_id", "trace_id", "parent_id", "started",
                 "ended", "start_time", "attributes", "children", "status",
                 "error")

    def __init__(self, name: str, trace_id: int,
                 parent_id: Optional[int] = None, **attributes: Any):
        self.name = name
        self.span_id = next(_ids)
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.started = time.perf_counter()
        self.start_time = time.time()
        self.ended: Optional[float] = None
        self.attributes = attributes
        self.children: list[TraceSpan] = []
        self.status = "ok"
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def child(self, name: str, **attributes: Any) -> "TraceSpan":
        """Create (and attach) a child span, started now."""
        child = TraceSpan(name, trace_id=self.trace_id,
                          parent_id=self.span_id, **attributes)
        self.children.append(child)
        return child

    def child_event(self, name: str, seconds: float,
                    **attributes: Any) -> "TraceSpan":
        """Attach a child for work measured elsewhere (e.g. the accumulated
        fetch time of a streamed cursor): it ends now and started *seconds*
        ago."""
        child = self.child(name, **attributes)
        child.started = child.started - max(seconds, 0.0)
        child.start_time = child.start_time - max(seconds, 0.0)
        child.ended = time.perf_counter()
        return child

    def annotate(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Close the span (idempotent); *error* marks it failed."""
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"
        if self.ended is None:
            self.ended = time.perf_counter()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    def find(self, name: str) -> Optional["TraceSpan"]:
        """First span named *name* in this subtree (pre-order), or None."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def names(self) -> list[str]:
        """Pre-order span names of the subtree (the shape tests' golden)."""
        collected = [self.name]
        for child in self.children:
            collected.extend(child.names())
        return collected

    def to_dict(self) -> dict:
        """JSON-serializable representation of the subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_ms": round(self.duration_seconds * 1000.0, 4),
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __str__(self) -> str:
        return (f"TraceSpan({self.name}, {self.duration_ms:.3f}ms, "
                f"{self.status}, {len(self.children)} children)")

    @property
    def duration_ms(self) -> float:
        return self.duration_seconds * 1000.0


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager activating a span as the thread's current span and
    finishing it on exit (error status on exception, which re-raises)."""

    __slots__ = ("span", "_previous", "_tracer")

    def __init__(self, span: TraceSpan, tracer: Optional["Tracer"] = None):
        self.span = span
        self._tracer = tracer

    def __enter__(self) -> TraceSpan:
        self._previous = getattr(_state, "span", None)
        _state.span = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _state.span = self._previous
        self.span.finish(error=exc)
        if self._tracer is not None:
            self._tracer.record(self.span)
        return False


class _Activation:
    """Activate an already-open span without finishing it on exit.

    Used by the streamed-cursor path, where the statement span stays open
    until the stream exhausts but plan preparation must nest under it.
    An exception inside the body marks the span failed (and re-raises).
    """

    __slots__ = ("span", "_previous")

    def __init__(self, span: TraceSpan):
        self.span = span

    def __enter__(self) -> TraceSpan:
        self._previous = getattr(_state, "span", None)
        _state.span = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _state.span = self._previous
        if exc is not None:
            self.span.status = "error"
            self.span.error = f"{exc_type.__name__}: {exc}"
        return False


def child_span(name: str, **attributes: Any):
    """Open a child of the thread's current span — or a shared no-op when
    no statement span is active (the single-branch tracing-off path)."""
    parent = getattr(_state, "span", None)
    if parent is None:
        return NOOP_SPAN
    return _ActiveSpan(parent.child(name, **attributes))


def annotate_current(**attributes: Any) -> None:
    """Attach attributes to the current span; no-op when tracing is off."""
    span = getattr(_state, "span", None)
    if span is not None:
        span.attributes.update(attributes)


def activation(span: Optional[TraceSpan]):
    """Make *span* current for the ``with`` body without finishing it
    (no-op for ``span=None``) — see :class:`_Activation`."""
    if span is None:
        return NOOP_SPAN
    return _Activation(span)


class Tracer:
    """Records statement span trees into a ring buffer and sinks.

    Disabled by default: :meth:`span` and :meth:`begin_root` return the
    no-op singleton / None without allocating.  Enable per service
    (``QueryService(tracing=True)``, ``connect(..., tracing=True)``) or
    globally via the ``REPRO_TRACE`` environment variable.
    """

    def __init__(self, enabled: bool = False, capacity: int = 256,
                 sinks: Iterable[Any] = ()):
        self.enabled = enabled
        self._ring: deque[TraceSpan] = deque(maxlen=max(capacity, 1))
        self._lock = threading.Lock()
        self.sinks = list(sinks)

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Context manager for one statement span.

        Auto-nests: when a span is already active on this thread (service
        re-entry, a DML statement's WHERE-query), the new span becomes a
        child of it instead of a second root.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = getattr(_state, "span", None)
        if parent is not None:
            return _ActiveSpan(parent.child(name, **attributes))
        return _ActiveSpan(TraceSpan(name, trace_id=next(_ids), **attributes),
                           tracer=self)

    def begin_root(self, name: str, **attributes: Any) -> Optional[TraceSpan]:
        """Open a root span with a manual lifecycle (the streamed-cursor
        path): returns None when disabled *or* when a span is already
        active on this thread (nested statements are traced by their
        owner's context managers instead).  Pair with :meth:`finish`."""
        if not self.enabled or getattr(_state, "span", None) is not None:
            return None
        return TraceSpan(name, trace_id=next(_ids), **attributes)

    def finish(self, span: Optional[TraceSpan],
               error: Optional[BaseException] = None) -> None:
        """Finish a :meth:`begin_root` span and record it (idempotent)."""
        if span is None or span.ended is not None:
            return
        span.finish(error=error)
        self.record(span)

    def record(self, span: TraceSpan) -> None:
        """Append a finished root span to the ring and emit it to sinks."""
        with self._lock:
            self._ring.append(span)
        for sink in self.sinks:
            try:
                sink.emit(span)
            except Exception:  # a broken sink must never fail a statement
                logger.exception("span sink %r failed", sink)

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def recent(self, n: Optional[int] = None) -> list[TraceSpan]:
        """The most recent finished statement spans, oldest first."""
        with self._lock:
            spans = list(self._ring)
        return spans if n is None else spans[-n:]

    def export_jsonl(self, n: Optional[int] = None) -> str:
        """The recent span trees as JSON Lines (one tree per line)."""
        return "\n".join(json_text(span.to_dict()) for span in self.recent(n))

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __str__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self)} spans, {len(self.sinks)} sinks)"
