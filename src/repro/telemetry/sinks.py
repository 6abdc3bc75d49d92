"""Pluggable span sinks: where finished statement traces go.

A sink is any object with ``emit(span)``; the :class:`~repro.telemetry.spans.Tracer`
calls it once per finished root span (exceptions are logged, never raised
into the statement).  Two implementations cover the common cases:
:class:`MemorySink` for tests and ad-hoc inspection, :class:`JsonlSink`
for durable JSON-Lines traces (one span tree per line).  :func:`json_text`
is the JSON every telemetry text surface writes.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any, Optional, Union

from repro.datamodel.oid import OID, is_collection

__all__ = ["JsonlSink", "MemorySink", "json_text"]


def json_text(payload: Any, **options: Any) -> str:
    """``json.dumps(payload, default=str, **options)``, with every OID in
    *payload* written as its ``Class:serial`` text.

    An OID is a tuple, and the encoder writes a tuple as an array without
    consulting ``default``: left alone, ``OID('Paragraph', 3)`` would come
    out as ``["Paragraph", 3]``.
    """
    return json.dumps(_oids_as_text(payload), default=str, **options)


def _oids_as_text(value: Any) -> Any:
    if isinstance(value, OID):
        return str(value)
    if isinstance(value, dict):
        return {key: _oids_as_text(item) for key, item in value.items()}
    if is_collection(value) and not isinstance(value, (set, frozenset)):
        return [_oids_as_text(item) for item in value]
    return value  # sets and what json cannot write go through ``default``


class MemorySink:
    """Collects emitted span trees in a list (handy in tests)."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    def emit(self, span) -> None:
        with self._lock:
            self.spans.append(span)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)


class JsonlSink:
    """Writes each finished span tree as one JSON line.

    Accepts either a path (opened lazily in append mode, so a sink can be
    configured before the directory's first trace) or an already-open
    text stream such as ``sys.stderr``.
    """

    def __init__(self, target: Union[str, "os.PathLike[str]", IO[str]]):
        self._path: Optional[str] = None
        self._stream: Optional[IO[str]] = None
        if hasattr(target, "write"):
            self._stream = target
        else:
            self._path = os.fspath(target)
        self._lock = threading.Lock()

    def emit(self, span) -> None:
        line = json_text(span.to_dict())
        with self._lock:
            if self._stream is None:
                self._stream = open(self._path, "a", encoding="utf-8")
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._path is not None and self._stream is not None:
                self._stream.close()
                self._stream = None

    def __str__(self) -> str:
        target = self._path if self._path is not None else self._stream
        return f"JsonlSink({target!r})"
