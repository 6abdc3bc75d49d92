"""Threshold-gated structured slow-query log.

Statements whose execute time crosses a millisecond threshold are logged
(as WARNING) through the standard :mod:`logging` channel
``repro.telemetry.slowlog`` with a structured payload: statement text,
query fingerprint, bind parameters (redacted by default — values are
replaced by their type names), cache-hit flag, row count, the chosen
plan and — when the per-operator profile was armed — estimated-vs-actual
cardinality records.

The threshold comes from the ``REPRO_SLOW_QUERY_MS`` environment
variable unless given explicitly; unset/blank means disabled, so the
off-path is one comparison per statement.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Optional

from repro.telemetry.sinks import json_text

__all__ = ["SlowQueryLog", "SLOW_QUERY_ENV", "slow_logger"]

SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_MS"

slow_logger = logging.getLogger("repro.telemetry.slowlog")


def _threshold_from_env() -> Optional[float]:
    raw = os.environ.get(SLOW_QUERY_ENV, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        slow_logger.warning("ignoring non-numeric %s=%r", SLOW_QUERY_ENV, raw)
        return None


class SlowQueryLog:
    """Gate + formatter for slow-statement records.

    ``threshold_ms=None`` reads ``REPRO_SLOW_QUERY_MS`` once at
    construction; pass a number to override (0 logs every statement).
    """

    def __init__(self, threshold_ms: Optional[float] = None,
                 redact_parameters: bool = True,
                 logger: Optional[logging.Logger] = None):
        if threshold_ms is None:
            threshold_ms = _threshold_from_env()
        self.threshold_ms = threshold_ms
        self.redact_parameters = redact_parameters
        self.logger = logger if logger is not None else slow_logger

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    def would_log(self, seconds: float) -> bool:
        """The per-statement gate: one comparison when disabled."""
        return (self.threshold_ms is not None
                and seconds * 1000.0 >= self.threshold_ms)

    def record(self, *, text: str, seconds: float,
               fingerprint: Optional[str] = None,
               parameters: Optional[dict] = None,
               plan: Optional[str] = None,
               cache_hit: Optional[bool] = None,
               rows: Optional[int] = None,
               profile: Optional[list] = None) -> Optional[dict]:
        """Log one slow statement; returns the payload (None if gated)."""
        if not self.would_log(seconds):
            return None
        payload: dict[str, Any] = {
            "event": "slow_query",
            "elapsed_ms": round(seconds * 1000.0, 3),
            "threshold_ms": self.threshold_ms,
            "statement": text,
        }
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if parameters:
            payload["parameters"] = self._render_parameters(parameters)
        if cache_hit is not None:
            payload["cache_hit"] = cache_hit
        if rows is not None:
            payload["rows"] = rows
        if plan is not None:
            payload["plan"] = plan
        if profile:
            payload["estimated_vs_actual"] = profile
        self.logger.warning("slow query (%.1fms): %s",
                            payload["elapsed_ms"],
                            json_text(payload))
        return payload

    def _render_parameters(self, parameters: dict) -> dict:
        if not self.redact_parameters:
            return dict(parameters)
        # Redacted form keeps the shape without leaking values: a slow-query
        # log routinely outlives the data-retention story of the data itself.
        return {name: f"<{type(value).__name__}>"
                for name, value in parameters.items()}

    def __str__(self) -> str:
        state = (f"threshold={self.threshold_ms}ms" if self.enabled
                 else "disabled")
        return f"SlowQueryLog({state}, redact={self.redact_parameters})"
