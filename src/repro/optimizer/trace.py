"""Optimization tracing — the "demonstrator" of Section 7.

The prototype described in the paper includes a demonstrator that visualizes
the optimization process by tracing every step.  :class:`OptimizationTrace`
records transformation-rule applications and the final decision so that the
process can be rendered as text (``render()``) and inspected by tests and
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TraceEvent", "OptimizationTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded optimization step."""

    kind: str               # "transformation" or "decision"
    rule: str
    before: str
    after: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"[{self.kind}] {self.rule}: {self.before}  =>  {self.after}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


@dataclass
class OptimizationTrace:
    """Recorder for the steps of one optimization run."""

    enabled: bool = True
    events: list[TraceEvent] = field(default_factory=list)
    #: hard cap so pathological runs cannot exhaust memory
    max_events: int = 100_000

    def record_transformation(self, rule: str, before: str, after: str,
                              detail: str = "") -> None:
        self._record(TraceEvent("transformation", rule, before, after, detail))

    def record_decision(self, before: str, after: str, detail: str = "") -> None:
        self._record(TraceEvent("decision", "final-plan", before, after, detail))

    def _record(self, event: TraceEvent) -> None:
        if not self.enabled or len(self.events) >= self.max_events:
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def transformations(self) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == "transformation"]

    def rules_applied(self) -> list[str]:
        """Names of all rules that fired, in order."""
        return [event.rule for event in self.transformations()]

    def rule_was_applied(self, rule_name: str) -> bool:
        return any(event.rule.startswith(rule_name) for event in self.events)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the recorded steps."""
        events = self.events if limit is None else self.events[:limit]
        lines = [f"optimization trace ({len(self.events)} events)"]
        lines.extend(f"  {index + 1:4d}. {event}"
                     for index, event in enumerate(events))
        if limit is not None and len(self.events) > limit:
            lines.append(f"  ... {len(self.events) - limit} more events")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
