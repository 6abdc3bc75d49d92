"""Per-operator runtime instrumentation (the EXPLAIN ANALYZE substrate).

A :class:`PlanProfile` collects, for every physical operator of one plan
execution, how often the operator was opened, how many rows it produced,
and how much wall-clock time was spent pulling those rows (*inclusive* of
the operator's children, the conventional EXPLAIN ANALYZE accounting).

Both execution engines thread an optional profile through their operator
dispatch — the compiled engine (:func:`repro.physical.executor.
prepare_plan` / ``execute_plan``) and the reference interpreter
(:func:`repro.physical.interpreter.execute_plan_interpreted`) — so
estimated-vs-actual reports can be produced for any plan on either.
:func:`render_explain_analyze` renders the plan tree with the cost model's
estimates next to the measured counters; :func:`estimated_vs_actual`
returns the same comparison as structured records (the differential fuzz
harness' sanity oracle); :func:`explain_analyze` renders the report every
EXPLAIN ANALYZE entry point shares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.physical.batch import Batch
from repro.physical.plans import PhysicalOperator

__all__ = ["OperatorCounters", "PlanProfile", "ExplainReport",
           "estimated_vs_actual", "divergent_operators", "explain_analyze",
           "misestimation", "profile_summary", "render_explain_analyze"]


class ExplainReport(str):
    """The rendered text of an EXPLAIN / EXPLAIN ANALYZE, carrying the
    structured per-operator records alongside.

    A plain ``str`` subclass: every existing consumer (statement router,
    cursors, tests comparing report text) keeps working unchanged, while
    programmatic callers read ``.records`` — the
    :func:`estimated_vs_actual` dict list — instead of parsing the text.
    """

    records: Optional[list[dict]]

    def __new__(cls, text: str, records: Optional[list[dict]] = None):
        report = super().__new__(cls, text)
        report.records = records
        return report


@dataclass
class OperatorCounters:
    """Measured execution counters of one physical operator."""

    opens: int = 0
    rows: int = 0
    seconds: float = 0.0


class PlanProfile:
    """Collects :class:`OperatorCounters` per operator of one plan.

    Counters are keyed by operator *identity*: structurally equal operators
    appearing at different positions of one plan keep separate counters as
    long as they are distinct objects (which plan construction guarantees
    for all practically occurring plans).
    """

    def __init__(self) -> None:
        self._counters: dict[int, tuple[PhysicalOperator,
                                        OperatorCounters]] = {}

    def counters_for(self, plan: PhysicalOperator) -> OperatorCounters:
        """The (shared, mutable) counters of *plan*, created on first use."""
        entry = self._counters.get(id(plan))
        if entry is None:
            entry = (plan, OperatorCounters())
            self._counters[id(plan)] = entry
        return entry[1]

    def wrap(self, plan: PhysicalOperator,
             batches: Iterator[Batch]) -> Iterator[Batch]:
        """Wrap the batch iterator *batches* so rows (the batches' lengths)
        and (inclusive) time are counted, one clock read per batch."""
        counters = self.counters_for(plan)
        counters.opens += 1
        return self._count(batches, counters)

    @staticmethod
    def _count(batches: Iterator[Batch],
               counters: OperatorCounters) -> Iterator[Batch]:
        while True:
            started = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                counters.seconds += time.perf_counter() - started
                return
            counters.seconds += time.perf_counter() - started
            counters.rows += batch.length
            yield batch

    def record(self, plan: PhysicalOperator, rows: int,
               seconds: float) -> None:
        """Record one materialized execution (the interpreter's accounting,
        which produces whole row lists instead of streaming)."""
        counters = self.counters_for(plan)
        counters.opens += 1
        counters.rows += rows
        counters.seconds += seconds

    def reset(self) -> None:
        """Forget every counter, so one profiled executable can watch
        another execution from zero."""
        self._counters.clear()

    def actual_rows(self, plan: PhysicalOperator) -> int:
        """Rows *plan* produced (0 when it never ran)."""
        entry = self._counters.get(id(plan))
        return entry[1].rows if entry is not None else 0

    def __len__(self) -> int:
        return len(self._counters)


def misestimation(estimated: float, actual: float) -> float:
    """``max(est, actual) / min(est, actual)`` with both sides clamped to at
    least one row — the symmetric misestimation factor."""
    low = max(min(estimated, actual), 1.0)
    high = max(estimated, actual, 1.0)
    return high / low


def estimated_vs_actual(plan: PhysicalOperator, profile: PlanProfile,
                        cost_model=None) -> list[dict]:
    """Per-operator estimate/actual records, root first (pre-order).

    Each record carries the operator description, the cost model's
    estimated output cardinality (None without a cost model), and the
    measured rows/opens/seconds.  ``ratio`` is the :func:`misestimation`
    factor the sanity oracles bound.
    """
    records: list[dict] = []

    def visit(node: PhysicalOperator, depth: int) -> None:
        counters = profile.counters_for(node)
        estimated: Optional[float] = None
        ratio: Optional[float] = None
        if cost_model is not None:
            estimated = cost_model.estimate(node).cardinality
            ratio = misestimation(estimated, counters.rows)
        records.append({
            "operator": node.describe(),
            "depth": depth,
            "estimated_rows": estimated,
            "actual_rows": counters.rows,
            "opens": counters.opens,
            "seconds": counters.seconds,
            "ratio": ratio,
        })
        for child in node.inputs():
            visit(child, depth + 1)

    visit(plan, 0)
    return records


def divergent_operators(plan: PhysicalOperator, profile: PlanProfile,
                        cost_model, threshold: float = 10.0) -> list[dict]:
    """Operators whose estimate diverged from the measurement by more than
    *threshold* — the trigger records of the adaptive feedback loop.

    Unlike :func:`estimated_vs_actual` the records carry the operator
    *objects* (and the measured output rows of their children), which the
    feedback loop needs to translate a divergence into a statistics
    correction: an observed join selectivity is ``actual_out /
    (actual_left × actual_right)`` and an observed filter selectivity is
    ``actual_out / actual_in``.  Operators that never ran (opens == 0,
    e.g. the inner build side of a short-circuited join) are skipped — a
    zero actual against any estimate is starvation, not misestimation.
    """
    divergences: list[dict] = []
    estimates = cost_model.estimate_subtrees(plan)

    def visit(node: PhysicalOperator) -> None:
        counters = profile.counters_for(node)
        if counters.opens > 0:
            estimated = estimates[id(node)].cardinality
            ratio = misestimation(estimated, counters.rows)
            if ratio > threshold:
                divergences.append({
                    "operator": node,
                    "estimated_rows": estimated,
                    "actual_rows": counters.rows,
                    "ratio": ratio,
                    "child_actual_rows": tuple(
                        profile.actual_rows(child) for child in node.inputs()),
                })
        for child in node.inputs():
            visit(child)

    visit(plan)
    return divergences


def profile_summary(plan: PhysicalOperator, profile: PlanProfile,
                    cost_model=None, top: int = 3) -> list[dict]:
    """The *top* worst-misestimated operators of a profiled run, compacted
    for structured logging (the slow-query log's estimated-vs-actual
    payload): operator description, estimated and actual rows, ratio.

    Without a cost model the ratio is unknown; records then fall back to
    the slowest operators by measured time.
    """
    records = estimated_vs_actual(plan, profile, cost_model=cost_model)
    if cost_model is not None:
        records.sort(key=lambda r: r["ratio"] or 1.0, reverse=True)
    else:
        records.sort(key=lambda r: r["seconds"], reverse=True)
    return [{"operator": record["operator"],
             "estimated_rows": record["estimated_rows"],
             "actual_rows": record["actual_rows"],
             "seconds": round(record["seconds"], 6),
             "ratio": (round(record["ratio"], 2)
                       if record["ratio"] is not None else None)}
            for record in records[:max(top, 1)]]


def render_explain_analyze(plan: PhysicalOperator, profile: PlanProfile,
                           cost_model=None) -> str:
    """Render the plan tree with estimated and measured counters per node."""
    return _render_records(estimated_vs_actual(plan, profile, cost_model))


def _render_records(records: list[dict]) -> str:
    lines = []
    for record in records:
        indent = "  " * record["depth"]
        if record["estimated_rows"] is None:
            estimate = ""
        else:
            estimate = f"  (estimated rows={record['estimated_rows']:.1f})"
        lines.append(
            f"{indent}{record['operator']}{estimate}  "
            f"[actual rows={record['actual_rows']}, "
            f"opens={record['opens']}, "
            f"time={record['seconds'] * 1000.0:.3f}ms]")
    return "\n".join(lines)


def explain_analyze(plan: PhysicalOperator, profile: PlanProfile,
                    rows: int, cost_model=None) -> tuple[str, list[dict]]:
    """Render a finished profiled run of *plan* — exactly the plan an
    EXPLAIN displays, which produced *rows* rows under *profile* — as the
    ``runtime profile`` section plus the structured records it was
    rendered from.

    The plan may carry unbound :class:`~repro.algebra.expressions.Parameter`
    leaves, so the caller runs it as an executable with its bindings
    active (never through a value-substituting pipeline, which could
    re-optimize to a different plan than the one shown), under a snapshot.
    """
    records = estimated_vs_actual(plan, profile, cost_model)
    report = _render_records(records)
    indented = "\n".join("  " + line for line in report.splitlines())
    return f"runtime profile ({rows} rows):\n{indented}", records
