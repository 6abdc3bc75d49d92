"""The telemetry subsystem: span trees, metrics export, slow-query log.

Span-shape goldens pin the statement lifecycle (analyze → plan-cache →
optimize → compile → execute) across the cache-hit, cache-miss and
feedback-replan paths; histogram tests verify the percentile math against
known samples; the concurrency test checks that the execute histogram
counts exactly one observation per statement under a thread pool.
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.api.connection import connect
from repro.errors import ReproError
from repro.service.service import QueryService, ServiceMetrics
from repro.session import Session
from repro.telemetry import dump
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.sinks import JsonlSink, MemorySink
from repro.telemetry.slowlog import SLOW_QUERY_ENV, SlowQueryLog
from repro.telemetry.spans import (NOOP_SPAN, Tracer, child_span,
                                   current_span)
from repro.workloads import generate_document_database
from repro.workloads.documents import QUERY_TERM

QUERY = "ACCESS p FROM p IN Paragraph WHERE p->contains_string(:term)"
PARAMS = {"term": QUERY_TERM}

MISS_GOLDEN = ["statement", "analyze", "plan-cache", "optimize",
               "compile", "execute"]
HIT_GOLDEN = ["statement", "analyze", "plan-cache", "execute"]


def fresh_database(n_documents: int = 4):
    return generate_document_database(n_documents=n_documents)


def traced_service(**kwargs) -> QueryService:
    return QueryService(fresh_database(), tracing=True, **kwargs)


def _assert_nested_monotonic(span):
    assert span.ended is not None
    for child in span.children:
        assert child.started >= span.started
        assert child.ended is not None
        assert child.ended <= span.ended
        _assert_nested_monotonic(child)


# ----------------------------------------------------------------------
# span trees
# ----------------------------------------------------------------------
def test_span_tree_cache_miss_then_hit_goldens():
    service = traced_service()
    service.execute(QUERY, parameters=PARAMS)
    service.execute(QUERY, parameters=PARAMS)
    miss, hit = service.tracer.recent()
    assert miss.names() == MISS_GOLDEN
    assert hit.names() == HIT_GOLDEN
    assert miss.attributes["cache_hit"] is False
    assert hit.attributes["cache_hit"] is True
    assert miss.attributes["fingerprint"] == hit.attributes["fingerprint"]
    assert miss.attributes["rows"] == hit.attributes["rows"]
    assert miss.find("plan-cache").attributes == {"hit": False}
    assert hit.find("plan-cache").attributes == {"hit": True}


def test_span_timestamps_nest_monotonically():
    service = traced_service()
    service.execute(QUERY, parameters=PARAMS)
    (span,) = service.tracer.recent()
    _assert_nested_monotonic(span)
    assert span.duration_seconds >= \
        span.find("execute").duration_seconds


def test_optimize_span_links_optimization_trace():
    service = traced_service()
    service.execute(QUERY, parameters=PARAMS)
    optimize = service.tracer.recent()[0].find("optimize")
    assert optimize.attributes["replan"] is False
    assert optimize.attributes["logical_plans"] >= 1
    assert optimize.attributes["physical_plans_costed"] >= 1
    assert optimize.attributes["trace_events"] >= 1


def test_span_tree_feedback_replan():
    from tests.test_service import (FEEDBACK_QUERY, _drift_orders_to_urgent,
                                    _skewed_order_database)
    database = _skewed_order_database()
    service = QueryService(database, tracing=True)
    service.execute("ANALYZE")
    service.execute(FEEDBACK_QUERY)
    _drift_orders_to_urgent(database)
    service.execute(FEEDBACK_QUERY)  # profiled: detects drift, evicts
    service.execute(FEEDBACK_QUERY)  # replans
    spans = service.tracer.recent()
    corrected = spans[-2]
    feedback = corrected.find("feedback")
    assert feedback is not None
    assert feedback.attributes["applied"] is True
    assert feedback.attributes["divergences"] >= 1
    replanned = spans[-1]
    # the replanned statement is a full cache miss; feedback watches the
    # fresh plan's first execution, so the profiled twin's compile joins the
    # plain build's and a no-op feedback check trails the lifecycle
    assert replanned.names() == [*MISS_GOLDEN[:-1], "compile", "execute",
                                 "feedback"]
    assert [span.attributes["profiled"] for span in replanned.children
            if span.name == "compile"] == [False, True]
    assert replanned.find("optimize").attributes["replan"] is True
    assert service.metrics.snapshot()["plans_reoptimized"] >= 1


def test_error_statement_spans_and_counter():
    service = traced_service()
    with pytest.raises(ReproError):
        service.execute("ACCESS p FROM p IN NoSuchClass")
    assert service.metrics.snapshot()["errors"] == 1
    (span,) = service.tracer.recent()
    assert span.status == "error"
    assert "NoSuchClass" in span.error


def test_streamed_statement_span_and_analyze_seconds():
    service = traced_service()
    stream = service.stream(QUERY, parameters=PARAMS)
    rows = stream.drain()
    (span,) = service.tracer.recent()
    assert span.names() == MISS_GOLDEN
    assert span.attributes["rows"] == len(rows)
    # satellite: the streamed path must record analyze time like execute()
    analyze = service.registry.histogram("repro_analyze_seconds").snapshot()
    assert analyze["count"] == 1
    assert analyze["sum"] > 0.0


def test_tracing_disabled_allocates_nothing():
    service = QueryService(fresh_database())
    assert not service.tracer.enabled
    service.execute(QUERY, parameters=PARAMS)
    assert len(service.tracer) == 0
    assert current_span() is None
    assert child_span("anything") is NOOP_SPAN  # shared no-op singleton


def test_tracing_env_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert QueryService(fresh_database()).tracer.enabled
    monkeypatch.setenv("REPRO_TRACE", "off")
    assert not QueryService(fresh_database()).tracer.enabled


def test_write_gate_and_apply_spans_for_dml():
    service = traced_service()
    service.execute("INSERT INTO Document (title) VALUES ('telemetry doc')")
    (span,) = service.tracer.recent()
    apply_span = span.find("apply")
    assert apply_span is not None
    assert apply_span.attributes["kind"] == "insert"
    assert apply_span.find("write-gate-wait") is not None


def test_session_statement_spans():
    # the session runs the service's engine: compile is its own stage
    session = Session(fresh_database(), tracing=True)
    result = session.execute(QUERY, parameters=PARAMS)
    (span,) = session.tracer.recent()
    assert span.names() == ["statement", "optimize", "compile", "execute"]
    assert span.attributes["rows"] == len(result)
    assert span.find("compile").attributes == {"profiled": False}
    assert span.find("execute").attributes == {"engine": "compiled",
                                               "rows": len(result)}
    session.execute_naive(QUERY, parameters=PARAMS)
    assert session.tracer.recent()[-1].names() == ["statement", "compile",
                                                   "execute"]


def test_execute_and_drained_stream_are_accounted_alike(caplog):
    """One statement entry and one finisher behind every path —
    ``QueryService.execute``, a drained ``QueryService.stream`` and a
    cursor: same span children and annotations, same service metrics, the
    same slow log, and a failure counted exactly once."""
    service = traced_service(slow_query_ms=0.0)
    connection = connect(service.database, service=service)

    def slow_logged():
        payloads = [json.loads(record.message.split(": ", 1)[1])
                    for record in caplog.records
                    if record.name == "repro.telemetry.slowlog"]
        caplog.clear()
        return payloads

    caplog.set_level(logging.WARNING, logger="repro.telemetry.slowlog")
    result = service.execute(QUERY, parameters=PARAMS)
    rows = service.stream(QUERY, parameters=PARAMS).drain()
    values = connection.execute(QUERY, PARAMS).fetchall()
    assert [payload["fingerprint"] for payload in slow_logged()] == \
        [result.metrics.fingerprint] * 3
    assert rows == result.rows
    assert values == result.values
    executed, streamed, cursor = service.tracer.recent()
    assert executed.names() == MISS_GOLDEN
    assert streamed.names() == cursor.names() == HIT_GOLDEN
    for span in (executed, streamed, cursor):
        assert span.status == "ok"
        assert span.attributes["rows"] == len(rows)
        assert span.attributes["fingerprint"] == result.metrics.fingerprint
        assert span.find("execute").attributes == {"rows": len(rows)}
    assert executed.attributes["cache_hit"] is False
    assert streamed.attributes["cache_hit"] is True
    assert cursor.attributes["cache_hit"] is True
    snapshot = service.metrics.snapshot()
    assert (snapshot["queries"], snapshot["cache_hits"],
            snapshot["errors"]) == (3, 2, 0)
    execute = service.registry.histogram("repro_execute_seconds").snapshot()
    assert execute["count"] == 3
    # analyze time is parse + analyze on every path: each observation
    # brackets its statement's analyze span
    analyze = service.registry.histogram("repro_analyze_seconds").snapshot()
    assert analyze["count"] == 3
    assert analyze["sum"] >= sum(span.find("analyze").duration_seconds
                                 for span in (executed, streamed, cursor))
    assert result.metrics.analyze_seconds >= \
        executed.find("analyze").duration_seconds

    # DML: traced, annotated and slow-logged alike through both entries
    insert = "INSERT INTO Document (title) VALUES (:t)"
    service.execute(insert, {"t": "via service"})
    connection.execute(insert, {"t": "via cursor"})
    serviced, cursored = service.tracer.recent()[-2:]
    assert serviced.names() == cursored.names()
    for span in (serviced, cursored):
        assert (span.attributes["kind"], span.attributes["rows"]) == \
            ("insert", 1)
    assert [(payload["statement"], payload["rows"])
            for payload in slow_logged()] == [(insert, 1), (insert, 1)]

    # failures: an analysis error and an apply-time type mismatch count
    # once each, whichever entry they arrive through
    failing = [("ACCESS p FROM p IN NoSuchClass", None),
               ("INSERT INTO Section (title) VALUES (:t)", {"t": 42})]
    entries = [service.execute, connection.execute,
               connection.cursor().execute]
    for entry in entries:
        for text, parameters in failing:
            with pytest.raises(ReproError):
                entry(text, parameters)
    assert service.metrics.snapshot()["errors"] == \
        len(entries) * len(failing)
    failed = service.tracer.recent()[-len(entries) * len(failing):]
    assert [span.status for span in failed] == ["error"] * len(failed)
    assert service.metrics.snapshot()["queries"] == 3


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_memory_and_jsonl_sinks(tmp_path):
    path = tmp_path / "spans.jsonl"
    memory = MemorySink()
    service = traced_service()
    service.tracer.sinks.extend([memory, JsonlSink(path)])
    service.execute(QUERY, parameters=PARAMS)
    service.execute(QUERY, parameters=PARAMS)
    assert len(memory) == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    trees = [json.loads(line) for line in lines]
    assert trees[0]["name"] == "statement"
    assert [c["name"] for c in trees[1]["children"]] == HIT_GOLDEN[1:]


def test_broken_sink_never_fails_statements():
    class Broken:
        def emit(self, span):
            raise RuntimeError("sink down")

    service = traced_service()
    service.tracer.sinks.append(Broken())
    result = service.execute(QUERY, parameters=PARAMS)
    assert len(result.rows) > 0
    assert len(service.tracer) == 1


def test_tracer_ring_is_bounded():
    tracer = Tracer(enabled=True, capacity=3)
    for i in range(7):
        with tracer.span("statement", i=i):
            pass
    spans = tracer.recent()
    assert len(spans) == 3
    assert [span.attributes["i"] for span in spans] == [4, 5, 6]
    assert "statement" in tracer.export_jsonl()


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
def test_histogram_percentiles_on_known_samples():
    histogram = Histogram("h", "test", buckets=(1.0, 2.0, 4.0, 8.0))
    for value in [0.5] * 50 + [3.0] * 40 + [7.0] * 9 + [100.0]:
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 100
    assert snap["max"] == 100.0
    assert snap["p50"] <= 1.0 < snap["p90"] <= 4.0
    assert snap["p99"] >= 4.0
    assert histogram.percentile(1.0) == 100.0  # overflow reports max


def test_histogram_empty_and_counter_gauge():
    assert Histogram("h", "test").snapshot()["p99"] == 0.0
    counter = Counter("c", "test")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge("g", "test")
    gauge.set(2.5)
    assert gauge.value == 2.5
    assert Gauge("g2", "test", fn=lambda: 7).value == 7


def test_registry_exports_json_and_prometheus():
    registry = MetricsRegistry()
    registry.counter("repro_statements_total", "Statements").inc(3)
    registry.histogram("repro_execute_seconds", "Execute").observe(0.05)
    registry.record_statement("abc123", 0.05)
    payload = registry.export("json")
    assert payload["counters"]["repro_statements_total"] == 3
    assert payload["histograms"]["repro_execute_seconds"]["count"] == 1
    assert payload["statements"][0]["fingerprint"] == "abc123"
    text = registry.export("prometheus")
    assert "# TYPE repro_statements_total counter" in text
    assert "repro_statements_total 3" in text
    assert 'repro_execute_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_execute_seconds_p99" in text
    with pytest.raises(ValueError):
        registry.export("xml")


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("x", "a counter")
    with pytest.raises(ValueError):
        registry.histogram("x", "not a counter")


def test_per_fingerprint_top_statements():
    registry = MetricsRegistry()
    registry.record_statement("slow", 0.5)
    registry.record_statement("fast", 0.001)
    registry.record_statement("slow", 0.5, error=True)
    top = registry.top_statements(1)
    assert top[0]["fingerprint"] == "slow"
    assert top[0]["count"] == 2
    assert top[0]["errors"] == 1


# ----------------------------------------------------------------------
# the service's instruments
# ----------------------------------------------------------------------
def test_service_metrics_snapshot_keys():
    service = QueryService(fresh_database())
    service.execute(QUERY, parameters=PARAMS)
    service.execute(QUERY, parameters=PARAMS)
    snapshot = service.metrics.snapshot()
    assert snapshot["queries"] == 2
    assert snapshot["cache_hits"] == 1
    assert snapshot["cache_misses"] == 1
    assert snapshot["errors"] == 0
    assert snapshot["hit_rate"] == 0.5
    assert snapshot["total_execute_seconds"] > 0.0
    assert snapshot["total_prepare_seconds"] > 0.0
    assert isinstance(service.metrics, ServiceMetrics)


def test_statements_prepared_setter_is_locked():
    metrics = ServiceMetrics()
    errors = []

    def hammer(value):
        try:
            for _ in range(200):
                metrics.set_statements_prepared(value)
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert metrics.snapshot()["statements_prepared"] in (0, 1, 2, 3)


def test_concurrent_histogram_counts_every_statement():
    service = QueryService(fresh_database(n_documents=6))
    requests = [(QUERY, PARAMS) for _ in range(24)]
    results = service.run_concurrent(requests, workers=6)
    assert len(results) == 24
    execute = service.registry.histogram("repro_execute_seconds").snapshot()
    assert execute["count"] == 24 == service.metrics.snapshot()["queries"]
    assert sum(execute["buckets"].values()) >= 24  # cumulative buckets
    top = service.registry.top_statements(1)
    assert top[0]["count"] == 24


def test_plan_cache_and_statistics_gauges():
    service = QueryService(fresh_database())
    service.execute(QUERY, parameters=PARAMS)
    gauges = service.registry.export_json()["gauges"]
    assert gauges["repro_plan_cache_size"] == 1
    assert gauges["repro_plan_cache_capacity"] == service.cache.capacity
    assert gauges["repro_cached_statements"] == 1
    assert "repro_statistics_analyzed_classes" in gauges
    service.execute("ANALYZE")
    gauges = service.registry.export_json()["gauges"]
    assert gauges["repro_statistics_analyzed_classes"] >= 1


def test_exporting_metrics_does_no_database_work():
    """Gauges are read at export time and must stay cheap: a scrape that
    scanned extensions would also show up in the work counters it reports
    on."""
    service = QueryService(fresh_database())
    service.execute(QUERY, parameters=PARAMS)
    before = service.database.work_snapshot()
    for _ in range(5):
        service.registry.export_prometheus()
        service.registry.export_json()
    assert service.database.work_snapshot() == before


# ----------------------------------------------------------------------
# the connection facade
# ----------------------------------------------------------------------
def test_connection_metrics_and_cursor_spans():
    connection = connect(fresh_database(), tracing=True)
    cursor = connection.execute(QUERY, parameters=PARAMS)
    rows = cursor.fetchall()
    assert rows
    (span,) = connection.tracer.recent()
    assert span.names() == MISS_GOLDEN
    assert span.attributes["api"] == "cursor"
    payload = connection.metrics()
    histogram = payload["histograms"]["repro_execute_seconds"]
    assert histogram["count"] == 1
    assert histogram["p50"] >= 0.0 and histogram["p99"] >= histogram["p50"]
    text = connection.metrics("prometheus")
    assert "repro_execute_seconds_p50" in text
    assert "repro_execute_seconds_p99" in text
    assert "repro_plan_cache_size 1" in text


def test_dump_renders_connection_and_registry():
    connection = connect(fresh_database(), tracing=True)
    connection.execute(QUERY, parameters=PARAMS).fetchall()
    report = dump(connection)
    assert "== metrics ==" in report
    assert "== recent traces" in report
    assert "statement" in report
    assert "repro_statements_total" in report
    with pytest.raises(TypeError):
        dump(object())


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------
def test_slowlog_threshold_and_payload(caplog):
    service = QueryService(fresh_database(), slow_query_ms=0.0)
    assert service.slow_log.enabled
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        service.execute(QUERY, parameters=PARAMS)
    records = [r for r in caplog.records
               if r.name == "repro.telemetry.slowlog"]
    assert len(records) == 1
    payload = json.loads(records[0].message.split(": ", 1)[1])
    assert payload["event"] == "slow_query"
    assert payload["statement"].startswith("ACCESS p")
    assert payload["cache_hit"] is False
    assert "Scan" in payload["plan"] or "scan" in payload["plan"].lower()
    # bind parameters are redacted to type names, never logged verbatim
    assert payload["parameters"] == {"term": "<str>"}
    assert QUERY_TERM not in records[0].message


def test_slowlog_includes_estimated_vs_actual_when_profiled(caplog):
    from tests.test_service import (FEEDBACK_QUERY, _drift_orders_to_urgent,
                                    _skewed_order_database)
    database = _skewed_order_database()
    service = QueryService(database, slow_query_ms=0.0)
    service.execute("ANALYZE")
    service.execute(FEEDBACK_QUERY)
    _drift_orders_to_urgent(database)
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        service.execute(FEEDBACK_QUERY)  # this execution is profile-armed
    payload = json.loads(caplog.records[-1].message.split(": ", 1)[1])
    records = payload["estimated_vs_actual"]
    assert records, "profiled slow query must report estimate vs actual"
    assert {"operator", "estimated_rows", "actual_rows"} <= set(records[0])


def test_slowlog_quiet_below_threshold(caplog):
    service = QueryService(fresh_database(), slow_query_ms=60_000.0)
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        service.execute(QUERY, parameters=PARAMS)
    assert not [r for r in caplog.records
                if r.name == "repro.telemetry.slowlog"]


def test_slowlog_env_gating(monkeypatch):
    monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
    assert not SlowQueryLog().enabled
    monkeypatch.setenv(SLOW_QUERY_ENV, "25")
    log = SlowQueryLog()
    assert log.enabled and log.threshold_ms == 25.0
    assert log.would_log(0.030) and not log.would_log(0.020)
    monkeypatch.setenv(SLOW_QUERY_ENV, "not-a-number")
    assert not SlowQueryLog().enabled


def test_slowlog_for_dml_statements(caplog):
    service = QueryService(fresh_database(), slow_query_ms=0.0)
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        service.execute("INSERT INTO Document (title) VALUES ('slow doc')")
    records = [r for r in caplog.records
               if r.name == "repro.telemetry.slowlog"]
    assert len(records) == 1
    payload = json.loads(records[0].message.split(": ", 1)[1])
    assert payload["statement"].startswith("INSERT")


class TestTelemetryEdges:
    def test_histogram_rejects_bad_buckets_and_quantiles(self):
        with pytest.raises(ValueError, match="sorted and non-empty"):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="sorted and non-empty"):
            Histogram("h", buckets=())
        histogram = Histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="within"):
            histogram.percentile(1.5)
        for value in (0.5, 1.5, 7.0):
            histogram.observe(value)
        assert histogram.count == 3
        # the overflow bucket reports the largest observation
        assert histogram.percentile(1.0) == 7.0

    def test_statement_table_evicts_the_coldest_fingerprint(self):
        registry = MetricsRegistry(max_statements=2)
        registry.record_statement("hot", 5.0)
        registry.record_statement("cold", 1.0)
        registry.record_statement("new", 2.0)
        assert sorted(s["fingerprint"] for s in registry.top_statements(5)) \
            == ["hot", "new"]

    def test_sinks_clear_close_and_render(self, tmp_path):
        memory = MemorySink()
        tracer = Tracer(enabled=True, sinks=[memory])
        with tracer.span("outer"):
            with tracer.span("inner"):  # nests under the active span
                pass
        (root,) = memory.spans
        assert root.names() == ["outer", "inner"]
        memory.clear()
        assert memory.spans == []
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(str(path))
        assert str(sink) == f"JsonlSink({str(path)!r})"
        sink.emit(root)
        sink.close()
        sink.close()  # idempotent
        assert json.loads(path.read_text())["name"] == "outer"

    def test_slow_log_keeps_profiles_and_renders_disabled(self):
        log = SlowQueryLog(threshold_ms=0)
        payload = log.record(text="ACCESS d FROM d IN Document",
                             seconds=0.5, profile=[{"operator": "scan"}])
        assert payload["estimated_vs_actual"] == [{"operator": "scan"}]
        disabled = SlowQueryLog(threshold_ms=None)
        assert disabled.record(text="x", seconds=9.0) is None
        assert str(disabled) == "SlowQueryLog(disabled, redact=True)"

    def test_dump_accepts_a_bare_registry_or_tracer(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "things").inc()
        assert "repro_things_total 1" in dump(registry)
        tracer = Tracer(enabled=True)
        with tracer.span("alone"):
            pass
        assert "alone" in dump(tracer)
