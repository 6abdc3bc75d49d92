"""EXPLAIN / EXPLAIN ANALYZE output stability.

Golden-ish assertions: the reports must keep naming the chosen access
paths, the estimated and actual cardinalities and the per-operator
counters, across naive and optimized plans and across every
entry point (Session.explain, QueryService.explain, Connection/Cursor
explain, and the ``EXPLAIN [ANALYZE]`` statement itself).
"""

from __future__ import annotations

import re

import pytest

from repro import connect, open_service, open_session
from repro.errors import VQLSyntaxError
from repro.physical.executor import execute_plan, prepare_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.plans import ClassScan, Filter
from repro.physical.profile import (
    PlanProfile,
    estimated_vs_actual,
    render_explain_analyze,
)
from repro.vql.parser import parse_expression, parse_statement
from repro.workloads import generate_document_database

INDEXED_QUERY = "ACCESS p FROM p IN Paragraph WHERE p.number == 3"


@pytest.fixture()
def indexed_db():
    database = generate_document_database(n_documents=4)
    database.create_hash_index("Paragraph", "number")
    return database


# ----------------------------------------------------------------------
# plain EXPLAIN: access paths stay visible
# ----------------------------------------------------------------------
class TestExplainRendering:
    def test_optimized_explain_names_the_index_path(self, indexed_db):
        session = open_session(indexed_db)
        report = session.explain(INDEXED_QUERY)
        assert "physical plan:" in report
        assert "index_eq_scan<p, Paragraph.number == 3>" in report
        assert re.search(r"estimated cost=[\d.]+, card=[\d.]+", report)

    def test_naive_explain_shows_the_scan_pipeline(self, indexed_db):
        session = open_session(indexed_db)
        report = session.explain(INDEXED_QUERY, optimize=False)
        assert "naive physical plan:" in report
        assert "class_scan<p, Paragraph>" in report
        assert "index_eq_scan" not in report

    def test_explain_statement_matches_the_method(self, indexed_db):
        session = open_session(indexed_db)
        via_statement = session.execute("EXPLAIN " + INDEXED_QUERY)
        assert via_statement.kind == "explain"
        # two optimizer runs: everything but the wall-clock token repeats
        timeless = [re.sub(r"time=[\d.]+s", "time=", report) for report in
                    (via_statement.description, session.explain(INDEXED_QUERY))]
        assert timeless[0] == timeless[1]

    def test_explain_cannot_nest(self):
        with pytest.raises(VQLSyntaxError):
            parse_statement("EXPLAIN EXPLAIN ACCESS p FROM p IN Paragraph")

    def test_explain_analyze_parses_both_readings(self):
        profiled = parse_statement("EXPLAIN ANALYZE " + INDEXED_QUERY)
        assert profiled.analyze
        of_analyze = parse_statement("EXPLAIN ANALYZE Paragraph")
        assert not of_analyze.analyze
        assert str(of_analyze.target) == "ANALYZE Paragraph"


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE: estimated vs actual, per-operator counters
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_session_report_carries_actual_rows(self, indexed_db):
        session = open_session(indexed_db)
        report = session.explain(INDEXED_QUERY, analyze=True)
        assert "runtime profile (16 rows):" in report
        assert re.search(
            r"index_eq_scan<p, Paragraph\.number == 3>  "
            r"\(estimated rows=[\d.]+\)  "
            r"\[actual rows=16, opens=1, time=[\d.]+ms\]", report)

    def test_statement_text_reaches_cursor_report(self, indexed_db):
        def stable(report: str) -> str:
            return re.sub(r"time=[\d.]+ms", "time=?", report)

        connection = connect(indexed_db)
        cursor = connection.execute("EXPLAIN ANALYZE " + INDEXED_QUERY)
        assert cursor.rowcount == 0
        assert "actual rows=16" in cursor.statement_report
        assert stable(cursor.statement_report) == \
            stable(connection.explain(INDEXED_QUERY, analyze=True))
        assert stable(cursor.explain(INDEXED_QUERY, analyze=True)) == \
            stable(cursor.statement_report)

    def test_analyze_improves_the_estimate(self, indexed_db):
        # Flat model guesses EQUALITY_SELECTIVITY; after ANALYZE the
        # estimate must match the actual 16 rows (distinct-count driven).
        connection = connect(indexed_db)
        connection.execute("ANALYZE Paragraph")
        report = connection.explain(INDEXED_QUERY, analyze=True)
        match = re.search(r"index_eq_scan.*estimated rows=([\d.]+)\).*"
                          r"actual rows=(\d+)", report)
        assert match is not None
        estimated, actual = float(match.group(1)), int(match.group(2))
        assert actual == 16
        assert abs(estimated - actual) <= 1.0

    def test_update_where_is_profiled_but_never_applied(self, indexed_db):
        connection = connect(indexed_db)
        before = indexed_db.versions.data
        report = connection.explain(
            "UPDATE Paragraph p SET content = 'x' WHERE p.number == 3",
            analyze=True)
        assert "WHERE clause planned as a query" in report
        assert "actual rows=16" in report
        assert indexed_db.versions.data == before

    def test_parameters_bind_for_the_profiled_run(self, indexed_db):
        session = open_session(indexed_db)
        report = session.explain(
            "ACCESS p FROM p IN Paragraph WHERE p.number == :n",
            analyze=True, parameters={"n": 3})
        assert "runtime profile (16 rows):" in report

    def test_naive_and_optimized_profiles(self, indexed_db):
        # Both plan families expose the same counter vocabulary.
        session = open_session(indexed_db)
        naive = session.explain(INDEXED_QUERY, optimize=False, analyze=True)
        assert "class_scan<p, Paragraph>" in naive
        assert "[actual rows=80" in naive  # the full scan feeds the filter

        optimized = session.explain(INDEXED_QUERY, analyze=True)
        assert "index_eq_scan" in optimized

        plan = Filter(parse_expression("p.number == 3"),
                      ClassScan("p", "Paragraph"))
        profile = PlanProfile()
        rows = execute_plan(plan, indexed_db, profile=profile)
        report = render_explain_analyze(plan, profile)
        assert f"[actual rows={len(rows)}" in report
        assert "class_scan<p, Paragraph>" in report


# ----------------------------------------------------------------------
# the profile substrate across all three engines
# ----------------------------------------------------------------------
class TestProfileEngines:
    def query_plan(self, session):
        return session.optimize(INDEXED_QUERY).best_plan

    def test_compiled_and_interpreter_agree_on_rows(self, indexed_db):
        session = open_session(indexed_db)
        plan = self.query_plan(session)
        compiled, interpreted = PlanProfile(), PlanProfile()
        rows = execute_plan(plan, indexed_db, profile=compiled)
        execute_plan_interpreted(plan, indexed_db, profile=interpreted)
        assert compiled.actual_rows(plan) == len(rows)
        assert interpreted.actual_rows(plan) == len(rows)

    def test_prepared_executable_profiles_across_runs(self, indexed_db):
        session = open_session(indexed_db)
        plan = self.query_plan(session)
        profile = PlanProfile()
        from repro.physical.executor import PreparedExecutable
        executable = PreparedExecutable(plan, indexed_db, profile=profile)
        first = executable.run()
        executable.run()
        counters = profile.counters_for(plan)
        assert counters.opens == 2
        assert counters.rows == 2 * len(first)

    def test_unprofiled_prepared_plan_is_unaffected(self, indexed_db):
        session = open_session(indexed_db)
        plan = self.query_plan(session)
        assert prepare_plan(plan, indexed_db).run() == \
            execute_plan(plan, indexed_db)

    def test_estimated_vs_actual_records(self, indexed_db):
        session = open_session(indexed_db)
        plan = self.query_plan(session)
        profile = PlanProfile()
        execute_plan(plan, indexed_db, profile=profile)
        records = estimated_vs_actual(plan, profile,
                                      session.optimizer.cost_model)
        assert records[0]["depth"] == 0
        assert all(record["estimated_rows"] is not None
                   and record["estimated_rows"] >= 0 for record in records)
        assert all(record["ratio"] >= 1.0 for record in records)
        assert all(record["opens"] == 1 for record in records)


# ----------------------------------------------------------------------
# structured records riding on the report string
# ----------------------------------------------------------------------
class TestStructuredRecords:
    def test_session_explain_carries_records(self, indexed_db):
        session = open_session(indexed_db)
        report = session.explain(INDEXED_QUERY, analyze=True)
        assert isinstance(report, str)
        records = report.records
        assert records is not None and len(records) >= 1
        root = records[0]
        assert root["depth"] == 0
        assert root["actual_rows"] == 16
        assert root["estimated_rows"] is not None
        # without analyze there is nothing measured to attach
        assert session.explain(INDEXED_QUERY).records is None

    def test_service_explain_carries_records(self, indexed_db):
        service = open_service(indexed_db)
        report = service.explain(INDEXED_QUERY, analyze=True)
        records = report.records
        assert records is not None
        assert records[0]["actual_rows"] == 16
        assert {"operator", "estimated_rows", "actual_rows", "opens",
                "seconds", "ratio"} <= set(records[0])

    def test_cursor_exposes_statement_records(self, indexed_db):
        connection = connect(indexed_db)
        cursor = connection.execute("EXPLAIN ANALYZE " + INDEXED_QUERY)
        records = cursor.statement_records
        assert records is not None
        assert records[0]["actual_rows"] == 16
        # plain EXPLAIN: report present, no measured records
        cursor.execute("EXPLAIN " + INDEXED_QUERY)
        assert cursor.statement_report is not None
        assert cursor.statement_records is None
        # non-explain statements reset the report and the records
        cursor.execute(INDEXED_QUERY)
        assert cursor.statement_records is None

    def test_update_where_explain_keeps_records(self, indexed_db):
        connection = connect(indexed_db)
        report = connection.explain(
            "UPDATE Paragraph p SET content = 'x' WHERE p.number == 3",
            analyze=True)
        assert report.records is not None
        assert report.records[0]["actual_rows"] == 16


# ----------------------------------------------------------------------
# the service path
# ----------------------------------------------------------------------
class TestServiceExplainAnalyze:
    def test_service_profile_does_not_disturb_the_cache(self, indexed_db):
        service = open_service(indexed_db)
        service.execute(INDEXED_QUERY)
        report = service.explain(INDEXED_QUERY, analyze=True)
        assert "runtime profile (16 rows):" in report
        # the cached executable itself stays unprofiled and reusable
        result = service.execute(INDEXED_QUERY)
        assert result.metrics.cache_hit
        assert len(result) == 16
