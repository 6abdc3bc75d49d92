"""The unified statement API: DDL/DML statements, router, Connection/Cursor.

Covers the statement grammar and analyzer, the router's dispatch through
each entry point (``Session.execute``, ``QueryService.execute``,
``connect()``), DML planned through the optimizer (index
access paths, bind parameters, plan-cache reuse), the bulk datamodel paths
(``Database.update``, ``Database.create_many``) and the streaming cursor.
"""

from __future__ import annotations

import pytest

from repro import QueryService, Session, connect
from repro.api.router import StatementResult, StatementRouter
from repro.datamodel.database import Database
from repro.datamodel.ddl import create_index
from repro.datamodel.schema import Schema
from repro.errors import (
    BindingError,
    ServiceError,
    SchemaError,
    TypeMismatchError,
    VQLAnalysisError,
    VQLSyntaxError,
)
from repro.vql.analyzer import analyze_statement
from repro.vql.ast import (
    CreateClassStatement,
    CreateIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)
from repro.vql.parser import parse_statement
from repro.workloads import (
    document_knowledge,
    document_schema,
    generate_document_database,
)


@pytest.fixture()
def database():
    return generate_document_database(n_documents=3)


@pytest.fixture()
def connection(database):
    return connect(database, knowledge=document_knowledge(database.schema))


def fresh_database(n_documents: int = 3) -> Database:
    return generate_document_database(n_documents=n_documents)


# ----------------------------------------------------------------------
# statement parser
# ----------------------------------------------------------------------
class TestStatementParser:
    def test_access_query_is_a_select_statement(self):
        statement = parse_statement("ACCESS p FROM p IN Paragraph")
        assert isinstance(statement, SelectStatement)
        assert statement.query.range_variables == ("p",)

    def test_create_class(self):
        statement = parse_statement(
            "CREATE CLASS Memo ISA Document (body: STRING, refs: {Memo})")
        assert isinstance(statement, CreateClassStatement)
        assert statement.superclass == "Document"
        assert [p.name for p in statement.properties] == ["body", "refs"]
        assert statement.properties[1].is_set

    def test_create_index_kinds(self):
        default = parse_statement("CREATE INDEX ON Document(title)")
        assert isinstance(default, CreateIndexStatement)
        assert default.kind == "hash"
        assert parse_statement(
            "CREATE SORTED INDEX ON Paragraph(number)").kind == "sorted"
        assert parse_statement(
            "CREATE TEXT INDEX ON Paragraph(content)").kind == "text"

    def test_drop_index(self):
        plain = parse_statement("DROP INDEX ON Document(title)")
        assert isinstance(plain, DropIndexStatement) and plain.kind == "index"
        assert parse_statement(
            "DROP TEXT INDEX ON Paragraph(content)").kind == "text"

    def test_statement_words_are_case_insensitive(self):
        statement = parse_statement("create hash index on Document(title)")
        assert isinstance(statement, CreateIndexStatement)

    def test_insert(self):
        statement = parse_statement(
            "INSERT INTO Paragraph (number, content) VALUES (?, :c)")
        assert isinstance(statement, InsertStatement)
        assert [name for name, _ in statement.assignments] == [
            "number", "content"]

    def test_insert_arity_mismatch_rejected(self):
        with pytest.raises(VQLSyntaxError):
            parse_statement("INSERT INTO Paragraph (number) VALUES (1, 2)")

    def test_update_with_alias_and_where(self):
        statement = parse_statement(
            "UPDATE Paragraph p SET number = p.number + 1 WHERE p.number > 2")
        assert isinstance(statement, UpdateStatement)
        assert statement.alias == "p"
        assert statement.where is not None

    def test_update_without_alias_uses_default(self):
        statement = parse_statement("UPDATE Paragraph SET number = 0")
        assert statement.alias == "this"
        assert statement.where is None

    def test_delete(self):
        statement = parse_statement(
            "DELETE FROM Paragraph p WHERE p.number == 3")
        assert isinstance(statement, DeleteStatement)
        assert statement.alias == "p"

    def test_assignment_requires_single_equals(self):
        with pytest.raises(VQLSyntaxError):
            parse_statement("UPDATE Paragraph p SET number == 3")

    def test_unknown_statement_word_rejected(self):
        with pytest.raises(VQLSyntaxError):
            parse_statement("FROBNICATE Paragraph")

    def test_statement_str_round_trips(self):
        for text in (
                "CREATE CLASS Memo ISA Document (body: STRING)",
                "CREATE SORTED INDEX ON Paragraph(number)",
                "DROP TEXT INDEX ON Paragraph(content)",
                "INSERT INTO Paragraph (number) VALUES (4)",
                "UPDATE Paragraph p SET number = 4 WHERE p.number == 3",
                "DELETE FROM Paragraph p WHERE p.number == 3"):
            statement = parse_statement(text)
            assert parse_statement(str(statement)) == statement


# ----------------------------------------------------------------------
# statement analyzer
# ----------------------------------------------------------------------
class TestStatementAnalyzer:
    def schema(self):
        return document_schema()

    def test_parameters_collected_in_textual_order(self):
        analyzed = analyze_statement(parse_statement(
            "UPDATE Paragraph p SET content = :c WHERE p.number == :n"),
            self.schema())
        assert analyzed.parameters == ("c", "n")

    def test_update_where_query_is_planned_as_access_query(self):
        analyzed = analyze_statement(parse_statement(
            "UPDATE Paragraph p SET number = 1 WHERE p.number == 2"),
            self.schema())
        assert analyzed.query is not None
        assert analyzed.query.query.range_variables == ("p",)

    def test_insert_unknown_property_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "INSERT INTO Paragraph (nope) VALUES (1)"), self.schema())

    def test_insert_type_mismatch_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "INSERT INTO Paragraph (number) VALUES ('text')"),
                self.schema())

    def test_update_duplicate_assignment_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "UPDATE Paragraph p SET number = 1, number = 2"),
                self.schema())

    def test_update_value_may_reference_the_alias(self):
        analyzed = analyze_statement(parse_statement(
            "UPDATE Paragraph p SET number = p.number + 1"), self.schema())
        assert analyzed.kind == "update"

    def test_update_value_unbound_variable_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "UPDATE Paragraph p SET number = q.number"), self.schema())

    def test_alias_shadowing_a_class_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "DELETE FROM Paragraph Document"), self.schema())

    def test_create_existing_class_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "CREATE CLASS Document"), self.schema())

    def test_create_class_unknown_type_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "CREATE CLASS Memo (body: Blob)"), self.schema())

    def test_index_on_unknown_property_rejected(self):
        with pytest.raises(VQLAnalysisError):
            analyze_statement(parse_statement(
                "CREATE INDEX ON Document(nope)"), self.schema())


# ----------------------------------------------------------------------
# the three entry points converge on the router
# ----------------------------------------------------------------------
class TestEntryPointConvergence:
    STATEMENT = "INSERT INTO Document (title) VALUES (:t)"

    def test_session_executes_dml(self, database):
        session = Session(database)
        result = session.execute(self.STATEMENT, parameters={"t": "s"})
        assert isinstance(result, StatementResult)
        assert result.rowcount == 1
        assert database.value(result.lastoid, "title") == "s"

    def test_service_executes_dml(self, database):
        service = QueryService(database)
        result = service.execute(self.STATEMENT, {"t": "q"})
        assert isinstance(result, StatementResult)
        assert database.value(result.lastoid, "title") == "q"

    def test_connection_executes_dml(self, database):
        cursor = connect(database).execute(self.STATEMENT, {"t": "r"})
        assert cursor.rowcount == 1
        assert database.value(cursor.lastoid, "title") == "r"

    def test_all_entry_points_agree_on_queries(self, database):
        text = "ACCESS d.title FROM d IN Document WHERE d.title == :t"
        parameters = {"t": "Query Optimization"}
        session = Session(database)
        service = QueryService(database)
        connection = connect(database, service=service)
        expected = session.execute(text, parameters=parameters).value_set()
        assert service.execute(text, parameters).value_set() == expected
        cursor = connection.execute(text, parameters)
        assert set(cursor.fetchall()) == {v for v in expected}


# ----------------------------------------------------------------------
# DML execution semantics
# ----------------------------------------------------------------------
class TestDML:
    def test_update_hits_index_access_path(self, database):
        database.create_hash_index("Paragraph", "number")
        connection = connect(database)
        update = "UPDATE Paragraph p SET content = 'x' WHERE p.number == 3"
        plan = connection.explain(update)
        assert "index_eq_scan" in plan
        assert "WHERE clause planned as a query" in plan

        def where_work(optimize):
            # SET content leaves the WHERE selectivity unchanged
            before = database.work_snapshot()
            rowcount = connection.router.execute(
                update, optimize=optimize).rowcount
            after = database.work_snapshot()
            return rowcount, sum(
                after[key] - before[key] for key in
                ("property_reads", "extension_scans", "index_lookups"))

        indexed_rows, indexed_work = where_work(optimize=True)
        scan_rows, scan_work = where_work(optimize=False)
        assert indexed_rows == scan_rows > 0
        assert scan_work >= 5 * indexed_work

    def test_update_range_uses_sorted_index(self, database):
        database.create_sorted_index("Paragraph", "number")
        connection = connect(database)
        plan = connection.explain(
            "DELETE FROM Paragraph p WHERE p.number > 3")
        assert "index_range_scan" in plan

    def test_update_applies_row_dependent_expression(self, database):
        connection = connect(database)
        before = {oid: database.value(oid, "number")
                  for oid in database.extension("Paragraph")}
        result = connection.execute(
            "UPDATE Paragraph p SET number = p.number + 10").rowcount
        assert result == len(before)
        for oid, number in before.items():
            assert database.value(oid, "number") == number + 10

    def test_update_without_where_touches_every_instance(self, database):
        connection = connect(database)
        count = connection.execute(
            "UPDATE Section s SET title = 'renamed'").rowcount
        assert count == len(database.extension("Section"))

    def test_delete_unwinds_extension_and_indexes(self, database):
        database.create_hash_index("Paragraph", "number")
        connection = connect(database)
        index = database.indexes.get("Paragraph", "number")
        victims = index.lookup(1)
        assert victims
        result = connection.execute(
            "DELETE FROM Paragraph p WHERE p.number == 1")
        assert result.rowcount == len(victims)
        assert index.lookup(1) == set()
        assert all(not database.exists(oid) for oid in victims)

    def test_mutations_feed_plan_cache_invalidation(self, database):
        service = QueryService(database)
        text = "ACCESS d FROM d IN Document"
        service.execute(text)
        assert service.execute(text).metrics.cache_hit
        before = len(service.execute(text))
        # a bulk INSERT beyond the drift threshold re-plans and sees the rows
        n_bulk = database.object_count()
        service.router.executemany(
            "INSERT INTO Document (title) VALUES (?)",
            [[f"bulk {i}"] for i in range(n_bulk)])
        after = service.execute(text)
        assert not after.metrics.cache_hit
        assert len(after) == before + n_bulk

    def test_insert_validates_types(self, database):
        connection = connect(database)
        with pytest.raises(TypeMismatchError):
            connection.execute(
                "INSERT INTO Document (title) VALUES (?)", [42])

    def test_missing_parameter_rejected(self, database):
        connection = connect(database)
        with pytest.raises(BindingError):
            connection.execute("INSERT INTO Document (title) VALUES (:t)")

    def test_parameterized_range_dml_takes_the_sorted_index(self):
        """UPDATE/DELETE plan their WHERE-query through the same planner:
        bind-time range bounds reach the sorted index, no extension scan."""
        connection = connect(Database(Schema("dml")))
        connection.execute(
            "CREATE CLASS Entry (eid: INT, amount: INT, tag: STRING)")
        connection.executemany(
            "INSERT INTO Entry (eid, amount) VALUES (:e, :a)",
            [{"e": eid, "a": (eid * 37) % 300} for eid in range(300)])
        connection.execute("CREATE SORTED INDEX ON Entry(amount)")
        connection.execute("ANALYZE")
        database = connection.service.database
        update = ("UPDATE Entry e SET tag = 'hit' "
                  "WHERE e.amount >= :lo AND e.amount < :hi")
        delete = "DELETE FROM Entry e WHERE e.amount >= :lo AND e.amount < :hi"
        for text in (update, delete):
            assert "index_range_scan<e, Entry.amount IN [:lo, :hi)>" in \
                connection.explain(text)

        before = database.work_snapshot()
        assert connection.execute(update, {"lo": 40, "hi": 70}).rowcount == 30
        assert connection.execute(update, {"lo": 70, "hi": 40}).rowcount == 0
        assert connection.execute(update, {"lo": None, "hi": 40}).rowcount == 0
        assert connection.execute(delete, {"lo": 100, "hi": 120}).rowcount == 20
        after = database.work_snapshot()
        assert after["extension_scans"] == before["extension_scans"]
        assert after["index_lookups"] - before["index_lookups"] == 4

        tagged = connection.execute(
            "ACCESS e.amount FROM e IN Entry WHERE e.tag == 'hit'").fetchall()
        assert sorted(tagged) == list(range(40, 70))
        assert len(database.extension("Entry")) == 280

        # two open cursors on the one cached plan keep their own bounds
        select = ("ACCESS e.amount FROM e IN Entry "
                  "WHERE e.amount >= :lo AND e.amount < :hi")
        low_cursor = connection.execute(select, {"lo": 0, "hi": 12})
        high_cursor = connection.execute(select, {"lo": 90, "hi": 130})
        low_rows, high_rows = [], []
        for _ in range(7):
            low_rows.extend(low_cursor.fetchmany(2))
            high_rows.extend(high_cursor.fetchmany(3))
        assert sorted(low_rows) == list(range(12))
        assert sorted(high_rows) == [*range(90, 100), *range(120, 130)]

    def test_executemany_update_reuses_one_cached_plan(self, database):
        service = QueryService(database)
        inserts = service.cache.statistics.inserts
        service.router.executemany(
            "UPDATE Document d SET author = :a WHERE d.title == :t",
            [{"a": "x", "t": "Document 1"},
             {"a": "y", "t": "Document 2"},
             {"a": "z", "t": "Document 1"}])
        # one WHERE-plan build serves the whole batch
        assert service.cache.statistics.inserts == inserts + 1


# ----------------------------------------------------------------------
# DDL statements
# ----------------------------------------------------------------------
class TestDDL:
    def test_create_class_and_insert_into_it(self, database):
        connection = connect(database)
        connection.execute(
            "CREATE CLASS Memo ISA Document (body: STRING, priority: INT)")
        assert database.schema.has_class("Memo")
        created = connection.execute(
            "INSERT INTO Memo (title, body, priority) VALUES (:t, :b, 1)",
            {"t": "memo-1", "b": "remember"})
        oid = created.lastoid
        # inherited property and deep extension both work
        assert database.value(oid, "title") == "memo-1"
        assert oid in database.extension("Document")
        values = connection.execute(
            "ACCESS m.body FROM m IN Memo").fetchall()
        assert values == ["remember"]

    def test_create_class_bumps_schema_version(self, database):
        version = database.versions.schema
        connect(database).execute("CREATE CLASS Tag (label: STRING)")
        assert database.versions.schema == version + 1

    def test_index_ddl_round_trip(self, database):
        connection = connect(database)
        connection.execute("CREATE SORTED INDEX ON Paragraph(number)")
        assert database.indexes.get("Paragraph", "number").kind == "sorted"
        connection.execute("DROP INDEX ON Paragraph(number)")
        assert database.indexes.get("Paragraph", "number") is None

    def test_text_index_ddl(self, database):
        connection = connect(database)
        connection.execute("CREATE TEXT INDEX ON Section(title)")
        assert database.text_index("Section", "title") is not None
        connection.execute("DROP TEXT INDEX ON Section(title)")
        assert database.text_index("Section", "title") is None

    def test_duplicate_class_rejected_at_execution(self, database):
        connection = connect(database)
        connection.execute("CREATE CLASS Tag (label: STRING)")
        with pytest.raises((VQLAnalysisError, SchemaError)):
            connection.execute("CREATE CLASS Tag (label: STRING)")

    def test_statement_cache_refreshes_after_schema_ddl(self, database):
        connection = connect(database)
        text = "ACCESS t.label FROM t IN Tag"
        with pytest.raises(VQLAnalysisError):
            connection.execute(text)
        connection.execute("CREATE CLASS Tag (label: STRING)")
        connection.execute("INSERT INTO Tag (label) VALUES ('ok')")
        assert connection.execute(text).fetchall() == ["ok"]

    def test_connection_index_helpers_share_ddl_helper(self, database):
        connection = connect(database)
        connection.create_index("Paragraph", "number", kind="sorted")
        assert database.indexes.get("Paragraph", "number").kind == "sorted"
        connection.drop_index("Paragraph", "number")
        assert database.indexes.get("Paragraph", "number") is None


# ----------------------------------------------------------------------
# Connection / Cursor facade
# ----------------------------------------------------------------------
class TestConnectionCursor:
    QUERY = "ACCESS p.number FROM p IN Paragraph WHERE p.number <= :n"

    def test_explain_options_are_keyword_only(self, database, connection):
        """``explain(sql, params)`` used to bind the parameters to
        ``optimize`` and fail deep inside the statement cache; it now fails
        at the call, on every entry point."""
        parameters = {"n": 2}
        for explain in (connection.explain, connection.cursor().explain,
                        Session(database).explain,
                        QueryService(database).explain):
            with pytest.raises(TypeError, match="positional argument"):
                explain(self.QUERY, parameters)
            assert "physical plan:" in explain(self.QUERY, analyze=True,
                                               parameters=parameters)

    def test_cursor_streams_lazily(self, connection):
        cursor = connection.execute(self.QUERY, {"n": 3})
        assert cursor.rowcount == -1  # streaming: unknown up front
        assert cursor.description[0][0] == "__result"
        first = cursor.fetchone()
        assert first in (1, 2, 3)
        rest = cursor.fetchall()
        assert set([first, *rest]) == {1, 2, 3}
        assert cursor.fetchone() is None

    def test_fetchmany_respects_arraysize(self, connection):
        cursor = connection.cursor()
        cursor.arraysize = 2
        cursor.execute("ACCESS p FROM p IN Paragraph")
        assert len(cursor.fetchmany()) == 2
        assert len(cursor.fetchmany(5)) == 5

    @pytest.mark.parametrize("parallelism", [0, 2, 4, None])
    def test_parallelism_other_than_one_is_rejected(self, database,
                                                    parallelism):
        # plans are sequential; the keyword accepts its one value only
        connect(database, parallelism=1).close()
        Session(database, parallelism=1)
        with pytest.raises(ValueError, match="parallelism must be 1"):
            connect(database, parallelism=parallelism)
        with pytest.raises(ValueError, match="parallelism must be 1"):
            Session(database, parallelism=parallelism)

    def test_cursor_iteration(self, connection):
        values = [v for v in connection.execute(self.QUERY, {"n": 2})]
        assert sorted(values) == [1, 2]

    def test_cursor_results_match_session(self, database, connection):
        session = Session(database,
                          knowledge=document_knowledge(database.schema))
        text = ("ACCESS p FROM p IN Paragraph "
                "WHERE p->contains_string('Implementation')")
        expected = sorted(session.execute(text).values)
        assert sorted(connection.execute(text).fetchall()) == expected

    def test_two_streams_interleave_with_distinct_bindings(self, connection):
        a = connection.execute(self.QUERY, {"n": 1})
        b = connection.execute(self.QUERY, {"n": 2})
        collected_a, collected_b = [], []
        while True:
            row_a, row_b = a.fetchone(), b.fetchone()
            if row_a is None and row_b is None:
                break
            if row_a is not None:
                collected_a.append(row_a)
            if row_b is not None:
                collected_b.append(row_b)
        assert collected_a == [1]
        assert sorted(collected_b) == [1, 2]

    def test_fetch_without_result_set_raises(self, connection):
        cursor = connection.cursor()
        with pytest.raises(ServiceError):
            cursor.fetchone()
        cursor.execute("INSERT INTO Document (title) VALUES ('x')")
        with pytest.raises(ServiceError):
            cursor.fetchall()

    def test_executemany_insert_bulk(self, database, connection):
        before = database.object_count()
        cursor = connection.cursor()
        cursor.executemany("INSERT INTO Document (title) VALUES (?)",
                           [[f"bulk {i}"] for i in range(25)])
        assert cursor.rowcount == 25
        assert database.object_count() == before + 25

    def test_executemany_rejects_queries(self, connection):
        with pytest.raises(ServiceError):
            connection.executemany("ACCESS d FROM d IN Document", [None])

    def test_closed_cursor_and_connection_raise(self, database):
        connection = connect(database)
        cursor = connection.cursor()
        cursor.close()
        with pytest.raises(ServiceError):
            cursor.execute("ACCESS d FROM d IN Document")
        connection.close()
        with pytest.raises(ServiceError):
            connection.cursor()

    def test_deferred_mode_buffers_until_commit(self, database):
        connection = connect(database, autocommit=False)
        count = len(database.extension("Document"))
        connection.execute("INSERT INTO Document (title) VALUES ('a')")
        connection.execute("INSERT INTO Document (title) VALUES ('b')")
        assert connection.in_transaction
        assert len(database.extension("Document")) == count
        assert connection.commit() == 2
        assert len(database.extension("Document")) == count + 2
        assert not connection.in_transaction

    def test_deferred_update_sees_an_earlier_deferred_insert(self, database):
        # the batch's WHERE-queries read in place, inside its commit scope:
        # a later UPDATE finds the row an earlier INSERT of the batch made
        connection = connect(database, autocommit=False)
        connection.execute("INSERT INTO Document (title) VALUES ('zq')")
        connection.execute(
            "UPDATE Document d SET title = 'zq-updated' WHERE d.title == 'zq'")
        assert connection.commit() == 2
        assert connection.execute(
            "ACCESS d FROM d IN Document WHERE d.title == 'zq'"
            ).fetchall() == []
        assert len(connection.execute(
            "ACCESS d FROM d IN Document WHERE d.title == 'zq-updated'"
            ).fetchall()) == 1

    def test_rollback_discards_buffered_mutations(self, database):
        connection = connect(database, autocommit=False)
        count = database.object_count()
        connection.execute("INSERT INTO Document (title) VALUES ('gone')")
        assert connection.rollback() == 1
        assert connection.commit() == 0
        assert database.object_count() == count

    def test_context_manager_commits_on_clean_exit(self, database):
        count = database.object_count()
        with connect(database, autocommit=False) as connection:
            connection.execute("INSERT INTO Document (title) VALUES ('cm')")
        assert database.object_count() == count + 1

    def test_failed_commit_applies_nothing_and_keeps_the_buffer(self, database):
        connection = connect(database, autocommit=False)
        count = database.object_count()
        connection.execute("INSERT INTO Document (title) VALUES ('first')")
        # fails at apply time: the value does not conform to STRING
        connection.execute("INSERT INTO Section (title) VALUES (:t)",
                           {"t": 42})
        connection.execute("INSERT INTO Document (title) VALUES ('last')")
        with pytest.raises(TypeMismatchError):
            connection.commit()
        # the flush is atomic: the failure undid the already-applied entry
        # and the whole batch stays buffered for a retry or rollback
        assert connection.in_transaction
        assert database.object_count() == count
        assert len(connection.execute(
            "ACCESS d FROM d IN Document WHERE d.title == 'first'"
            ).fetchall()) == 0
        assert connection.rollback() == 3
        assert database.object_count() == count

    def test_concurrent_queries_and_dml_through_the_service(self, database):
        service = QueryService(database)
        requests = []
        for i in range(12):
            if i % 3 == 0:
                requests.append((
                    "INSERT INTO Document (title) VALUES (:t)",
                    {"t": f"concurrent {i}"}))
            else:
                requests.append(("ACCESS d.title FROM d IN Document", None))
        results = service.run_concurrent(requests, workers=4)
        inserts = [r for r in results if isinstance(r, StatementResult)]
        assert len(inserts) == 4
        assert all(r.rowcount == 1 for r in inserts)
        titles = service.execute(
            "ACCESS d.title FROM d IN Document").value_set()
        assert {f"concurrent {i}" for i in (0, 3, 6, 9)} <= titles

    def test_empty_deferred_executemany_is_a_noop(self, database):
        connection = connect(database, autocommit=False)
        connection.executemany(
            "UPDATE Document d SET title = ? WHERE d.title == ?", [])
        assert not connection.in_transaction
        assert connection.commit() == 0
        # and a following commit with real work still flushes cleanly
        connection.execute("INSERT INTO Document (title) VALUES ('after')")
        assert connection.commit() == 1

    def test_none_valued_rows_are_iterable_and_exhaustion_is_explicit(
            self, database, connection):
        connection.execute("INSERT INTO Section (title, number) VALUES "
                           "(:t, 777)", {"t": None})
        cursor = connection.execute(
            "ACCESS s.title FROM s IN Section WHERE s.number == 777")
        assert not cursor.exhausted
        values = [value for value in cursor]
        assert values == [None]  # iteration yields the NULL row
        assert cursor.exhausted
        assert cursor.fetchone() is None

    def test_caret_column_is_correct_after_a_comment(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            parse_statement("ACCESS d /* a comment */ FRM d IN Document")
        error = excinfo.value
        assert error.column == len("ACCESS d /* a comment */ ") + 1
        rendered = str(error)
        assert rendered.splitlines()[-1].index("^") == 2 + error.column - 1

    def test_session_explain_honors_the_naive_flag(self, database):
        session = Session(database)
        naive = session.router.explain(
            "UPDATE Document d SET author = 'x' WHERE d.title == 'y'",
            optimize=False)
        assert "naive physical plan:" in naive
        assert "index_eq_scan" not in naive
        optimized = session.router.explain(
            "UPDATE Document d SET author = 'x' WHERE d.title == 'y'")
        assert "index_eq_scan" in optimized  # title is hash-indexed

    def _racing_router(self, database):
        """A router whose query runner deletes the first matched target
        after the WHERE-query returns — the deterministic version of a
        concurrent writer winning the gap before the apply phase."""
        session = Session(database)
        victims = []

        def run_query(statement, parameters, optimize=True):
            result = session._execute_analyzed(statement.query, parameters,
                                               optimize)
            if result.rows:
                victim = result.rows[0][result.output_ref]
                database.delete(victim)
                victims.append(victim)
            return result

        return StatementRouter(database, run_query=run_query), victims

    def test_update_skips_targets_deleted_after_the_where_query(
            self, database):
        router, victims = self._racing_router(database)
        result = router.execute(
            "UPDATE Paragraph p SET content = 'raced' WHERE p.number == 1")
        assert victims and victims[0] not in result.oids
        assert result.rowcount == len(result.oids)
        for oid in result.oids:
            assert database.value(oid, "content") == "raced"

    def test_delete_skips_targets_deleted_after_the_where_query(
            self, database):
        router, victims = self._racing_router(database)
        before = len(database.extension("Paragraph"))
        result = router.execute("DELETE FROM Paragraph p WHERE p.number == 2")
        assert victims and victims[0] not in result.oids
        # the raced victim plus the surviving targets are all gone
        assert len(database.extension("Paragraph")) == \
            before - result.rowcount - 1

    def test_streamed_queries_enter_the_service_metrics(self, database):
        service = QueryService(database)
        connection = connect(database, service=service)
        connection.execute("ACCESS d FROM d IN Document").fetchall()
        snapshot = service.metrics.snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["statements_prepared"] >= 1
        # a second streamed execution of the same shape counts as a hit
        connection.execute("ACCESS d FROM d IN Document").fetchall()
        assert service.metrics.snapshot()["cache_hits"] == 1

    def test_closed_stream_records_metrics_once(self, database):
        service = QueryService(database)
        connection = connect(database, service=service)
        cursor = connection.execute("ACCESS p FROM p IN Paragraph")
        cursor.fetchone()
        cursor.close()
        assert service.metrics.snapshot()["queries"] == 1

    def test_prepare_rejects_dml(self, database):
        service = QueryService(database)
        with pytest.raises(ServiceError):
            service.prepare("INSERT INTO Document (title) VALUES ('x')")

    def test_prepare_reanalyzes_after_schema_ddl(self, database):
        service = QueryService(database)
        service.prepare("ACCESS d FROM d IN Document")
        before = service.prepare("ACCESS d FROM d IN Document")
        service.execute("CREATE CLASS Extra ISA Document")
        after = service.prepare("ACCESS d FROM d IN Document")
        # the statement cache revalidates on the schema version, so the
        # handle is rebuilt from a fresh analysis
        assert after.analyzed is not before.analyzed


# ----------------------------------------------------------------------
# an error raised mid-fetch is accounted like the same error in execute()
# ----------------------------------------------------------------------
class TestStreamErrorAccounting:
    FAILING = ("ACCESS p.number / (p.number - p.number) "
               "FROM p IN Paragraph WHERE p.number > :n")

    @staticmethod
    def assert_failed_statement(service, statements):
        """*statements* failed statements so far: counted as errors (never
        as executed queries), snapshot released, span closed as an error."""
        snapshot = service.metrics.snapshot()
        assert snapshot["errors"] == statements
        assert snapshot["queries"] == 0
        assert service.database._oldest_pin() is None  # chains prunable
        spans = service.tracer.recent()
        assert len(spans) == statements
        assert spans[-1].status == "error"
        assert "ZeroDivisionError" in spans[-1].error

    def test_through_the_service_stream(self, database):
        service = QueryService(database, tracing=True)
        with pytest.raises(ZeroDivisionError):
            service.execute(self.FAILING, {"n": 0})
        self.assert_failed_statement(service, 1)  # the reference behaviour
        stream = service.stream(self.FAILING, {"n": 0})
        with pytest.raises(ZeroDivisionError):
            stream.fetch(1)
        assert stream.exhausted
        assert stream.fetch(1) == [] and stream.drain() == []
        stream.close()  # finished once: closing accounts nothing further
        self.assert_failed_statement(service, 2)

    def test_through_the_cursor(self, database):
        connection = connect(database, tracing=True)
        cursor = connection.cursor()
        cursor.execute(self.FAILING, {"n": 0})
        with pytest.raises(ZeroDivisionError):
            cursor.fetchone()
        assert cursor.exhausted
        assert cursor.fetchone() is None and cursor.fetchall() == []
        cursor.close()
        self.assert_failed_statement(connection.service, 1)


# ----------------------------------------------------------------------
# bulk datamodel paths
# ----------------------------------------------------------------------
class TestBulkDatamodel:
    def test_update_ticks_version_clock_once(self, database):
        oid = database.extension("Paragraph")[0]
        version = database.versions.data
        database.update(oid, number=99, content="rewritten")
        assert database.versions.data == version + 1
        assert database.value(oid, "number") == 99
        assert database.value(oid, "content") == "rewritten"

    def test_update_statement_ticks_version_once_per_object(self, database):
        connection = connect(database)
        version = database.versions.data
        touched = connection.execute(
            "UPDATE Section s SET title = 'multi', number = 0").rowcount
        assert database.versions.data == version + touched

    def test_update_maintains_indexes_per_property(self, database):
        database.create_hash_index("Paragraph", "number")
        database.create_hash_index("Paragraph", "content")
        oid = database.extension("Paragraph")[0]
        database.update(oid, number=1234, content="indexed text")
        assert oid in database.indexes.get("Paragraph", "number").lookup(1234)
        assert oid in database.indexes.get(
            "Paragraph", "content").lookup("indexed text")

    def test_update_validates_before_writing(self, database):
        oid = database.extension("Paragraph")[0]
        number = database.value(oid, "number")
        with pytest.raises(TypeMismatchError):
            database.update(oid, number=5, content=123)
        # the valid column must not have been applied either
        assert database.value(oid, "number") == number

    def test_create_many_matches_create_semantics(self):
        loop_db = fresh_database()
        bulk_db = fresh_database()
        rows = [{"title": f"t{i}", "author": f"a{i}"} for i in range(20)]
        loop_oids = [loop_db.create("Document", **row) for row in rows]
        bulk_oids = bulk_db.create_many("Document", rows)
        assert loop_oids == bulk_oids
        assert (loop_db.statistics.objects_created
                == bulk_db.statistics.objects_created)
        assert loop_db.versions.data == bulk_db.versions.data
        for oid in bulk_oids:
            assert bulk_db.value(oid, "title") == loop_db.value(oid, "title")
        assert (list(loop_db.extension("Document"))
                == list(bulk_db.extension("Document")))

    def test_create_many_maintains_indexes(self, database):
        database.create_hash_index("Document", "author")
        oids = database.create_many(
            "Document", [{"title": "x", "author": "bulk-author"}] * 3)
        index = database.indexes.get("Document", "author")
        assert index.lookup("bulk-author") == set(oids)
        # the generator's title hash index must also see the new objects
        title_index = database.indexes.get("Document", "title")
        assert title_index.lookup("x") == set(oids)

    def test_create_many_validates_before_creating(self, database):
        count = database.object_count()
        with pytest.raises(TypeMismatchError):
            database.create_many("Document",
                                 [{"title": "ok"}, {"title": 42}])
        assert database.object_count() == count

    def test_create_many_unknown_property_rejected(self, database):
        with pytest.raises(SchemaError):
            database.create_many("Document", [{"nope": 1}])


class TestStatementEdges:
    def test_executemany_refuses_queries_and_ddl(self, connection):
        for text in ("ACCESS d FROM d IN Document",
                     "CREATE INDEX ON Document(author)"):
            with pytest.raises(ServiceError,
                               match="executemany supports INSERT/UPDATE/"
                                     "DELETE, not"):
                connection.service.router.executemany(text, [{}])

    def test_a_statement_result_has_no_rows(self, connection):
        result = connection.service.router.execute(
            "INSERT INTO Document (title) VALUES ('r')")
        assert result.rows == [] and result.rowcount == 1

    def test_explain_of_ddl_is_its_text_and_queries_need_an_explainer(
            self, database, connection):
        assert connection.service.router.explain(
            "CREATE INDEX ON Document(author)") == \
            "CREATE HASH INDEX ON Document(author)"
        router = StatementRouter(database, run_query=None)
        with pytest.raises(ServiceError, match="no query explainer"):
            router.explain("ACCESS d FROM d IN Document")

    def test_an_analyzed_ast_is_accepted_as_is(self, database, connection):
        statement = parse_statement("ACCESS d FROM d IN Document")
        rows = connection.service.router.execute(statement).rows
        assert len(rows) == len(database.extension("Document"))

    def test_consecutive_deferred_inserts_of_one_statement_share_a_batch(
            self, database):
        connection = connect(database, autocommit=False)
        insert = "INSERT INTO Document (title) VALUES (?)"
        cursor = connection.cursor()
        cursor.execute(insert, ["x1"])
        cursor.execute(insert, ["x2"])
        assert len(connection._pending) == 1
        assert connection.commit() == 2

    def test_a_cursor_closes_when_its_block_ends(self, connection):
        with connection.cursor() as cursor:
            cursor.execute("ACCESS d FROM d IN Document")
        with pytest.raises(ServiceError):
            cursor.fetchone()

    def test_an_unknown_index_kind_is_refused(self, database):
        with pytest.raises(SchemaError, match="unknown index kind 'bitmap'"):
            create_index(database, "bitmap", "Document", "title")


class TestStatementEdgesMore:
    def test_executemany_deletes_once_per_parameter_set(self, connection,
                                                        database):
        doomed = [p for p in database.extension("Paragraph")
                  if database.value(p, "number") in (1, 2)]
        assert connection.service.router.executemany(
            "DELETE FROM Paragraph p WHERE p.number == ?",
            [[1], [2]]).rowcount == len(doomed) > 0
        remaining = {database.value(p, "number")
                     for p in database.extension("Paragraph")}
        assert remaining and not remaining & {1, 2}

    def test_an_insert_value_may_be_an_expression(self, connection, database):
        result = connection.service.router.execute(
            "INSERT INTO Section (number, title) VALUES (? + 40, 'x')", [2])
        (oid,) = result.oids
        assert database.value(oid, "number") == 42

    def test_explain_analyze_alone_explains_the_analyze_statement(self):
        statement = parse_statement("EXPLAIN ANALYZE")
        assert str(statement) == "EXPLAIN ANALYZE"

    def test_a_missing_statement_word_is_a_syntax_error(self):
        with pytest.raises(VQLSyntaxError, match="expected INTO"):
            parse_statement("INSERT Document (title) VALUES ('x')")

    @pytest.mark.parametrize("parameters,message", [
        ({"a": 1}, "missing value"),
        ("ab", "not a single string"),
    ])
    def test_bindings_are_checked(self, connection, parameters, message):
        with pytest.raises(BindingError, match=message):
            connection.execute(
                "ACCESS p FROM p IN Paragraph WHERE p.number == :a "
                "AND p.number == :b" if isinstance(parameters, dict)
                else "ACCESS p FROM p IN Paragraph WHERE p.number == ?",
                parameters)
