"""The text every public object renders to with ``str()`` / ``describe()``:
what a user sees when printing a database, a service, a statement, a plan
or a telemetry component.  Each rendering is pinned to its exact text."""

from __future__ import annotations

from repro import QueryService, Session, connect
from repro.algebra.expressions import Const, PatternVar, SetConstructor, UnaryOp, Var
from repro.algebra.operators import Diff, Get, NaturalJoin, Union
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT, STRING
from repro.optimizer.rules import RuleSet
from repro.physical.naive import naive_implementation
from repro.physical.plans import IndexNestedLoopJoin, describe_physical_tree
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.spans import Tracer
from repro.vql.lexer import tokenize
from repro.vql.parser import parse_statement
from repro.workloads import generate_document_database
from repro.workloads.queries import motivating_query


def small_database() -> Database:
    schema = Schema("notes")
    note = ClassDef("Note")
    note.add_property(PropertyDef("title", STRING))
    note.add_property(PropertyDef("rank", INT))
    schema.add_class(note)
    database = Database(schema, name="notes")
    database.create("Note", title="first", rank=1)
    return database


def test_database_and_front_ends():
    database = small_database()
    shown = "Database('notes', 1 objects, 1 classes)"
    assert str(database) == shown
    assert str(Session(database)) == f"Session({shown}, knowledge=0)"
    assert str(QueryService(database)) == \
        f"QueryService({shown}, 0 cached plans, knowledge v0)"
    connection = connect(database)
    assert str(connection) == f"Connection({shown}, open)"
    connection.execute("BEGIN")
    assert str(connection._txn) == \
        f"Transaction(start_ts={database.clock.published}, active, 0 op(s))"
    connection.execute("ROLLBACK")


def test_objects_schema_and_indexes():
    database = small_database()
    (oid,) = database.extension("Note")
    stored = database.get(oid)
    assert str(stored) == "<Note:1>"
    assert repr(stored) == \
        "DatabaseObject(OID('Note', 1), {'title': 'first', 'rank': 1})"
    assert str(database.schema.get_class("Note")) == "CLASS Note"
    assert str(database.create_hash_index("Note", "title")) == \
        "HashIndex(Note.title, 1 entries)"
    assert str(database.create_sorted_index("Note", "rank")) == \
        "SortedIndex(Note.rank, 1 entries)"
    documents = generate_document_database(n_documents=1)
    assert str(documents.schema.resolve_instance_method(
        "Paragraph", "contains_string")) == \
        "contains_string(s: STRING): BOOL [external]"


def test_expressions_statements_and_tokens():
    assert str(SetConstructor((Const(1), Var("x")))) == "{1, x}"
    assert str(PatternVar("a")) == "?a"
    assert str(UnaryOp("-", Var("x"))) == "-x"
    assert str(UnaryOp("NOT", Var("x"))) == "(NOT x)"
    for text, shown in [
            ("ACCESS d FROM d IN Document", "ACCESS d\nFROM d IN Document"),
            ("EXPLAIN ACCESS d FROM d IN Document",
             "EXPLAIN ACCESS d\nFROM d IN Document"),
            ("EXPLAIN ANALYZE ACCESS d FROM d IN Document",
             "EXPLAIN ANALYZE ACCESS d\nFROM d IN Document"),
            ("BEGIN", "BEGIN"), ("COMMIT", "COMMIT"),
            ("ROLLBACK", "ROLLBACK")]:
        assert str(parse_statement(text)) == shown
    assert str(tokenize("ACCESS 'x'")[1]) == "STRING('x')"
    assert str(motivating_query()) == (
        "ACCESS p FROM p IN Paragraph WHERE "
        "p->contains_string('Implementation') AND "
        "(p->document()).title == 'Query Optimization'")


def test_set_operators_and_joins_in_plans():
    left, right = Get("p", "Paragraph"), Get("p", "Paragraph")
    assert [op.describe() for op in (Union(left, right), Diff(left, right),
                                     NaturalJoin(left, Get("d", "Document")))] \
        == ["union", "diff", "natural_join"]
    assert describe_physical_tree(naive_implementation(
        Union(left, Diff(left, right)))) == "\n".join([
            "union_impl",
            "  class_scan<p, Paragraph>",
            "  diff_impl",
            "    class_scan<p, Paragraph>",
            "    class_scan<p, Paragraph>"])
    merge = naive_implementation(NaturalJoin(left, Get("d", "Document")))
    assert merge.describe() == "natural_join_impl"
    assert merge.refs() == ("d", "p")
    probe = IndexNestedLoopJoin(Var("d"), "p", "Paragraph", "number",
                                naive_implementation(Get("d", "Document")))
    assert probe.refs() == ("d", "p")
    assert probe.describe() == \
        "index_nested_loop_join<d == p:Paragraph.number>"


def test_telemetry_and_rules():
    assert str(MetricsRegistry()) == "MetricsRegistry(0 metrics)"
    assert str(SlowQueryLog(threshold_ms=5)) == \
        "SlowQueryLog(threshold=5ms, redact=True)"
    tracer = Tracer(enabled=True)
    assert str(tracer) == "Tracer(enabled, 0 spans, 0 sinks)"
    assert str(RuleSet("empty")) == \
        "RuleSet('empty', 0 transformations, 0 implementations)"
