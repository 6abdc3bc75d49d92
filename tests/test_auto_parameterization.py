"""Literal auto-parameterization: the plan cache keys on statement shapes.

``QueryService`` turns each eligible literal of a statement into a synthetic
bind parameter (:func:`repro.service.fingerprint.generalize`), so texts that
differ only in their constants share one cached plan, run with the
statement's own values.  The semantic rules must fire exactly as they fire
on the literal text: ``Session`` (which substitutes values before it
optimizes) is the literal-plan reference, ``execute_naive`` the canonical
one.
"""

from __future__ import annotations

import logging
import random
from collections import Counter

import pytest

from repro import connect, open_session
from repro.algebra.expressions import Const, Parameter, walk
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT, STRING
from repro.errors import VQLSyntaxError
from repro.optimizer.knowledge import ConditionImplication
from repro.physical.evaluator import make_hashable
from repro.physical.plans import describe_physical_tree, walk_physical
from repro.service import QueryService
from repro.service import service as service_module
from repro.service.cache import Shape, TextEntry
from repro.service.fingerprint import cache_key, generalize, query_fingerprint
from repro.vql.analyzer import analyze_query
from repro.vql.parser import parse_query
from repro.workloads import (
    document_knowledge,
    generate_document_database,
    university_knowledge,
)
from repro.workloads.university import generate_university_database

NUMBER_QUERY = "ACCESS p FROM p IN Paragraph WHERE p.number == {}"


def generic_of(text, schema, keep=frozenset()):
    return generalize(analyze_query(parse_query(text), schema), keep)


def synthetic(expression):
    return [node for node in walk(expression) if isinstance(node, Parameter)]


def values(result):
    return Counter(make_hashable(value) for value in result.values)


@pytest.fixture()
def doc_db():
    return generate_document_database(n_documents=4)


@pytest.fixture()
def uni_db():
    return generate_university_database(n_departments=3,
                                        students_per_department=12)


# ----------------------------------------------------------------------
# the generic form
# ----------------------------------------------------------------------
def test_each_literal_occurrence_gets_its_own_typed_parameter(doc_schema):
    generic, auto = generic_of(
        "ACCESS [n: p.number, tag: 'x'] FROM p IN Paragraph "
        "WHERE p.number == 3 OR p.number == 3", doc_schema)
    # equal values are never merged; numbering follows ACCESS, FROM, WHERE
    assert auto == {"$1:str": "x", "$2:int": 3, "$3:int": 3}
    assert generic.parameters == ("$1:str", "$2:int", "$3:int")
    assert [p.hint for p in synthetic(generic.query.where)] == [3, 3]
    assert ":$2:int" in str(generic.query) and "== 3" not in str(generic.query)


def test_values_of_different_types_never_share_a_shape(doc_schema):
    shapes = [generic_of(f"ACCESS p FROM p IN Paragraph WHERE p.number == {v}",
                         doc_schema)[0] for v in ("5", "5.0", "'5'", "6")]
    keys = [cache_key(generic, True) for generic in shapes]
    assert keys[0] != keys[1] != keys[2] != keys[0]
    assert keys[0] == keys[3]  # same type, other value: one shape
    assert len({query_fingerprint(generic) for generic in shapes}) == 3


def test_literals_that_stay_literal(doc_schema):
    # arithmetic over literals is folded by the compiler; booleans and
    # collections stay; a knowledge pattern's constant stays
    generic, auto = generic_of(
        "ACCESS p FROM p IN Paragraph WHERE p.number == 3 + 4 "
        "AND p->wordCount() > 40 AND TRUE AND p.number IS-IN {1, 2}",
        doc_schema, keep=frozenset({40}))
    assert auto is None and synthetic(generic.query.where) == []
    # 40.0 equals the pattern constant 40 (the rule matcher compares so)
    _, auto = generic_of(
        "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 40.0",
        doc_schema, keep=frozenset({40}))
    assert auto is None


def test_null_literal_stays_literal(doc_schema):
    from repro.vql.ast import Query, RangeDeclaration
    from repro.algebra.expressions import BinaryOp, ClassExtent, PropertyAccess, Var
    query = Query(access=Var("p"),
                  ranges=(RangeDeclaration("p", ClassExtent("Paragraph")),),
                  where=BinaryOp("==", PropertyAccess(Var("p"), "number"),
                                 Const(None)))
    analyzed = analyze_query(query, doc_schema)
    assert generalize(analyzed, frozenset()) == (analyzed, None)


def test_the_costing_hint_is_not_part_of_the_shape():
    assert Parameter("$1:int", hint=3) == Parameter("$1:int", hint=4)
    assert hash(Parameter("$1:int", hint=3)) == hash(Parameter("$1:int"))
    assert "hint" not in repr(Parameter("$1:int", hint=3))


def test_a_statement_is_generalized_once(doc_db, monkeypatch):
    calls = []
    real = service_module.generalize
    monkeypatch.setattr(service_module, "generalize",
                        lambda analyzed, keep: calls.append(1)
                        or real(analyzed, keep))
    service = QueryService(doc_db)
    for _ in range(3):
        service.execute(NUMBER_QUERY.format(3))
    service.execute("ACCESS p FROM p IN Paragraph WHERE p.number == ?", [3])
    service.execute("ACCESS p FROM p IN Paragraph WHERE p.number == ?", [4])
    assert len(calls) == 2  # one walk per text, none per call
    plain = service.prepare("ACCESS p FROM p IN Paragraph WHERE p.number == ?")
    assert plain.generic is plain.analyzed and plain.auto_values is None


# ----------------------------------------------------------------------
# one plan per shape
# ----------------------------------------------------------------------
def test_literal_variants_share_one_plan_and_answer_like_the_session(doc_db):
    service = QueryService(doc_db, knowledge=document_knowledge(doc_db.schema))
    session = open_session(doc_db, knowledge=document_knowledge(doc_db.schema))
    results = [service.execute(NUMBER_QUERY.format(n)) for n in (1, 2, 3, 4)]
    # the first text plans for itself; the second, with other literals,
    # plans the shape's generic plan, which every later text reuses
    assert [r.metrics.cache_hit for r in results] == [False, False, True, True]
    assert results[2].plan is results[1].plan is results[3].plan
    assert len(service.cache) == 1
    assert len({r.metrics.fingerprint for r in results}) == 1
    for n, result in zip((1, 2, 3, 4), results):
        assert values(result) == values(session.execute(NUMBER_QUERY.format(n)))


def test_equal_values_of_other_types_never_share_a_plan(doc_db):
    service = QueryService(doc_db)
    session = open_session(doc_db)
    for literal in ("2", "2.0", "'2'", "2", "2.0"):
        text = NUMBER_QUERY.format(literal)
        result = service.execute(text)
        assert values(result) == values(session.execute(text))
    assert len(service.cache) == 3


def test_a_repeated_text_keeps_its_own_plan(doc_db):
    service = QueryService(doc_db)
    first = service.execute(NUMBER_QUERY.format(2))
    again = service.execute(NUMBER_QUERY.format(2))
    assert again.metrics.cache_hit and again.plan is first.plan
    assert again.plan.hint_values == {"$1:int": 2}


# ----------------------------------------------------------------------
# the semantic rules fire exactly as before
# ----------------------------------------------------------------------
def rules(result):
    return result.plan.optimization.trace.rules_applied()


def test_I1_and_U2_fire_with_their_literals_kept(doc_db, uni_db):
    connection = connect(doc_db, knowledge=document_knowledge(doc_db.schema))
    text = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 40 AND p.number <= 3"
    result = connection.service.execute(text)
    assert "I1-large-paragraphs" in rules(result)
    assert "> 40)" in str(result.plan.analyzed.query)
    assert connection.execute(text).fetchall() is not None

    connection = connect(uni_db, knowledge=university_knowledge(uni_db.schema))
    result = connection.service.execute(
        "ACCESS s.name FROM s IN Student WHERE s.gpa >= 3.5 AND s.gpa <= 3.9")
    assert "U2-honours-precomputed" in rules(result)
    assert ">= 3.5)" in str(result.plan.analyzed.query)
    assert "<= :$1:float" in str(result.plan.analyzed.query)


def test_E2_E5_U3_fire_on_synthetic_parameters(doc_db, uni_db):
    connection = connect(doc_db, knowledge=document_knowledge(doc_db.schema))
    e2 = connection.service.execute(
        "ACCESS p FROM p IN Paragraph WHERE (p->document()).title == 'Query Optimization'")
    assert "E2-title-index [->]" in rules(e2)
    assert any("select_by_index(:$1:str)" in event.after
               for event in e2.plan.optimization.trace.transformations())
    e5 = connection.service.execute(
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')")
    assert "Paragraph->retrieve_by_string(:$1:str)" in \
        describe_physical_tree(e5.plan.physical_plan)

    connection = connect(uni_db, knowledge=university_knowledge(uni_db.schema))
    name = uni_db.value(uni_db.extension("Department")[0], "name")
    u3 = connection.service.execute(
        f"ACCESS d.courses FROM d IN Department WHERE d.name == '{name}'")
    assert "U3-find-by-name [logical]" in rules(u3)
    assert any("Department->find_by_name(:$1:str)" in event.after
               for event in u3.plan.optimization.trace.transformations())


DOC_TEXTS = [
    "ACCESS p FROM p IN Paragraph WHERE p.number == 3 AND p.number <= 7",
    "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization' "
    "AND d.author != 'nobody'",
    "ACCESS p.number FROM p IN Paragraph WHERE p->contains_string('Implementation') "
    "AND p.number <= 4",
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') "
    "AND (p->document()).title == 'Query Optimization' AND p.number != 9",
    "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 40 AND p.number <= 4",
    "ACCESS [a: p.number, b: q.number, tag: 7] FROM p IN Paragraph, q IN Paragraph "
    "WHERE p->sameDocument(q) AND p.number == 2",
    "ACCESS p.number FROM d IN Document, s IN d.sections, p IN s.paragraphs "
    "WHERE d.title == 'Query Optimization' AND p.number <= 3",
    "ACCESS s.title FROM s IN Section, d IN Document "
    "WHERE s.document == d AND s.number <= 3",
]
UNI_TEXTS = [
    "ACCESS s.name FROM s IN Student WHERE s.gpa >= 2.75",
    "ACCESS [n: s.name, g: s.gpa] FROM s IN Student WHERE s.gpa >= 3.5 AND s.gpa <= 3.9",
    "ACCESS s.name FROM s IN Student WHERE s->departmentName() == "
    "'Department of Databases 0' AND s.gpa <= 3.9",
    "ACCESS d.courses FROM d IN Department WHERE d.name == 'Department of Systems 1' "
    "AND d.name != 'x'",
    "ACCESS [n: s.name, tag: 3] FROM s IN Student, c IN Course, d IN Department "
    "WHERE s.department == d AND c.department == d",
]


@pytest.mark.parametrize("which", ["documents", "university"])
def test_rule_firings_and_operators_equal_the_sessions(which, doc_db, uni_db):
    database, knowledge, texts = (
        (doc_db, document_knowledge, DOC_TEXTS) if which == "documents"
        else (uni_db, university_knowledge, UNI_TEXTS))
    knowledge = knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    connection.execute("ANALYZE")
    session = open_session(database, knowledge=knowledge)
    for text in texts:
        result = connection.service.execute(text)
        assert result.plan.hint_values, text  # the plan is the generic one
        literal = session.optimize(text)
        assert Counter(rules(result)) == Counter(literal.trace.rules_applied()), text
        assert [node.name for node in walk_physical(result.plan.physical_plan)] == \
            [node.name for node in walk_physical(literal.best_plan)], text
        assert values(result) == values(session.execute_naive(text)), text


def test_a_registered_pattern_constant_stays_literal(doc_db):
    service = QueryService(doc_db, knowledge=document_knowledge(doc_db.schema))
    text = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 30"
    assert service.execute(text).plan.hint_values == {"$1:int": 30}
    service.register_knowledge(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent="p->wordCount() > 30",
        consequent="p IS-IN p->document().largeParagraphs",
        name="I1-at-30"))
    result = service.execute(text)
    assert result.plan.hint_values is None
    assert "I1-at-30" in rules(result)


# ----------------------------------------------------------------------
# edge contracts
# ----------------------------------------------------------------------
def test_update_delete_and_transaction_targets_share_one_plan(doc_db):
    connection = connect(doc_db)
    service = connection.service
    # keys that match nothing: no data drift evicts the plan in between
    for n in (101, 102, 103):
        connection.execute(
            f"UPDATE Paragraph p SET number = p.number WHERE p.number == {n}")
    hits = service.cache.statistics.hits
    connection.execute("DELETE FROM Paragraph p WHERE p.number == 104")
    assert service.cache.statistics.hits == hits + 1  # the same WHERE shape
    connection.execute("BEGIN")
    connection.execute(
        "UPDATE Paragraph p SET number = p.number WHERE p.number == 105")
    connection.execute("ROLLBACK")
    assert service.cache.statistics.hits == hits + 2
    where_plans = [entry for entry in service.cache.entries()
                   if "p.number == :$1:int" in str(entry.analyzed.query)]
    assert len(where_plans) == 1


def test_explain_shows_the_plan_that_runs_with_the_values(doc_db):
    doc_db.create_hash_index("Paragraph", "number")
    service = QueryService(doc_db)
    service.execute(NUMBER_QUERY.format(2))
    executed = service.execute(NUMBER_QUERY.format(4))  # the shape's plan
    report = service.explain(NUMBER_QUERY.format(3))
    assert len(service.cache) == 1  # explained from the shape's entry
    for node in walk_physical(executed.plan.physical_plan):
        assert node.describe() in report
    assert "index_eq_scan<p, Paragraph.number == :$1:int>" in report
    assert "auto-parameters: $1:int = 3" in report
    profiled = service.explain(NUMBER_QUERY.format(3), analyze=True)
    assert "runtime profile (16 rows):" in profiled
    statement = service.execute("EXPLAIN ANALYZE " + NUMBER_QUERY.format(3))
    assert "runtime profile (16 rows):" in statement.description
    assert "auto-parameters: $1:str = 'x'" in service.explain(
        "ACCESS d FROM d IN Document WHERE d.title == 'x'")


def test_slow_log_records_the_statements_own_text(doc_db, caplog):
    service = QueryService(doc_db, slow_query_ms=0)
    service.slow_log.redact_parameters = False
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        service.execute(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 3 AND p.number <= ?",
            [9])
    (message,) = [record.getMessage() for record in caplog.records]
    assert "(p.number == 3)" in message
    assert '"parameters": {"1": 9}' in message  # the client's, not $1:int


def test_metrics_top_statements_are_per_shape(doc_db):
    connection = connect(doc_db)
    for n in (1, 2, 3):
        connection.execute(NUMBER_QUERY.format(n)).fetchall()
    statements = connection.metrics()["statements"]
    assert [s["count"] for s in statements] == [3]


def skewed_database() -> Database:
    schema = Schema("skew")
    reading = ClassDef(name="Reading")
    reading.add_property(PropertyDef("category", STRING))
    reading.add_property(PropertyDef("score", INT))
    schema.add_class(reading)
    database = Database(schema)
    rng = random.Random(3)
    database.create_many("Reading", [
        {"category": "common" if rng.random() < 0.9 else f"rare{rng.randrange(9)}",
         "score": rng.randrange(10_000)} for _ in range(4_000)])
    database.create_hash_index("Reading", "category")
    database.create_sorted_index("Reading", "score")
    return database


def test_a_skewed_value_replans_through_feedback():
    """One plan per shape can be wrong for a skewed value: the common value
    reuses the plan priced for rare ones (correct rows, wrong access path),
    its execution diverges, and the shape is replanned with its values."""
    database = skewed_database()
    service = QueryService(database)
    service.execute("ANALYZE")
    text = "ACCESS r FROM r IN Reading WHERE r.category == '{}' AND r.score >= 5000"

    def truth(category):
        return sorted(oid for oid in database.extension("Reading")
                      if database.value(oid, "category") == category
                      and database.value(oid, "score") >= 5000)

    def run(category):
        result = service.execute(text.format(category))
        assert sorted(result.values) == truth(category)
        return result

    def access_path(result):
        return [node.name for node in walk_physical(result.plan.physical_plan)][-1]

    run("rare1")
    rare = run("rare2")  # the shape's generic plan, priced for a rare value
    assert access_path(rare) == "index_eq_scan"
    before = service.metrics.snapshot()
    common = run("common")
    assert common.metrics.cache_hit and common.plan is rare.plan
    assert service.metrics.snapshot()["feedback_evictions"] == \
        before["feedback_evictions"] + 1
    replanned = run("common")
    assert not replanned.metrics.cache_hit
    assert service.metrics.snapshot()["plans_reoptimized"] == \
        before["plans_reoptimized"] + 1
    assert replanned.plan.hint_values["$1:str"] == "common"
    assert access_path(replanned) == "index_range_scan"
    run("rare2")
    run("common")


# ----------------------------------------------------------------------
# the token key: a known shape's unseen text skips parse and analysis
# ----------------------------------------------------------------------
PARAGRAPHS = "ACCESS p FROM p IN Paragraph WHERE "
DOCUMENTS = "ACCESS d FROM d IN Document WHERE "

#: (first text, later texts that share its token key) per named case: the
#: later ones resolve by the token key, to what a full parse makes of them
TOKEN_CASES = {
    "folded minus": (PARAGRAPHS + "p.number == -5",
                     [PARAGRAPHS + "p.number == -2", PARAGRAPHS + "p.number == - 0"]),
    "double minus": (PARAGRAPHS + "p.number == - -3",
                     [PARAGRAPHS + "p.number == - -4"]),
    "folded arithmetic": (PARAGRAPHS + "p.number == 3 + 4",
                          [PARAGRAPHS + "p.number == 3+4"]),
    "positional marker": (PARAGRAPHS + "p.number == ?2 AND p.number <= 7",
                          [PARAGRAPHS + "p.number == ?2 AND p.number <= 9"]),
    "int": (PARAGRAPHS + "p.number == 5", [PARAGRAPHS + "p.number == 6"]),
    "float": (PARAGRAPHS + "p.number == 5.0", [PARAGRAPHS + "p.number == 6.5"]),
    "str": (DOCUMENTS + "d.title == '5'", [DOCUMENTS + "d.title == '6'"]),
    "pattern constant elsewhere": (PARAGRAPHS + "p.number <= 40",
                                   [PARAGRAPHS + "p.number <=  40"]),
    "quotes and keywords in strings": (
        DOCUMENTS + "d.title == \"it's\"",
        [DOCUMENTS + "d.title == 'ACCESS p FROM p IN Paragraph'",
         DOCUMENTS + "d.title == '-- no comment /* either'",
         DOCUMENTS + "d.title == \"?1 :name\""]),
    "comments and whitespace": (
        PARAGRAPHS + "p.number == 2 AND p.number <= 7",
        ["ACCESS  p /* a comment */ FROM p\n  IN Paragraph -- trailing\n"
         "WHERE p.number==3 AND\tp.number <= 8  -- end"]),
}

#: texts that share a case's token key but not its generic query: each
#: takes a full parse
TOKEN_MISSES = {
    "folded arithmetic": PARAGRAPHS + "p.number == 3 + 5",
    "pattern constant elsewhere": PARAGRAPHS + "p.number <= 41",
}


@pytest.mark.parametrize("case", sorted(TOKEN_CASES))
def test_token_path_equals_the_full_parse(case, doc_db, token_path_oracle):
    knowledge = document_knowledge(doc_db.schema)
    connection = connect(doc_db, knowledge=knowledge)
    service = connection.service
    session = open_session(doc_db, knowledge=knowledge)
    first, later = TOKEN_CASES[case]
    parameters = [1, 2] if "?2" in first else None
    assert not token_path_oracle(service, first)
    for text in later:
        assert token_path_oracle(service, text), text
    miss = TOKEN_MISSES.get(case)
    if miss is not None:
        assert not token_path_oracle(service, miss)
    for text in [first, *later, *([miss] if miss else [])]:
        rows = connection.execute(text, parameters).fetchall()
        assert Counter(make_hashable(row) for row in rows) == \
            values(session.execute_naive(text, parameters=parameters)), text


def test_a_pattern_constant_never_binds_through_the_token_key(
        doc_db, token_path_oracle):
    """After ``<= 41`` planned the slot as ``$1``, the same key with the
    pattern constant 40 must still keep 40 literal."""
    service = QueryService(doc_db, knowledge=document_knowledge(doc_db.schema))
    assert not token_path_oracle(service, PARAGRAPHS + "p.number <= 41")
    assert token_path_oracle(service, PARAGRAPHS + "p.number <= 39")
    assert not token_path_oracle(service, PARAGRAPHS + "p.number <= 40")
    statement = service._resolve(PARAGRAPHS + "p.number <= 40 ", True)
    assert statement.auto_values is None


def test_schema_ddl_and_new_pattern_constants_force_a_full_parse(
        doc_db, monkeypatch):
    from repro.api import router as router_module
    parses = []
    real = router_module.parse_statement
    monkeypatch.setattr(router_module, "parse_statement",
                        lambda text: parses.append(text) or real(text))
    connection = connect(doc_db, knowledge=document_knowledge(doc_db.schema))
    service = connection.service
    words = PARAGRAPHS + "p->wordCount() > {}"
    connection.execute(NUMBER_QUERY.format(1)).fetchall()
    connection.execute(NUMBER_QUERY.format(2)).fetchall()
    assert len(parses) == 1
    connection.execute("CREATE CLASS Note (body: STRING)")
    connection.execute(NUMBER_QUERY.format(3)).fetchall()
    assert parses[-1] == NUMBER_QUERY.format(3)  # a new schema version

    connection.execute(words.format(29)).fetchall()
    connection.execute(words.format(28)).fetchall()
    assert parses[-1] == words.format(29)  # 28 matched the token key
    service.register_knowledge(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent="p->wordCount() > 30",
        consequent="p IS-IN p->document().largeParagraphs",
        name="I1-at-30"))
    connection.execute(words.format(31)).fetchall()
    assert parses[-1] == words.format(31)  # another keep-set
    result = service.execute(words.format(30))
    assert parses[-1] == words.format(30)  # 30 is now kept literal
    assert result.plan.hint_values is None and "I1-at-30" in rules(result)


def test_literal_variants_parse_once_and_repeats_build_no_token_key(
        doc_db, monkeypatch):
    """The counted-work gate: fifty literal variants of one shape through
    ``connect()`` parse one text; a verbatim repeat of a parsed text is a
    text hit and builds no token key."""
    from repro.api import router as router_module
    session = open_session(doc_db)
    texts = [NUMBER_QUERY.format(n) for n in range(50)]
    expected = [values(session.execute(text)) for text in texts]
    parses, keys = [], []
    real_parse, real_key = router_module.parse_statement, service_module.token_key
    monkeypatch.setattr(router_module, "parse_statement",
                        lambda text: parses.append(text) or real_parse(text))
    monkeypatch.setattr(service_module, "token_key",
                        lambda text: keys.append(text) or real_key(text))
    connection = connect(doc_db)
    for text, answer in zip(texts, expected):
        rows = connection.execute(text).fetchall()
        assert Counter(make_hashable(row) for row in rows) == answer
    assert parses == [NUMBER_QUERY.format(0)] and len(keys) == 50
    connection.execute(NUMBER_QUERY.format(0)).fetchall()
    assert len(keys) == 50
    snapshot = connection.service.metrics.snapshot()
    assert (snapshot["statement_text_hits"],
            snapshot["statement_token_hits"]) == (1, 49)
    counters = connection.metrics()["counters"]
    assert counters["repro_statement_text_hits_total"] == 1
    assert counters["repro_statement_token_hits_total"] == 49
    # every variant after the first two ran the shape's one generic plan,
    # held by the one shape entry its token key is an alias of — as is
    # another token key of the shape, written by a later full parse
    connection.execute(NUMBER_QUERY.format("(1)")).fetchall()
    cache = connection.service.cache
    (entry,) = cache.entries()
    for text in (NUMBER_QUERY.format(7), NUMBER_QUERY.format("(1)")):
        assert cache.get(real_key(text)[0], doc_db).shape.plan is entry


@pytest.mark.parametrize("valid, split", [
    (PARAGRAPHS + "p.number == ?2 AND p.number <= ?1",
     PARAGRAPHS + "p.number == ? 2 AND p.number <= ?1"),
    (PARAGRAPHS + "p.number == :n", PARAGRAPHS + "p.number == : n"),
])
def test_a_marker_split_from_its_number_or_name_stays_an_error(
        valid, split, doc_db):
    """``?2`` and ``:n`` are markers only when glued; the token key keeps
    the glue, so the split text is not matched to the valid one."""
    service = QueryService(doc_db)
    parameters = [1, 2] if "?" in valid else {"n": 1}
    service.execute(valid, parameters)
    with pytest.raises(VQLSyntaxError):
        service.execute(split, parameters)


def test_a_token_hit_plans_with_its_own_values():
    """The token path hands the stored generic query to the plan cache;
    a plan it builds is priced with the statement's literals, not those
    of the text that wrote the entry — so the skewed value still replans
    through feedback exactly as on the full path."""
    database = skewed_database()
    service = QueryService(database)
    service.execute("ANALYZE")
    text = "ACCESS r FROM r IN Reading WHERE r.category == '{}' AND r.score >= 5000"
    service.execute(text.format("rare1"))
    planned = service.execute(text.format("rare2"))
    assert service.metrics.snapshot()["statement_token_hits"] == 1
    assert not planned.metrics.cache_hit
    assert planned.plan.hint_values == {"$1:str": "rare2", "$2:int": 5000}
    assert [p.hint for p in synthetic(planned.plan.analyzed.query.where)] \
        == ["rare2", 5000]


def test_token_entries_under_concurrent_clients(doc_db):
    """Six workers on two cores resolve literal variants of three shapes
    through one service while they write, evict and read the shared
    statement cache: every answer equals the session's, the cache's count
    of cached texts stays exact, every alias belongs to a cached shape, and
    no build lock is left held."""
    import sys
    shapes = [NUMBER_QUERY, PARAGRAPHS + "p.number <= {} AND p.number >= 2",
              DOCUMENTS + "d.title != 'x{}'"]
    texts = [shape.format(n) for n in range(40) for shape in shapes]
    session = open_session(doc_db)
    expected = [values(session.execute(text)) for text in texts]
    service = QueryService(doc_db, cache_capacity=2)  # two entries: evictions
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = service.run_concurrent([(text, None) for text in texts],
                                         workers=6)
    finally:
        sys.setswitchinterval(interval)
    assert [values(result) for result in results] == expected
    snapshot = service.metrics.snapshot()
    cache = service.cache
    texts_cached = sum(isinstance(key, str) for key in cache._aliases) + sum(
        isinstance(entry, TextEntry) for entry in cache._entries.values())
    assert cache.texts == texts_cached
    assert snapshot["queries"] == len(texts)
    assert snapshot["statement_token_hits"] > 0
    shapes = [entry for entry in cache._entries.values()
              if isinstance(entry, Shape)]
    assert all(alias.shape in shapes for alias in cache._aliases.values())
    assert all(not shape.lock.locked() for shape in shapes)
