"""``OID`` is a tuple-backed value type and an atom to the data model.

Two contracts:

* the value type — hashing, equality and ordering are the tuple's (C, no
  Python frame), ``repr``/``str`` and pickling are unchanged, the one
  accepted semantic change (an OID equals its plain pair) is pinned;
* the atom contract — every "is this value a collection?" site answers for
  an OID, and for collections of OIDs, exactly as it did when ``OID`` was
  not a tuple: a single reference never turns into a two-element set.
"""

from __future__ import annotations

import copy
import io
import json
import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BinaryOp, Const
from repro.datamodel.methods import collect_over_property
from repro.datamodel.oid import OID, is_collection
from repro.datamodel.types import (
    ANY,
    ArrayType,
    ObjectType,
    SetType,
    infer_type,
    object_type,
)
from repro.errors import ExecutionError
from repro.optimizer.cost import CostModel
from repro.physical import plans as P
from repro.physical.evaluator import (
    _access_property,
    _as_set,
    _invoke_method,
    evaluate,
)
from repro.physical.executor import prepare_plan
from repro.physical.interpreter import _iterate_set, execute_plan_interpreted
from repro.physical.restricted_exec import _access, _invoke
from repro.service.service import QueryService
from repro.storage.encoding import decode_value, encode_value
from repro.telemetry.sinks import JsonlSink, json_text
from repro.telemetry.spans import TraceSpan, Tracer
from repro.vql.parser import parse_expression
from repro.workloads import generate_document_database
from repro.workloads.university import generate_university_database

oids = st.builds(OID, st.sampled_from(["A", "B", "Paragraph"]),
                 st.integers(0, 50))


# ----------------------------------------------------------------------
# the value type
# ----------------------------------------------------------------------
def test_hash_equality_and_order_run_in_c():
    assert OID.__hash__ is tuple.__hash__
    assert OID.__eq__ is tuple.__eq__
    assert OID.__lt__ is tuple.__lt__
    assert hash(OID("Paragraph", 3)) == hash(("Paragraph", 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(oids, max_size=20))
def test_sorted_is_class_name_then_serial_order(values):
    expected = sorted(values, key=lambda oid: (oid.class_name, oid.serial))
    assert sorted(values) == expected
    assert sorted(set(values)) == sorted(set(expected))


def test_text_forms_are_unchanged():
    oid = OID("Paragraph", 3)
    assert str(oid) == "Paragraph:3"
    assert repr(oid) == "OID('Paragraph', 3)"
    assert f"{oid}" == "Paragraph:3"


def test_keyword_construction_and_fields():
    oid = OID(class_name="Section", serial=7)
    assert oid == OID("Section", 7)
    assert (oid.class_name, oid.serial) == ("Section", 7)
    assert OID._fields == ("class_name", "serial")


@pytest.mark.parametrize("round_trip", [
    lambda oid: pickle.loads(pickle.dumps(oid)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trips_keep_the_type(round_trip):
    oid = OID("Document", 12)
    again = round_trip(oid)
    assert again == oid and type(again) is OID
    assert repr(again) == repr(oid)
    nested = round_trip({oid: [oid, {oid}]})
    key, = nested
    assert type(key) is OID and type(nested[key][0]) is OID


def test_immutable_and_slotted():
    oid = OID("Document", 1)
    with pytest.raises(AttributeError):
        oid.serial = 2
    with pytest.raises(AttributeError):
        oid.extra = 1
    assert not hasattr(oid, "__dict__")


def test_an_oid_equals_its_plain_pair():
    """The accepted semantic change: an OID is a tuple, so it equals the
    plain pair with the same fields (and finds it in sets and dicts).  A
    type-strict ``__eq__`` would cost a Python frame per probe."""
    oid = OID("A", 1)
    assert oid == ("A", 1) and ("A", 1) == oid
    assert ("A", 1) in {oid} and oid in {("A", 1)}
    assert {oid: "x"}[("A", 1)] == "x"
    assert oid != ("A", 2) and oid != ["A", 1]


# ----------------------------------------------------------------------
# the atom contract: one predicate, every site
# ----------------------------------------------------------------------
def test_is_collection():
    oid = OID("A", 1)
    assert not is_collection(oid)
    for value in ((oid,), [oid], {oid}, frozenset({oid}), (), ("A", 1)):
        assert is_collection(value)
    for value in (None, 1, "A", {"k": oid}, b"ab"):
        assert not is_collection(value)


@pytest.fixture(scope="module")
def doc_database():
    return generate_document_database(n_documents=3)


def test_property_and_method_lifting(doc_database):
    database = doc_database
    paragraph = database.extension("Paragraph")[0]
    section = database.value(paragraph, "section")
    document = database.value(section, "document")
    for access in (_access_property, _access):
        assert access(paragraph, "section", database) == section
        assert access({paragraph}, "section", database) == {section}
        assert access((paragraph,), "section", database) == {section}
    for invoke in (_invoke_method, _invoke):
        assert invoke(paragraph, "document", [], database) == document
        assert invoke([paragraph], "document", [], database) == {document}
    # a set-valued property lifted over a set unions the members
    sections = database.value(document, "sections")
    assert _access_property({document}, "sections", database) == set(sections)


def test_as_set_and_iterate_set_treat_an_oid_as_one_element():
    oid = OID("A", 1)
    plan = P.ExpressionSetScan("x", Const(oid))
    assert _as_set(oid) == {oid}
    assert _as_set((oid, oid)) == {oid}
    assert _iterate_set(oid, plan) == [oid]
    assert _iterate_set((oid, OID("A", 2), oid), plan) == [oid, OID("A", 2)]


def test_both_engines_scan_a_single_reference_as_a_singleton(doc_database):
    database = doc_database
    paragraph = database.extension("Paragraph")[0]
    section = database.value(paragraph, "section")
    scan = P.ExpressionSetScan("s", Const(section))
    assert prepare_plan(scan, database).run() == [{"s": section}]
    assert execute_plan_interpreted(scan, database) == [{"s": section}]
    # FROM over a single-valued path: one row per paragraph, never two
    flatten = P.FlattenEval("s", parse_expression("p.section"),
                            P.ClassScan("p", "Paragraph"))
    compiled = prepare_plan(flatten, database).run()
    assert compiled == execute_plan_interpreted(flatten, database)
    assert len(compiled) == len(database.extension("Paragraph"))
    assert all(type(row["s"]) is OID for row in compiled)


def test_is_in_an_oid_is_not_a_collection(doc_database):
    database = doc_database
    paragraph = database.extension("Paragraph")[0]
    section = database.value(paragraph, "section")
    scan = P.ClassScan("p", "Paragraph")
    probe = parse_expression("p.section IS-IN p.section")
    with pytest.raises(ExecutionError, match="not a collection"):
        evaluate(probe, {"p": paragraph}, database)
    # per-row containers, and a constant OID (the compiled engine's
    # prebuilt-set path) on the right
    for condition in (probe, BinaryOp("IS-IN", parse_expression("p.section"),
                                      Const(section))):
        plan = P.Filter(condition, scan)
        with pytest.raises(ExecutionError, match="not a collection"):
            prepare_plan(plan, database).run()
        with pytest.raises(ExecutionError, match="not a collection"):
            execute_plan_interpreted(plan, database)
    # a tuple of OIDs on the right is still a collection
    for right in (Const((section,)), parse_expression("p.section.document"
                                                      ".sections")):
        plan = P.Filter(BinaryOp("IS-IN", parse_expression("p.section"),
                                 right), scan)
        rows = prepare_plan(plan, database).run()
        assert rows == execute_plan_interpreted(plan, database)
        assert rows


def test_types_reject_a_bare_oid():
    oid = OID("Paragraph", 1)
    assert not SetType(ANY).validate(oid)
    assert not ArrayType(ANY).validate(oid)
    assert SetType(object_type("Paragraph")).validate({oid})
    assert ArrayType(object_type("Paragraph")).validate((oid, oid))
    assert not ArrayType(ANY).validate({oid})
    assert infer_type(oid) == ObjectType("Paragraph")
    assert infer_type((oid,)) == ArrayType(ObjectType("Paragraph"))
    assert infer_type({oid}) == SetType(ObjectType("Paragraph"))


def test_object_type_accepts_oids_only():
    class Lookalike:
        class_name = "Paragraph"
        serial = 1

    any_object = ObjectType()
    assert any_object.validate(OID("Paragraph", 1))
    assert ObjectType("Section").validate(OID("Paragraph", 1))
    assert any_object.validate(None)
    assert not any_object.validate(Lookalike())
    assert not any_object.validate(("Paragraph", 1))


class _Context:
    def __init__(self, values):
        self.values = values

    def value(self, receiver, prop):
        return self.values[receiver, prop]


def test_path_collect_adds_a_single_reference_whole():
    doc, sec1, sec2 = OID("D", 1), OID("S", 1), OID("S", 2)
    target = OID("T", 9)
    collect = collect_over_property("via", "to")
    ctx = _Context({(doc, "via"): {sec1, sec2}, (sec1, "to"): target,
                    (sec2, "to"): (OID("T", 1), OID("T", 2))})
    assert collect(ctx, doc) == {target, OID("T", 1), OID("T", 2)}
    # a single-valued intermediate is one receiver, not a pair
    ctx = _Context({(doc, "via"): sec1, (sec1, "to"): target})
    assert collect(ctx, doc) == {target}


@pytest.mark.parametrize("generate, single, multi", [
    (lambda: generate_document_database(n_documents=3),
     [("Paragraph", "section"), ("Section", "document")],
     [("Document", "sections"), ("Section", "paragraphs")]),
    (lambda: generate_university_database(n_departments=2,
                                          students_per_department=6),
     [("Course", "department"), ("Student", "department")],
     [("Department", "students"), ("Student", "courses")]),
], ids=["documents", "university"])
def test_fanout_of_a_single_reference(generate, single, multi):
    database = generate()
    # the cost model's live sample, before any ANALYZE
    model = CostModel(database.schema, database)
    for class_name, prop in single:
        assert model.property_fanout(class_name, prop) == model.DEFAULT_FANOUT
    database.analyze()
    catalog = database.stats_catalog
    for class_name, prop in single:
        stats = catalog.fresh(class_name).property_statistics(prop)
        assert stats.avg_fanout is None, (class_name, prop)
    for class_name, prop in multi:
        stats = catalog.fresh(class_name).property_statistics(prop)
        assert stats.avg_fanout is not None and stats.avg_fanout > 1.0


def test_method_cardinality_of_a_single_reference():
    database = generate_document_database(n_documents=2)
    database.analyze()
    stats = database.stats_catalog.method_statistics("document")
    assert stats is not None and stats.samples > 0
    assert stats.avg_result_cardinality is None


def test_const_cardinality():
    model = CostModel(generate_document_database(n_documents=1).schema)
    oid = OID("Paragraph", 1)
    assert model.expression_cardinality(Const(oid)) == 1.0
    assert model.expression_cardinality(Const((oid, OID("A", 2),
                                               OID("A", 3)))) == 3.0
    assert model.expression_cardinality(Const(frozenset({oid}))) == 1.0


# ----------------------------------------------------------------------
# the atom contract against a reference written the old way round
# ----------------------------------------------------------------------
def reference_is_collection(value):
    """The dataclass-era test: an OID was never a tuple."""
    if isinstance(value, OID):
        return False
    return isinstance(value, (set, frozenset, list, tuple))


def reference_as_set(value):
    if value is None:
        return set()
    return set(value) if reference_is_collection(value) else {value}


def reference_infer_type(value):
    if isinstance(value, OID):
        return ObjectType(value.class_name)
    if isinstance(value, (set, frozenset)):
        inner = {reference_infer_type(v) for v in value}
        return SetType(inner.pop() if len(inner) == 1 else ANY)
    if isinstance(value, (list, tuple)):
        inner = {reference_infer_type(v) for v in value}
        return ArrayType(inner.pop() if len(inner) == 1 else ANY)
    return infer_type(value)


def reference_iterate_set(value):
    if not reference_is_collection(value):
        return [value]
    elements: list = []
    for element in value:
        if element not in elements:
            elements.append(element)
    return elements


def shape(value):
    """*value* with every OID and container tagged by its kind, so that an
    OID and its plain pair no longer compare equal (a frozenset decodes as
    a set, so both are tagged ``set``)."""
    if isinstance(value, OID):
        return ("OID", value.class_name, value.serial)
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(map(shape, value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(shape, value)))
    return value


#: the domain of the contract: OIDs, their plain pairs, other atoms, and
#: collections of those
atoms = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=2), oids,
                  st.tuples(st.sampled_from(["A", "B"]), st.integers(0, 3)))
values = st.one_of(atoms, st.lists(atoms, max_size=4),
                   st.tuples(atoms, atoms), st.sets(atoms, max_size=4),
                   st.frozensets(atoms, max_size=4))


@settings(max_examples=300, deadline=None)
@given(values)
def test_every_site_answers_as_the_reference(value):
    assert is_collection(value) == reference_is_collection(value)
    assert shape(_as_set(value)) == shape(reference_as_set(value))
    if value is not None:
        plan = P.ExpressionSetScan("x", Const(value))
        assert (shape(_iterate_set(value, plan))
                == shape(reference_iterate_set(value)))
    assert (SetType(ANY).validate(value)
            == reference_is_collection(value))
    assert (ArrayType(ANY).validate(value)
            == (reference_is_collection(value)
                and not isinstance(value, (set, frozenset))))
    assert infer_type(value) == reference_infer_type(value)
    assert shape(decode_value(encode_value(value))) == shape(value)


def test_encoding_tags_oids():
    oid = OID("Paragraph", 3)
    assert encode_value(oid) == {"$oid": ["Paragraph", 3]}
    assert encode_value((oid,)) == {"$tuple": [{"$oid": ["Paragraph", 3]}]}
    assert encode_value(("Paragraph", 3)) == {"$tuple": ["Paragraph", 3]}
    assert type(decode_value(encode_value(oid))) is OID
    assert type(decode_value(encode_value(("Paragraph", 3)))) is tuple


# ----------------------------------------------------------------------
# text surfaces keep ``Class:serial``
# ----------------------------------------------------------------------
def test_json_text_writes_an_oid_as_its_text():
    oid = OID("Paragraph", 3)
    assert json_text(oid) == '"Paragraph:3"'
    assert json.loads(json_text({"a": [oid, (oid, 1)], "b": {"c": oid}})) == {
        "a": ["Paragraph:3", ["Paragraph:3", 1]], "b": {"c": "Paragraph:3"}}
    # sets were never JSON: they still go through ``default=str``
    assert json.loads(json_text({"s": {oid}})) == {"s": str({oid})}
    assert json_text((1, "x")) == json.dumps((1, "x"))


@pytest.mark.parametrize("redact", [False, True])
def test_an_oid_bind_parameter_reaches_the_slow_log_as_text(doc_database,
                                                            caplog, redact):
    database = doc_database
    paragraph = database.extension("Paragraph")[0]
    section = database.value(paragraph, "section")
    service = QueryService(database, slow_query_ms=0.0)
    service.slow_log.redact_parameters = redact
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.slowlog"):
        result = service.execute(
            "ACCESS p FROM p IN Paragraph WHERE p.section == :s",
            {"s": section})
    assert paragraph in result.values
    records = [r for r in caplog.records
               if r.name == "repro.telemetry.slowlog"]
    payload = json.loads(records[-1].message.split(": ", 1)[1])
    assert payload["parameters"] == {"s": "<OID>" if redact else str(section)}


def test_span_export_writes_an_oid_as_its_text():
    oid = OID("Section", 2)
    stream = io.StringIO()
    tracer = Tracer(enabled=True, sinks=[JsonlSink(stream)])
    span = TraceSpan("statement", trace_id=1, receiver=oid, path=[oid])
    span.finish()
    tracer.record(span)
    for line in (stream.getvalue().strip(), tracer.export_jsonl()):
        attributes = json.loads(line)["attributes"]
        assert attributes == {"receiver": "Section:2", "path": ["Section:2"]}
