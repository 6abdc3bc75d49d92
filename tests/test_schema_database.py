"""Tests for schema definitions, objects, the database and its statistics."""

from __future__ import annotations

import pytest

from repro.datamodel.database import Database
from repro.datamodel.methods import path_method
from repro.datamodel.objects import DatabaseObject
from repro.datamodel.oid import OID
from repro.datamodel.schema import (
    ClassDef,
    InverseLink,
    MethodDef,
    PropertyDef,
    Schema,
)
from repro.datamodel.types import INT, STRING, object_type, set_of
from repro.errors import (
    MethodInvocationError,
    MethodResolutionError,
    ObjectNotFoundError,
    SchemaError,
    TypeMismatchError,
)
from repro.workloads import generate_document_database


def simple_schema() -> Schema:
    """A tiny two-class schema used by the database tests."""
    schema = Schema("test")
    person = ClassDef("Person")
    person.add_property(PropertyDef("name", STRING))
    person.add_property(PropertyDef("age", INT))
    person.add_property(PropertyDef(
        "friends", set_of(object_type("Person")), target_class="Person"))
    person.add_method(MethodDef(
        name="greeting",
        return_type=STRING,
        implementation=lambda ctx, receiver: f"hello {ctx.value(receiver, 'name')}",
        cost_per_call=2.0))
    schema.add_class(person)

    employee = ClassDef("Employee", superclass="Person")
    employee.add_property(PropertyDef("salary", INT))
    schema.add_class(employee)
    schema.validate()
    return schema


class TestSchemaDefinition:
    def test_duplicate_class_rejected(self):
        schema = Schema()
        schema.define_class("A")
        with pytest.raises(SchemaError):
            schema.define_class("A")

    def test_duplicate_property_rejected(self):
        cls = ClassDef("A")
        cls.add_property(PropertyDef("x", INT))
        with pytest.raises(SchemaError):
            cls.add_property(PropertyDef("x", STRING))

    def test_duplicate_method_rejected(self):
        cls = ClassDef("A")
        cls.add_method(MethodDef(name="m"))
        with pytest.raises(SchemaError):
            cls.add_method(MethodDef(name="m"))

    def test_class_and_instance_methods_are_separate_namespaces(self):
        cls = ClassDef("A")
        cls.add_method(MethodDef(name="m"))
        cls.add_method(MethodDef(name="m", class_level=True))  # must not raise
        assert "m" in cls.instance_methods
        assert "m" in cls.class_methods

    def test_get_unknown_class_raises(self):
        with pytest.raises(SchemaError):
            Schema().get_class("Nope")

    def test_validate_rejects_unknown_superclass(self):
        schema = Schema()
        schema.define_class("B", superclass="Missing")
        with pytest.raises(SchemaError):
            schema.validate()

    def test_validate_rejects_dangling_reference_property(self):
        schema = Schema()
        cls = schema.define_class("A")
        cls.add_property(PropertyDef("other", object_type("Missing"),
                                     target_class="Missing"))
        with pytest.raises(SchemaError):
            schema.validate()

    def test_inverse_link_validation(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.add_inverse_link(InverseLink("Person", "nonexistent",
                                                "Person", "friends"))

    def test_inverse_link_lookup_and_reversal(self, doc_schema):
        link = doc_schema.find_inverse("Section", "document")
        assert link is not None
        assert link.target_property == "sections"
        reverse = doc_schema.find_inverse("Document", "sections")
        assert reverse is not None
        assert reverse.target_property == "document"

    def test_describe_mentions_all_classes(self, doc_schema):
        text = doc_schema.describe()
        for name in ("Document", "Section", "Paragraph"):
            assert name in text


class TestInheritance:
    def test_property_resolution_walks_superclasses(self):
        schema = simple_schema()
        prop = schema.resolve_property("Employee", "name")
        assert prop.vml_type == STRING

    def test_method_resolution_walks_superclasses(self):
        schema = simple_schema()
        assert schema.resolve_instance_method("Employee", "greeting").name == "greeting"

    def test_unknown_property_raises(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.resolve_property("Person", "salary")

    def test_unknown_method_raises(self):
        schema = simple_schema()
        with pytest.raises(MethodResolutionError):
            schema.resolve_instance_method("Person", "fly")

    def test_inheritance_cycle_detected(self):
        schema = Schema()
        schema.add_class(ClassDef("A", superclass="B"))
        schema.add_class(ClassDef("B", superclass="A"))
        with pytest.raises(SchemaError):
            schema.resolve_property("A", "x")


class TestDatabaseObjects:
    def test_snapshot_is_a_copy(self):
        obj = DatabaseObject(OID("Person", 1), {"name": "x"})
        snapshot = obj.snapshot()
        obj.set("name", "y")
        assert snapshot["name"] == "x"

    def test_get_missing_property_raises(self):
        obj = DatabaseObject(OID("Person", 1))
        with pytest.raises(SchemaError):
            obj.get("name")
        assert obj.get_or_none("name") is None


class TestDatabase:
    def test_create_and_read(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada", age=36, friends=set())
        assert db.value(oid, "name") == "Ada"
        assert db.get(oid).class_name == "Person"
        assert db.object_count() == 1

    def test_create_validates_property_types(self):
        db = Database(simple_schema())
        with pytest.raises(TypeMismatchError):
            db.create("Person", name="Ada", age="thirty-six")

    def test_create_rejects_unknown_properties(self):
        db = Database(simple_schema())
        with pytest.raises(SchemaError):
            db.create("Person", nickname="A")

    def test_get_unknown_oid_raises(self):
        db = Database(simple_schema())
        with pytest.raises(ObjectNotFoundError):
            db.get(OID("Person", 99))

    def test_value_of_unknown_property_raises(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada")
        with pytest.raises(SchemaError):
            db.value(oid, "salary")

    def test_set_value_validates_type(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada", age=36)
        db.set_value(oid, "age", 37)
        assert db.value(oid, "age") == 37
        with pytest.raises(TypeMismatchError):
            db.set_value(oid, "age", "old")

    def test_extension_includes_subclasses(self):
        db = Database(simple_schema())
        person = db.create("Person", name="Ada")
        employee = db.create("Employee", name="Grace", salary=1)
        deep = db.extension("Person")
        assert person in deep and employee in deep
        shallow = db.extension("Person", deep=False)
        assert employee not in shallow
        assert db.extension_size("Person") == 2
        assert db.extension_size("Employee") == 1

    def test_extension_of_unknown_class_raises(self):
        db = Database(simple_schema())
        with pytest.raises(SchemaError):
            db.extension("Ghost")

    def test_method_dispatch(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada")
        assert db.invoke(oid, "greeting") == "hello Ada"

    def test_method_dispatch_on_subclass_instance(self):
        db = Database(simple_schema())
        oid = db.create("Employee", name="Grace", salary=1)
        assert db.invoke(oid, "greeting") == "hello Grace"

    def test_method_arity_checked(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada")
        with pytest.raises(MethodInvocationError):
            db.invoke(oid, "greeting", "extra")

    def test_method_without_implementation_raises(self):
        schema = Schema()
        cls = schema.define_class("A")
        cls.add_method(MethodDef(name="m"))
        db = Database(schema)
        oid = db.create("A")
        with pytest.raises(MethodInvocationError):
            db.invoke(oid, "m")

    def test_failing_method_wrapped_in_invocation_error(self):
        schema = Schema()
        cls = schema.define_class("A")
        cls.add_method(MethodDef(
            name="boom", implementation=lambda ctx, r: 1 / 0))
        db = Database(schema)
        oid = db.create("A")
        with pytest.raises(MethodInvocationError, match="boom"):
            db.invoke(oid, "boom")

    def test_class_method_dispatch(self, doc_database):
        result = doc_database.invoke_class_method(
            "Document", "select_by_index", "Query Optimization")
        assert result
        assert all(oid.class_name == "Document" for oid in result)

    def test_path_method_through_context(self):
        schema = Schema()
        a = schema.define_class("A")
        a.add_property(PropertyDef("b", object_type("B"), target_class="B"))
        a.add_method(MethodDef(name="other_name", return_type=STRING,
                               implementation=path_method("b", "name")))
        b = schema.define_class("B")
        b.add_property(PropertyDef("name", STRING))
        db = Database(schema)
        b_oid = db.create("B", name="target")
        a_oid = db.create("A", b=b_oid)
        assert db.invoke(a_oid, "other_name") == "target"


class TestDelete:
    @pytest.fixture()
    def small_db(self):
        return generate_document_database(n_documents=2)

    def test_delete_removes_from_extension(self, small_db):
        victim = small_db.extension("Paragraph")[0]
        before = len(small_db.extension("Paragraph", deep=False))
        small_db.delete(victim)
        assert victim not in small_db.extension("Paragraph")
        assert not small_db.exists(victim)
        assert len(small_db.extension("Paragraph", deep=False)) == before - 1

    def test_delete_removes_index_and_text_entries(self, small_db):
        # Document.title has a hash index, Paragraph.content a text index.
        doc = small_db.extension("Document", deep=False)[0]
        title = small_db.value(doc, "title")
        index = small_db.indexes.get("Document", "title")
        assert doc in index.lookup(title)
        small_db.delete(doc)
        assert doc not in index.lookup(title)

        paragraph = small_db.extension("Paragraph")[0]
        engine = small_db.text_index("Paragraph", "content")
        content_word = str(small_db.value(paragraph, "content")).split()[0]
        small_db.delete(paragraph)
        assert paragraph not in engine.retrieve(content_word)

    def test_delete_removes_sorted_index_entries(self, small_db):
        small_db.create_sorted_index("Paragraph", "number")
        index = small_db.indexes.get("Paragraph", "number")
        paragraph = small_db.extension("Paragraph")[0]
        number = small_db.value(paragraph, "number")
        assert paragraph in index.lookup(number)
        small_db.delete(paragraph)
        assert paragraph not in index.lookup(number)
        assert paragraph not in index.range(None, None)

    def test_delete_removes_text_entries_for_none_valued_property(self, small_db):
        # Text indexes are keyed by OID alone: deleting an object whose
        # indexed property was set to None must still purge the engine.
        paragraph = small_db.extension("Paragraph")[0]
        engine = small_db.text_index("Paragraph", "content")
        small_db.set_value(paragraph, "content", None)
        small_db.delete(paragraph)
        assert all(paragraph not in engine.retrieve(token)
                   for token in ("none", "word0001"))
        assert paragraph not in engine._documents

    def test_delete_bumps_versions_and_statistics(self, small_db):
        data_before = small_db.versions.data
        small_db.delete(small_db.extension("Paragraph")[0])
        assert small_db.versions.data == data_before + 1
        assert small_db.statistics.objects_deleted == 1
        assert small_db.work_snapshot()["objects_deleted"] == 1


class TestStatistics:
    def test_counters_accumulate_and_reset(self):
        db = Database(simple_schema())
        oid = db.create("Person", name="Ada", age=36)
        db.value(oid, "name")
        db.invoke(oid, "greeting")
        stats = db.statistics
        assert stats.objects_created == 1
        assert stats.property_reads >= 2  # direct read + read inside greeting
        assert stats.calls_of("Person", "greeting") == 1
        assert stats.method_cost_units == pytest.approx(2.0)
        db.reset_statistics()
        assert db.statistics.total_method_calls() == 0

    def test_work_snapshot_contains_ir_counters(self, doc_database):
        snapshot = doc_database.work_snapshot()
        assert "ir_cost_units" in snapshot
        assert "total_cost_units" in snapshot

    def test_diff(self):
        db = Database(simple_schema())
        before = db.statistics.snapshot()
        db.create("Person", name="Ada")
        delta = db.statistics.diff(before)
        assert delta["objects_created"] == 1
