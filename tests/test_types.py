"""Tests for the VML type system and object identifiers."""

from __future__ import annotations

import pytest

from repro.datamodel.oid import OID, OIDAllocator
from repro.datamodel.types import (
    ANY,
    BOOL,
    INT,
    OID_TYPE,
    REAL,
    STRING,
    ArrayType,
    ObjectType,
    SetType,
    TupleType,
    array_of,
    dictionary_of,
    infer_type,
    object_type,
    set_of,
    tuple_of,
)
from repro.errors import TypeMismatchError


class TestPrimitiveTypes:
    @pytest.mark.parametrize("vml_type,value", [
        (STRING, "hello"),
        (STRING, ""),
        (INT, 0),
        (INT, -17),
        (REAL, 3.5),
        (REAL, 2),            # INT values are acceptable REALs
        (BOOL, True),
        (BOOL, False),
    ])
    def test_validate_accepts_conforming_values(self, vml_type, value):
        assert vml_type.validate(value)

    @pytest.mark.parametrize("vml_type,value", [
        (STRING, 17),
        (INT, "17"),
        (INT, 3.5),
        (INT, True),           # booleans are not INTs
        (REAL, "3.5"),
        (BOOL, 1),
        (BOOL, "true"),
    ])
    def test_validate_rejects_nonconforming_values(self, vml_type, value):
        assert not vml_type.validate(value)

    def test_check_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            INT.check("not an int", context="test value")

    def test_check_passes_on_match(self):
        INT.check(42)  # must not raise

    def test_str_representation(self):
        assert str(STRING) == "STRING"
        assert str(INT) == "INT"

    def test_primitive_equality_and_hash(self):
        assert STRING == STRING
        assert STRING != INT
        assert hash(STRING) == hash(STRING)


class TestObjectType:
    def test_accepts_oids(self):
        assert object_type("Document").validate(OID("Document", 1))

    def test_accepts_none(self):
        assert object_type("Document").validate(None)

    def test_rejects_non_oids(self):
        assert not object_type("Document").validate("Document:1")

    def test_untyped_oid(self):
        assert OID_TYPE.validate(OID("Anything", 3))

    def test_str(self):
        assert str(object_type("Document")) == "Document"
        assert str(OID_TYPE) == "OID"


class TestBulkTypes:
    def test_set_type_validates_elements(self):
        t = set_of(INT)
        assert t.validate({1, 2, 3})
        assert t.validate([1, 2])
        assert not t.validate({1, "two"})
        assert not t.validate(3)

    def test_set_type_element_type(self):
        assert set_of(INT).element_type() == INT
        assert set_of(INT).is_set()

    def test_array_type(self):
        t = array_of(STRING)
        assert t.validate(["a", "b"])
        assert not t.validate({"a"})
        assert t.element_type() == STRING

    def test_tuple_type_validates_components(self):
        t = tuple_of(name=STRING, age=INT)
        assert t.validate({"name": "x", "age": 3})
        assert not t.validate({"name": "x"})
        assert not t.validate({"name": "x", "age": "3"})
        assert not t.validate("not a mapping")

    def test_tuple_type_component_order_irrelevant(self):
        a = TupleType((("a", INT), ("b", STRING)))
        b = TupleType((("b", STRING), ("a", INT)))
        assert a == b
        assert hash(a) == hash(b)

    def test_dictionary_type(self):
        t = dictionary_of(STRING, INT)
        assert t.validate({"a": 1})
        assert not t.validate({"a": "1"})
        assert not t.validate({1: 1})

    def test_element_type_on_non_bulk_raises(self):
        with pytest.raises(TypeMismatchError):
            INT.element_type()

    def test_str_representations(self):
        assert str(set_of(INT)) == "{INT}"
        assert str(array_of(INT)) == "ARRAY[INT]"
        assert "TUPLE[" in str(tuple_of(a=INT))
        assert str(dictionary_of(STRING, INT)) == "DICTIONARY[STRING, INT]"


class TestAnyTypeAndCompatibility:
    def test_any_accepts_everything(self):
        assert ANY.validate(object())
        assert ANY.validate(None)

    def test_compatibility_with_any(self):
        assert ANY.compatible_with(INT)
        assert INT.compatible_with(ANY)

    def test_compatibility_same_type(self):
        assert INT.compatible_with(INT)
        assert not INT.compatible_with(STRING)


class TestInferType:
    @pytest.mark.parametrize("value,expected", [
        (True, BOOL),
        (7, INT),
        (7.5, REAL),
        ("x", STRING),
        (OID("Document", 1), ObjectType("Document")),
    ])
    def test_scalars(self, value, expected):
        assert infer_type(value) == expected

    def test_homogeneous_set(self):
        assert infer_type({1, 2}) == SetType(INT)

    def test_heterogeneous_set_falls_back_to_any(self):
        assert infer_type({1, "x"}) == SetType(ANY)

    def test_list_infers_array(self):
        assert infer_type([1, 2]) == ArrayType(INT)

    def test_mapping_infers_tuple(self):
        inferred = infer_type({"a": 1})
        assert isinstance(inferred, TupleType)
        assert inferred.component_map["a"] == INT

    def test_unknown_object_is_any(self):
        assert infer_type(object()) == ANY


class TestOID:
    def test_equality_and_hash(self):
        assert OID("Document", 1) == OID("Document", 1)
        assert OID("Document", 1) != OID("Document", 2)
        assert OID("Document", 1) != OID("Section", 1)
        assert len({OID("Document", 1), OID("Document", 1)}) == 1

    def test_ordering_is_total(self):
        oids = [OID("B", 2), OID("A", 5), OID("B", 1)]
        assert sorted(oids) == [OID("A", 5), OID("B", 1), OID("B", 2)]

    def test_str_and_repr(self):
        assert str(OID("Document", 3)) == "Document:3"
        assert "Document" in repr(OID("Document", 3))


class TestOIDAllocator:
    def test_serials_start_at_one_and_increase(self):
        allocator = OIDAllocator()
        first = allocator.allocate("Document")
        second = allocator.allocate("Document")
        assert (first.serial, second.serial) == (1, 2)

    def test_serials_are_per_class(self):
        allocator = OIDAllocator()
        allocator.allocate("Document")
        assert allocator.allocate("Section").serial == 1

    def test_allocate_many(self):
        allocator = OIDAllocator()
        oids = list(allocator.allocate_many("Paragraph", 5))
        assert [oid.serial for oid in oids] == [1, 2, 3, 4, 5]
        assert allocator.last_serial("Paragraph") == 5

    def test_reset(self):
        allocator = OIDAllocator()
        allocator.allocate("Document")
        allocator.reset()
        assert allocator.last_serial("Document") == 0
        assert allocator.allocate("Document").serial == 1
