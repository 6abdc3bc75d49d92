"""VML-style type system.

The VODAK Modelling Language (VML) used in the paper provides primitive
built-in data types (STRING, INT, REAL, BOOL and typed object identifiers)
and the type constructors TUPLE, SET, ARRAY and DICTIONARY.  This module
implements those types as lightweight immutable descriptors together with
value validation and a small amount of type algebra (compatibility checks)
used by the VQL analyzer and the algebra translator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.datamodel.oid import OID, is_collection
from repro.errors import TypeMismatchError

__all__ = [
    "VMLType",
    "PrimitiveType",
    "ObjectType",
    "SetType",
    "ArrayType",
    "TupleType",
    "DictionaryType",
    "AnyType",
    "STRING",
    "INT",
    "REAL",
    "BOOL",
    "OID_TYPE",
    "ANY",
    "set_of",
    "array_of",
    "tuple_of",
    "dictionary_of",
    "object_type",
    "infer_type",
]


class VMLType:
    """Abstract base class of all VML type descriptors.

    Type descriptors are immutable and hashable so they can be used as
    dictionary keys (e.g. in operator signature tables).
    """

    def validate(self, value: Any) -> bool:
        """Return ``True`` when *value* conforms to this type."""
        raise NotImplementedError

    def check(self, value: Any, context: str = "value") -> None:
        """Raise :class:`TypeMismatchError` when *value* does not conform."""
        if not self.validate(value):
            raise TypeMismatchError(
                f"{context} {value!r} does not conform to type {self}"
            )

    def is_set(self) -> bool:
        return isinstance(self, SetType)

    def is_object(self) -> bool:
        return isinstance(self, ObjectType)

    def element_type(self) -> "VMLType":
        """For bulk types, the type of the contained elements."""
        raise TypeMismatchError(f"{self} is not a bulk type")

    def compatible_with(self, other: "VMLType") -> bool:
        """Structural compatibility used by the analyzer.

        ``AnyType`` is compatible with everything; object types are
        compatible when either side does not constrain the class or the
        class names match.
        """
        if isinstance(other, AnyType) or isinstance(self, AnyType):
            return True
        return self == other


@dataclass(frozen=True)
class AnyType(VMLType):
    """The unconstrained type, used for untyped intermediate results."""

    def validate(self, value: Any) -> bool:
        return True

    def __str__(self) -> str:
        return "ANY"


@dataclass(frozen=True)
class PrimitiveType(VMLType):
    """One of the primitive built-in data types of VML."""

    name: str

    _PYTHON_TYPES = {
        "STRING": (str,),
        "INT": (int,),
        "REAL": (int, float),
        "BOOL": (bool,),
    }

    def validate(self, value: Any) -> bool:
        expected = self._PYTHON_TYPES.get(self.name)
        if expected is None:
            return True
        if self.name == "INT" and isinstance(value, bool):
            return False
        return isinstance(value, expected)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ObjectType(VMLType):
    """A typed object identifier.

    ``class_name`` of ``None`` denotes an OID of an arbitrary class, which is
    how the paper's ``Set_object`` example stores heterogeneous sets.
    """

    class_name: str | None = None

    def validate(self, value: Any) -> bool:
        # subclass conformance is checked by the schema layer
        return value is None or isinstance(value, OID)

    def __str__(self) -> str:
        return self.class_name if self.class_name else "OID"


@dataclass(frozen=True)
class SetType(VMLType):
    """``{T}`` — an unordered collection without duplicates."""

    element: VMLType

    def validate(self, value: Any) -> bool:
        if not is_collection(value):
            return False
        return all(self.element.validate(v) for v in value)

    def element_type(self) -> VMLType:
        return self.element

    def __str__(self) -> str:
        return "{" + str(self.element) + "}"


@dataclass(frozen=True)
class ArrayType(VMLType):
    """``ARRAY[T]`` — an ordered collection."""

    element: VMLType

    def validate(self, value: Any) -> bool:
        if not is_collection(value) or isinstance(value, (set, frozenset)):
            return False
        return all(self.element.validate(v) for v in value)

    def element_type(self) -> VMLType:
        return self.element

    def __str__(self) -> str:
        return f"ARRAY[{self.element}]"


@dataclass(frozen=True)
class TupleType(VMLType):
    """``TUPLE[a1: T1, ..., an: Tn]`` — a record with named components.

    Component order is not significant (the paper assumes unordered tuple
    components), therefore equality and hashing are defined on the sorted
    component mapping.
    """

    components: tuple[tuple[str, VMLType], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.components, key=lambda item: item[0]))
        object.__setattr__(self, "components", ordered)

    @property
    def component_map(self) -> dict[str, VMLType]:
        return dict(self.components)

    def validate(self, value: Any) -> bool:
        if not isinstance(value, Mapping):
            return False
        comp = self.component_map
        if set(value.keys()) != set(comp.keys()):
            return False
        return all(comp[key].validate(val) for key, val in value.items())

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {typ}" for name, typ in self.components)
        return f"TUPLE[{inner}]"


@dataclass(frozen=True)
class DictionaryType(VMLType):
    """``DICTIONARY[K, V]`` — a finite map."""

    key: VMLType
    value: VMLType

    def validate(self, value: Any) -> bool:
        if not isinstance(value, Mapping):
            return False
        return all(
            self.key.validate(k) and self.value.validate(v)
            for k, v in value.items()
        )

    def __str__(self) -> str:
        return f"DICTIONARY[{self.key}, {self.value}]"


# Canonical singletons for the primitive types.
STRING = PrimitiveType("STRING")
INT = PrimitiveType("INT")
REAL = PrimitiveType("REAL")
BOOL = PrimitiveType("BOOL")
OID_TYPE = ObjectType(None)
ANY = AnyType()


def set_of(element: VMLType) -> SetType:
    """Convenience constructor for ``{element}``."""
    return SetType(element)


def array_of(element: VMLType) -> ArrayType:
    """Convenience constructor for ``ARRAY[element]``."""
    return ArrayType(element)


def tuple_of(**components: VMLType) -> TupleType:
    """Convenience constructor for ``TUPLE[name: type, ...]``."""
    return TupleType(tuple(components.items()))


def dictionary_of(key: VMLType, value: VMLType) -> DictionaryType:
    """Convenience constructor for ``DICTIONARY[key, value]``."""
    return DictionaryType(key, value)


def object_type(class_name: str) -> ObjectType:
    """Convenience constructor for a typed object identifier."""
    return ObjectType(class_name)


def infer_type(value: Any) -> VMLType:
    """Infer the most specific VML type of a Python value.

    Used by the expression evaluator for literals and intermediate results.
    Unknown Python values map to :data:`ANY`.
    """
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return REAL
    if isinstance(value, str):
        return STRING
    if isinstance(value, OID):
        return ObjectType(value.class_name)
    if isinstance(value, (set, frozenset)):
        inner = {infer_type(v) for v in value}
        if len(inner) == 1:
            return SetType(inner.pop())
        return SetType(ANY)
    if is_collection(value):  # a list or a tuple: sets were handled above
        inner = {infer_type(v) for v in value}
        if len(inner) == 1:
            return ArrayType(inner.pop())
        return ArrayType(ANY)
    if isinstance(value, Mapping):
        return TupleType(tuple((k, infer_type(v)) for k, v in value.items()))
    return ANY
