"""JSON-safe encoding of datamodel values and dynamic-class types.

WAL records and checkpoints are JSON payloads (the container ships no
binary codec), but property values are richer than JSON: OIDs, sets of
OIDs, tuples, and dictionaries with non-string keys all occur.  The
encoding wraps every non-JSON-native value in a single-key marker object:

* ``{"$oid": [class_name, serial]}`` — an :class:`~repro.datamodel.oid.OID`;
* ``{"$set": [item, ...]}`` — a ``set``/``frozenset`` (items encoded
  recursively, order normalized where possible for determinism);
* ``{"$tuple": [item, ...]}`` — a ``tuple``;
* ``{"$map": [[key, value], ...]}`` — a ``dict`` (pairs, so keys need not
  be strings and round-trip exactly).

Scalars (str/int/float/bool/None) pass through untouched.  Dynamic-class
property types (``CREATE CLASS`` only ever builds primitives, object
references and sets thereof — see ``repro.vql.analyzer``) serialize to
the same compact spec strings the statement language uses: ``STRING``,
``INT``, ``REAL``, ``BOOL``, ``ANY``, a class name, or ``{inner}`` for a
set type.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.datamodel.oid import OID, is_collection
from repro.datamodel.types import (
    ANY,
    BOOL,
    INT,
    REAL,
    STRING,
    ObjectType,
    SetType,
    VMLType,
)
from repro.errors import ServiceError

__all__ = ["encode_value", "decode_value", "encode_values", "decode_values",
           "encode_type", "decode_type"]

#: exact types that are their own encoding (in both directions)
_SCALARS = frozenset({str, int, float, bool, type(None)})
_PRIMITIVES = {"STRING": STRING, "INT": INT, "REAL": REAL, "BOOL": BOOL,
               "ANY": ANY}


def encode_value(value: Any) -> Any:
    """Encode one property value into JSON-representable form."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, OID):
        return {"$oid": [value.class_name, value.serial]}
    if isinstance(value, (set, frozenset)):
        items = [encode_value(item) for item in value]
        try:
            items.sort(key=repr)
        except TypeError:  # pragma: no cover - defensive
            pass
        return {"$set": items}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if is_collection(value):  # what is left: a tuple that is not an OID
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {"$map": [[encode_value(key), encode_value(item)]
                         for key, item in value.items()]}
    raise ServiceError(
        f"cannot serialize value of type {type(value).__name__!r} "
        "to the write-ahead log")


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`."""
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    if isinstance(payload, dict):
        if "$oid" in payload:
            class_name, serial = payload["$oid"]
            return OID(class_name, serial)
        if "$set" in payload:
            return {decode_value(item) for item in payload["$set"]}
        if "$tuple" in payload:
            return tuple(decode_value(item) for item in payload["$tuple"])
        if "$map" in payload:
            return {decode_value(key): decode_value(item)
                    for key, item in payload["$map"]}
    raise ServiceError(f"malformed encoded value {payload!r}")


def encode_values(values: dict[str, Any]) -> dict[str, Any]:
    """Encode a property-value mapping (property names are plain strings).

    A mapping of scalars only — the common row — is its own encoding and is
    returned as is, not copied: callers serialize the result and drop it.
    """
    if _SCALARS.issuperset(map(type, values.values())):
        return values
    return {prop: encode_value(value) for prop, value in values.items()}


def decode_values(payload: dict[str, Any]) -> dict[str, Any]:
    """Invert :func:`encode_values` (a scalar-only *payload* is returned as
    is: callers hand the parsed record over and keep no other reference)."""
    if _SCALARS.issuperset(map(type, payload.values())):
        return payload
    return {prop: decode_value(value) for prop, value in payload.items()}


def encode_type(vml_type: VMLType) -> str:
    """Serialize a dynamic-class property type to its spec string.

    Covers exactly the types ``CREATE CLASS`` can declare (primitives,
    ``ANY``, object references, and sets of those); anything richer is a
    statically-defined schema type that checkpoints never serialize.
    """
    if isinstance(vml_type, SetType):
        return "{" + encode_type(vml_type.element) + "}"
    if isinstance(vml_type, ObjectType):
        return vml_type.class_name or "ANY"
    name = getattr(vml_type, "name", None)
    if name in _PRIMITIVES:
        return name
    if vml_type == ANY:
        return "ANY"
    raise ServiceError(
        f"cannot serialize property type {vml_type} to a checkpoint")


def decode_type(spec: str) -> tuple[VMLType, Optional[str]]:
    """Invert :func:`encode_type`; returns ``(type, target_class)``."""
    if spec.startswith("{") and spec.endswith("}"):
        element, target = decode_type(spec[1:-1])
        return SetType(element), target
    primitive = _PRIMITIVES.get(spec)
    if primitive is not None:
        return primitive, None
    return ObjectType(spec), spec
