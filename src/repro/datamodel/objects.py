"""Stored objects.

A :class:`DatabaseObject` is the in-memory representation of one instance:
its OID plus a mapping from property names to values.  Values follow the VML
value model — primitives, OIDs, sets/lists of either, and nested dicts for
TUPLE values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.datamodel.oid import OID
from repro.errors import SchemaError


@dataclass
class DatabaseObject:
    """One stored instance.

    Property values are held in a plain dictionary; the database layer is
    responsible for validating them against the schema when the object is
    created or updated.
    """

    oid: OID
    values: dict[str, Any] = field(default_factory=dict)
    #: commit timestamp of the version currently held in ``values``.
    #: Writers flip this *before* mutating values (after appending the
    #: pre-image to the database's version chain), so a reader that sees
    #: the same ``begin_ts`` before and after reading a value knows the
    #: value belongs to that version (seqlock discipline).
    begin_ts: int = 0
    #: commit timestamp of the creating transaction; readers pinned at an
    #: earlier snapshot do not see the object at all.
    created_ts: int = 0

    @property
    def class_name(self) -> str:
        return self.oid.class_name

    def get(self, prop: str) -> Any:
        """Return the value of *prop*, raising when the property is absent."""
        try:
            return self.values[prop]
        except KeyError:
            raise SchemaError(
                f"object {self.oid} has no value for property {prop!r}"
            ) from None

    def get_or_none(self, prop: str) -> Any:
        return self.values.get(prop)

    def set(self, prop: str, value: Any) -> None:
        self.values[prop] = value

    def has(self, prop: str) -> bool:
        return prop in self.values

    def snapshot(self) -> Mapping[str, Any]:
        """An immutable copy of the property values (for safe external use)."""
        return dict(self.values)

    def __str__(self) -> str:
        return f"<{self.oid}>"

    def __repr__(self) -> str:
        return f"DatabaseObject({self.oid!r}, {self.values!r})"
