"""Checkpoint serialization: a full consistent snapshot of the database.

A checkpoint captures everything recovery cannot rebuild from the static
schema module alone, as of one pinned commit timestamp:

* dynamic classes (``CREATE CLASS`` DDL — properties only; runtime
  classes never carry method implementations, so nothing is lost);
* every live object, per class, as ``[serial, values]`` in serial order
  (serials are allocated in creation order, so restoring in this order
  reproduces extension order exactly);
* the OID allocator counters (so serials of deleted objects are never
  reused after recovery);
* index definitions — hash, sorted and text — as ``(class, property,
  kind)`` triples (contents are rebuilt by the normal backfill on
  creation);
* the names of ANALYZE'd classes (distribution statistics are
  deterministic over identical data, so recovery re-runs ANALYZE instead
  of serializing histograms).

The writer holds the service's write gate, so the live structures *are*
the state at ``clock.published`` — MVCC readers keep running against
their own snapshots throughout.

On disk a checkpoint is one compact JSON object (format 1)::

    {"format": 1, "commit_ts": ..., "name": ..., "classes": [...],
     "objects": {class: [[serial, values], ...]}, "allocators": {...},
     "indexes": [...], "analyzed": [...]}

It is produced as a stream of text pieces (:func:`checkpoint_chunks`), a
bounded number of rows at a time, so writing it never holds the whole
state — as a dict, a string or its bytes — in memory next to the
database.  The file parses with a plain ``json.loads``.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Any, Iterator

from repro.datamodel.objects import DatabaseObject
from repro.datamodel.oid import OID
from repro.datamodel.schema import PropertyDef, Schema
from repro.datamodel.types import BOOL, INT, REAL, STRING
from repro.errors import ServiceError
from repro.storage.encoding import (
    decode_type,
    decode_values,
    encode_type,
    encode_values,
)

__all__ = ["CHECKPOINT_FORMAT", "checkpoint_chunks", "restore_checkpoint"]

CHECKPOINT_FORMAT = 1
#: objects serialized per piece of the stream
ROWS_PER_CHUNK = 1024

_dumps = functools.partial(json.dumps, separators=(",", ":"),
                           ensure_ascii=False)
_SCALAR_TYPES = frozenset({STRING, INT, REAL, BOOL})


def _holds_scalars_only(schema: Schema, class_name: str) -> bool:
    """True when every property of *class_name*, inherited ones included,
    is declared with a primitive type.  Every write validated its values
    against those types, so a row of such a class is its own encoding."""
    current: Any = class_name
    while current is not None:
        class_def = schema.get_class(current)
        if any(prop.vml_type not in _SCALAR_TYPES
               for prop in class_def.properties.values()):
            return False
        current = class_def.superclass
    return True


def checkpoint_chunks(database, base_classes: set[str]) -> Iterator[str]:
    """Snapshot *database* at ``clock.published`` (write gate held) as the
    pieces of one JSON text — see the module docstring for the layout."""
    schema = database.schema
    classes: list[list[Any]] = []
    for name, class_def in schema.classes.items():
        if name in base_classes:
            continue
        props = [[prop.name, encode_type(prop.vml_type), prop.target_class]
                 for prop in class_def.properties.values()]
        classes.append([name, class_def.superclass, props])
    head = {
        "format": CHECKPOINT_FORMAT,
        "commit_ts": database.clock.published,
        "name": database.name,
        "classes": classes,
    }
    yield _dumps(head)[:-1] + ',"objects":{'
    objects = database._objects
    class_separator = ""
    for class_name in schema.classes:
        extension = database._extensions.get(class_name)
        if not extension:
            continue
        yield f"{class_separator}{_dumps(class_name)}:["
        class_separator = ","
        row_separator = ""
        as_is = _holds_scalars_only(schema, class_name)
        oids = iter(extension)
        while chunk := list(itertools.islice(oids, ROWS_PER_CHUNK)):
            if as_is:
                rows = [[oid.serial, objects[oid].values] for oid in chunk]
            else:
                rows = [[oid.serial, encode_values(objects[oid].values)]
                        for oid in chunk]
            yield row_separator + _dumps(rows)[1:-1]
            row_separator = ","
        yield "]"
    indexes = [[index.class_name, index.property_name, index.kind]
               for index in database.indexes.all()]
    indexes.extend([class_name, prop, "text"]
                   for (class_name, prop), _ in database.text_indexes())
    tail = {
        "allocators": database.oid_counters(),
        "indexes": indexes,
        "analyzed": list(database.stats_catalog.analyzed_classes()),
    }
    yield "}," + _dumps(tail)[1:]


def restore_checkpoint(database, state: dict[str, Any]) -> None:
    """Load *state* into a freshly constructed *database*.

    The database must carry the same static schema the checkpoint was
    taken under and hold no objects yet; the caller (the storage adapter)
    runs this with its ``recovering`` flag set so nothing re-logs.
    """
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ServiceError(
            f"unsupported checkpoint format {state.get('format')!r}")
    if database.object_count():
        raise ServiceError(
            "cannot restore a checkpoint into a non-empty database")
    for name, superclass, props in state["classes"]:
        if database.schema.has_class(name):
            continue  # the static schema grew to include it
        property_defs = []
        for prop_name, spec, target in props:
            vml_type, _ = decode_type(spec)
            property_defs.append(
                PropertyDef(prop_name, vml_type, target_class=target))
        database.create_class(name, superclass, property_defs)
    restored = 0
    for class_name, rows in state["objects"].items():
        if not database.schema.has_class(class_name):
            raise ServiceError(
                f"checkpoint holds objects of unknown class {class_name!r} "
                "— was the database opened with the right schema?")
        extension = database._extensions[class_name]
        for serial, values in rows:
            oid = OID(class_name, serial)
            # Restored objects predate every post-recovery snapshot, so
            # timestamp 0 makes them visible to all of them.
            obj = DatabaseObject(oid=oid, values=decode_values(values),
                                 begin_ts=0, created_ts=0)
            database._objects[oid] = obj
            extension.append(oid)
            restored += 1
    database.restore_oid_counters(state["allocators"])
    database.versions.data += restored
    database.clock.restore(state["commit_ts"])
    for class_name, prop, kind in state["indexes"]:
        if kind == "hash":
            database.create_hash_index(class_name, prop)
        elif kind == "sorted":
            database.create_sorted_index(class_name, prop)
        elif kind == "text":
            database.create_text_index(class_name, prop)
        else:  # pragma: no cover - format guard
            raise ServiceError(f"unknown index kind {kind!r} in checkpoint")
    for class_name in state["analyzed"]:
        if database.schema.has_class(class_name):
            database.analyze(class_name)
