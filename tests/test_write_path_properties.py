"""Seeded model checks on the write path's containers.

Index cardinality, extension order, and the equivalence of
``Database.delete_many`` with a loop of ``Database.delete`` are held
against plain-Python models over random operation sequences that include
every way an entry can come back: duplicate inserts, failed removes and
aborted commit scopes (``_undo_create``, ``_undo_update``, ``_undo_deletes``
with a partial index-removal log).
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.datamodel.database import Database
from repro.datamodel.indexes import HashIndex, SortedIndex
from repro.datamodel.oid import OID
from repro.datamodel.extension import CreationOrder
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT, STRING
from repro.errors import IndexError_, ObjectNotFoundError

SEEDS = (1, 7, 19, 43, 101)
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon")


class Abort(Exception):
    """Raised inside a commit scope to make it undo itself."""


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Blocks of four, so a few dozen objects split, fold and drop them."""
    monkeypatch.setattr(SortedIndex, "BLOCK", 4)
    monkeypatch.setattr(CreationOrder, "BLOCK", 4)


def build_database() -> Database:
    schema = Schema("write-path")
    base = ClassDef("Base")
    for name, vml_type in (("key", INT), ("amount", INT), ("note", STRING)):
        base.add_property(PropertyDef(name, vml_type))
    schema.add_class(base)
    schema.add_class(ClassDef("Sub", superclass="Base"))
    database = Database(schema)
    database.create_hash_index("Base", "key")
    database.create_sorted_index("Base", "amount")
    database.create_text_index("Base", "note")
    database.create_hash_index("Sub", "amount")
    return database


def random_values(rng: random.Random) -> dict:
    return {"key": rng.choice([None, *range(6)]),
            "amount": rng.choice([None, *range(10)]),
            "note": " ".join(rng.sample(WORDS, 2))}


class Model:
    """What the database must hold: per class the OIDs in creation order,
    per OID its values."""

    def __init__(self):
        self.order: dict[str, list[OID]] = {"Base": [], "Sub": []}
        self.values: dict[OID, dict] = {}

    def copy(self) -> "Model":
        twin = Model()
        twin.order = {cls: list(oids) for cls, oids in self.order.items()}
        twin.values = {oid: dict(values)
                       for oid, values in self.values.items()}
        return twin

    def create(self, oid: OID, values: dict) -> None:
        self.order[oid.class_name].append(oid)
        self.values[oid] = dict(values)

    def delete(self, oid: OID) -> None:
        self.order[oid.class_name].remove(oid)
        del self.values[oid]

    def live(self) -> list[OID]:
        return [oid for oids in self.order.values() for oid in oids]


def flattened(index: SortedIndex) -> list[tuple]:
    return [entry for keys, oids in index._blocks
            for entry in zip(keys, oids)]


def check(database: Database, model: Model) -> None:
    for class_name, oids in model.order.items():
        assert database.extension(class_name, deep=False) == oids
        assert database.extension_size(class_name) == (
            len(oids) + (len(model.order["Sub"]) if class_name == "Base"
                         else 0))
    assert set(database._objects) == set(model.values)
    for oid, values in model.values.items():
        assert database.get(oid).values == values

    def expected(prop: str, classes: tuple[str, ...]) -> list[tuple]:
        return sorted((values[prop], oid)
                      for oid, values in model.values.items()
                      if oid.class_name in classes
                      and values.get(prop) is not None)

    for owner, prop, classes in (("Base", "key", ("Base", "Sub")),
                                 ("Sub", "amount", ("Sub",))):
        index = database.indexes.get(owner, prop)
        entries = sorted((key, oid) for key, bucket in index._entries.items()
                         for oid in bucket)
        assert entries == expected(prop, classes)
        assert len(index) == len(entries)
        assert all(index._entries.values())  # no empty bucket left behind
    ordered = database.indexes.get("Base", "amount")
    assert flattened(ordered) == expected("amount", ("Base", "Sub"))
    assert len(ordered) == len(flattened(ordered))
    assert all(keys and len(keys) == len(oids)
               for keys, oids in ordered._blocks)
    engine = database.text_index("Base", "note")
    assert {oid: document.content
            for oid, document in engine._documents.items()} == {
        oid: values["note"] for oid, values in model.values.items()}


def mutate(database: Database, model: Model, rng: random.Random) -> None:
    """One random committed-or-not mutation, mirrored into *model*."""
    live = model.live()
    action = rng.choice(["create", "create", "create_many", "create_many",
                         "update", "update", "delete", "delete_many"])
    if action == "create" or not live:
        values = random_values(rng)
        model.create(database.create(rng.choice(["Base", "Sub"]), **values),
                     values)
    elif action == "create_many":
        rows = [random_values(rng) for _ in range(rng.randrange(1, 6))]
        class_name = rng.choice(["Base", "Sub"])
        for oid, values in zip(database.create_many(class_name, rows), rows):
            model.create(oid, values)
    elif action == "update":
        oid = rng.choice(live)
        values = random_values(rng)
        changed = {prop: values[prop]
                   for prop in rng.sample(sorted(values), rng.randrange(1, 4))}
        database.update(oid, **changed)
        model.values[oid].update(changed)
    elif action == "delete":
        oid = rng.choice(live)
        database.delete(oid)
        model.delete(oid)
    else:
        doomed = rng.sample(live, rng.randrange(1, min(len(live), 6) + 1))
        database.delete_many(doomed)
        for oid in doomed:
            model.delete(oid)


@pytest.mark.parametrize("seed", SEEDS)
def test_containers_follow_the_model_through_commits_and_aborts(seed):
    rng = random.Random(seed)
    database, model = build_database(), Model()
    largest = 0
    for step in range(250):
        kind = rng.random()
        if kind < 0.70:
            mutate(database, model, rng)
        elif kind < 0.90:
            # an aborted scope of several mutations leaves no trace
            scratch = model.copy()
            data_version = database.versions.data
            with pytest.raises(Abort):
                with database.commit_scope():
                    for _ in range(rng.randrange(1, 6)):
                        mutate(database, scratch, rng)
                    raise Abort
            assert database.versions.data == data_version
        elif model.live():
            # a delete that fails part-way (one index entry is missing)
            # puts back exactly the entries it had already removed
            victim = rng.choice(model.live())
            key = model.values[victim]["key"]
            if key is None:
                continue
            bystanders = rng.sample(model.live(),
                                    min(len(model.live()), 3))
            index = database.indexes.get("Base", "key")
            index.remove(key, victim)  # corrupt ...
            with pytest.raises(IndexError_):
                database.delete_many([*bystanders, victim]
                                     if victim not in bystanders
                                     else bystanders)
            index.insert(key, victim)  # ... and heal
        check(database, model)
        largest = max(largest, len(model.values))
    assert largest > 4 * CreationOrder.BLOCK  # several blocks were in play


@pytest.mark.parametrize("seed", SEEDS)
def test_hash_index_length_is_the_bucket_sum(seed):
    rng = random.Random(seed)
    index = HashIndex("C", "k")
    model: set[tuple] = set()
    for _ in range(2000):
        entry = (rng.choice([1, 2, 3, "a", (1, 2), [3, 4]]),
                 OID("C", rng.randrange(12)))
        frozen = (HashIndex._normalize(entry[0]), entry[1])
        action = rng.random()
        if action < 0.45:
            index.insert(*entry)  # a duplicate insert adds nothing
            model.add(frozen)
        elif action < 0.80:
            if frozen in model:
                index.remove(*entry)
                model.discard(frozen)
            else:
                with pytest.raises(IndexError_):
                    index.remove(*entry)
        elif frozen in model:
            new_key = rng.choice([7, 8, "b"])
            index.update(entry[0], new_key, entry[1])
            model.discard(frozen)
            model.add((new_key, entry[1]))
        assert len(index) == len(model) == sum(
            len(bucket) for bucket in index._entries.values())
        assert index.distinct_keys() == len({key for key, _ in model})


def state_of(database: Database) -> dict:
    """Everything a delete touches, in comparable form (a deep copy:
    snapshots taken before and after a mutation must not alias)."""
    return copy.deepcopy({
        # read directly: Database.extension() counts itself as a scan
        "extensions": {cls: list(database._extensions[cls])
                       for cls in ("Base", "Sub")},
        "objects": {oid: dict(obj.values)
                    for oid, obj in database._objects.items()},
        "hash": {(index.class_name, index.property_name):
                 ({key: set(bucket) for key, bucket in index._entries.items()},
                  len(index))
                 for index in database.indexes.all() if index.kind == "hash"},
        "sorted": flattened(database.indexes.get("Base", "amount")),
        "text": (dict(database.text_index("Base", "note")._postings),
                 set(database.text_index("Base", "note")._documents)),
        "history": database._history,
        "tombstones": (database._ends, database._removed),
        "mutation_log": database._mlog,
        "versions": database.versions.snapshot(),
        "clock": database.clock.published,
        "work": database.statistics.snapshot(),
        "churn": {cls: database.stats_catalog.mutations_since_analyze(cls)
                  for cls in ("Base", "Sub")},
        "allocators": database.oid_counters(),
    })


@pytest.mark.parametrize("seed", SEEDS)
def test_delete_many_equals_a_loop_of_delete(seed):
    databases = []
    for _ in range(2):
        rng = random.Random(seed)
        database, model = build_database(), Model()
        for _ in range(60):
            mutate(database, model, rng)
        database.analyze()
        databases.append(database)
    looped, bulk = databases
    assert state_of(looped) == state_of(bulk)
    live = model.live()
    doomed = rng.sample(live, max(1, len(live) // 2))  # both classes, any order

    with looped.commit_scope():  # one statement = one commit scope
        for oid in doomed:
            looped.delete(oid)
    bulk.delete_many(doomed)
    assert state_of(looped) == state_of(bulk)
    assert not any(bulk.exists(oid) for oid in doomed)

    # an unknown OID anywhere in the batch: nothing of it applies
    before = state_of(bulk)
    survivors = [oid for oid in live if oid not in doomed]
    with pytest.raises(ObjectNotFoundError):
        bulk.delete_many([*survivors[:2], doomed[0]])
    after = state_of(bulk)
    # aborted scopes leave phantoms in the mutation log and the version
    # chains by design (readers filter them); everything else is as it was
    for key in ("mutation_log", "history"):
        before.pop(key), after.pop(key)
    assert after == before
