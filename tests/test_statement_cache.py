"""The statement cache: one entry per query shape, reached by text or token key.

Texts and token keys are aliases of a shape's entry; the entry holds the
shape's plan, its admission state, its build lock and a pending feedback
replan, so whatever leaves the cache leaves with the shape.
"""

from __future__ import annotations

import random
from collections import Counter

from repro import Session, connect
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT, STRING
from repro.optimizer.knowledge import ConditionImplication
from repro.physical.evaluator import make_hashable
from repro.service import QueryService
from repro.service.cache import ALIASES_PER_SHAPE, Shape
from repro.workloads import document_knowledge, generate_document_database

PARAGRAPHS = "ACCESS p FROM p IN Paragraph WHERE "


def values(result):
    return Counter(make_hashable(value) for value in result.values)


def shape_of(service, fingerprint):
    (shape,) = [entry for entry in service.cache._entries.values()
                if isinstance(entry, Shape) and entry.fingerprint == fingerprint]
    return shape


def test_ad_hoc_texts_stay_within_a_bound_of_the_capacity():
    """More than four times the capacity in token keys of one shape (the
    literal in more and more parentheses), then in shapes (one to three AND
    conjuncts of four comparisons): entries and aliases stay bounded by the
    capacity, and every answer equals the session's."""
    database = generate_document_database(n_documents=4)
    session = Session(database)
    capacity = 2
    service = QueryService(database, cache_capacity=capacity)
    keys = 4 * capacity + 3
    texts = [PARAGRAPHS + "p.number == " + "(" * k + str(k % 5 + 1) + ")" * k
             for k in range(keys)]
    texts += [PARAGRAPHS + " AND ".join([f"p.number {op} {k}"] * k)
              for op in ("==", "<=", ">=", "!=") for k in (1, 2, 3)]
    for text in texts + texts[::3]:
        assert values(service.execute(text)) == values(session.execute(text))
        cache = service.cache
        assert len(cache._entries) <= capacity
        assert len(cache._aliases) <= ALIASES_PER_SHAPE * capacity
        assert cache.texts <= len(cache._aliases)
    assert service.metrics.snapshot()["statement_token_hits"] == 0
    assert service.cache.statistics.evictions > 0


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


SKEWED = "ACCESS r FROM r IN Reading WHERE r.category == '{}' AND r.score >= 5000"


def pending_replan(service):
    """Run the skewed shape until feedback evicts its plan: the common value
    ran the plan priced for rare ones.  Returns the shape's entry."""
    service.execute("ANALYZE")
    service.execute(SKEWED.format("rare1"))
    service.execute(SKEWED.format("rare2"))
    common = service.execute(SKEWED.format("common"))
    assert service.metrics.snapshot()["feedback_evictions"] == 1
    shape = shape_of(service, common.metrics.fingerprint)
    assert shape.replan is not None and shape.plan is None
    return shape


def assert_replanned_fresh(service, shape):
    """The next statement of the shape plans with its own values in a new
    entry; the old one holds nothing."""
    fresh = service.execute(SKEWED.format("rare3"))
    assert not fresh.metrics.cache_hit
    assert fresh.plan.hint_values == {"$1:str": "rare3", "$2:int": 5000}
    assert service.metrics.snapshot()["plans_reoptimized"] == 0
    assert shape_of(service, fresh.metrics.fingerprint) is not shape
    assert not shape.live
    assert (shape.plan, shape.replan, shape.aliases) == (None, None, [])


def test_a_pending_replan_leaves_with_its_evicted_shape():
    service = QueryService(skewed_database(), cache_capacity=2)
    shape = pending_replan(service)
    service.execute("ACCESS r FROM r IN Reading WHERE r.score == ?", [1])
    service.execute("ACCESS r FROM r IN Reading WHERE r.score < ?", [1])
    assert_replanned_fresh(service, shape)


def test_a_pending_replan_leaves_with_its_shape_on_schema_ddl():
    service = QueryService(skewed_database())
    shape = pending_replan(service)
    service.execute("CREATE CLASS Note (body: STRING)")
    assert_replanned_fresh(service, shape)


NUMBER = PARAGRAPHS + "p.number == {}"
TITLE = "ACCESS d FROM d IN Document WHERE d.title != '{}'"
WORDS = PARAGRAPHS + "p->wordCount() > {}"
RANGE = PARAGRAPHS + "p.number >= :lo AND p.number < :hi"
UPDATE = "UPDATE Paragraph p SET content = :c WHERE p.number == :n"


def test_cache_counters_of_a_fixed_statement_sequence():
    """Literal variants of three shapes and a bind-parameter text repeated
    verbatim, around an ``executemany`` UPDATE, index DDL, ANALYZE and a
    knowledge registration that adds a pattern constant: the counters are
    pinned to what one LRU of texts and token keys beside a plan cache
    keyed by shape and values counted for the same sequence."""
    database = generate_document_database(n_documents=4)
    connection = connect(database, knowledge=document_knowledge(database.schema))
    rng = random.Random(37)

    def variants(count):
        for _ in range(count):
            shape = rng.randrange(4)
            if shape == 0:
                connection.execute(NUMBER.format(rng.randrange(1, 7))).fetchall()
            elif shape == 1:
                connection.execute(TITLE.format(rng.choice("abcde"))).fetchall()
            elif shape == 2:
                connection.execute(WORDS.format(
                    rng.choice([25, 29, 30, 40, 41]))).fetchall()
            else:
                low = rng.randrange(1, 5)
                connection.execute(RANGE, {"lo": low, "hi": low + 2}).fetchall()

    variants(30)
    connection.executemany(UPDATE, [{"c": f"u{n}", "n": n} for n in (1, 2, 3)])
    variants(15)
    connection.execute("CREATE SORTED INDEX ON Paragraph(number)")
    variants(15)
    connection.execute("ANALYZE")
    variants(15)
    connection.service.register_knowledge(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent="p->wordCount() > 30",
        consequent="p IS-IN p->document().largeParagraphs",
        name="I1-at-30"))
    variants(25)
    connection.executemany(UPDATE, [{"c": f"v{n}", "n": n} for n in (4, 5)])
    variants(10)
    metrics = connection.service.metrics.snapshot()
    cache = connection.service.cache.snapshot()
    assert (metrics["statement_text_hits"], metrics["statement_token_hits"],
            cache["hits"], cache["misses"], cache["inserts"]) == \
        (44, 59, 82, 33, 33)
