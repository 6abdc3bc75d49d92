"""The prepared-query service layer: plan cache, invalidation, concurrency.

The differential discipline: after every event that may invalidate cached
plans (index DDL, knowledge registration, bulk data changes) the service's
answer is compared against a *fresh* session built from scratch on the
current database state — a stale plan that survived invalidation would
produce a wrong result or an execution error here.
"""

from __future__ import annotations

import pytest

from repro import connect
from repro.errors import BindingError, IndexError_
from repro.optimizer.knowledge import ConditionImplication
from repro.physical.plans import IndexEqScan, walk_physical
from repro.service import QueryService, StatementCache
from repro.session import Session
from repro.workloads import document_knowledge, generate_document_database
from repro.workloads.documents import QUERY_TERM, TARGET_TITLE

PARAM_QUERY = ("ACCESS p FROM p IN Paragraph "
               "WHERE p->contains_string(?) AND (p->document()).title == ?")
NUMBER_QUERY = "ACCESS p FROM p IN Paragraph WHERE p.number == ?"


def fresh_database(n_documents: int = 6):
    return generate_document_database(n_documents=n_documents)


def fresh_service(database, **kwargs) -> QueryService:
    return QueryService(database,
                        knowledge=document_knowledge(database.schema),
                        **kwargs)


def fresh_session(database) -> Session:
    return Session(database, knowledge=document_knowledge(database.schema))


def assert_matches_fresh_session(service, query, parameters, literal_query):
    """Differential check: service result == from-scratch session result."""
    result = service.execute(query, parameters)
    reference = fresh_session(service.database).execute(literal_query)
    assert result.value_set() == reference.value_set()
    return result


# ----------------------------------------------------------------------
# basic prepare / execute
# ----------------------------------------------------------------------
def test_second_execution_hits_the_plan_cache():
    service = fresh_service(fresh_database())
    first = service.execute(PARAM_QUERY, [QUERY_TERM, TARGET_TITLE])
    second = service.execute(PARAM_QUERY, [QUERY_TERM, TARGET_TITLE])
    assert not first.metrics.cache_hit
    assert second.metrics.cache_hit
    assert second.metrics.prepare_seconds == 0.0
    assert first.rows == second.rows


def test_one_cached_plan_serves_every_binding():
    database = fresh_database()
    service = fresh_service(database)
    session = fresh_session(database)
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})
    service.execute(PARAM_QUERY, [QUERY_TERM, titles[0]])
    for title in titles:
        result = service.execute(PARAM_QUERY, [QUERY_TERM, title])
        reference = session.execute(PARAM_QUERY,
                                    parameters=[QUERY_TERM, title])
        assert result.value_set() == reference.value_set()
    assert len(service.cache) == 1
    assert service.metrics.snapshot()["cache_hits"] == len(titles)


def test_shape_normalization_shares_cache_entries():
    service = fresh_service(fresh_database())
    spelled_one = "ACCESS p FROM p IN Paragraph WHERE p.number == ?"
    spelled_two = ("ACCESS   p\nFROM p IN Paragraph\n"
                   "WHERE p.number == ?1  -- same shape")
    first = service.execute(spelled_one, [2])
    second = service.execute(spelled_two, [2])
    assert second.metrics.cache_hit
    assert first.metrics.fingerprint == second.metrics.fingerprint
    assert len(service.cache) == 1


def test_prepared_handle_skips_parse_and_analyze():
    service = fresh_service(fresh_database())
    statement = service.prepare(PARAM_QUERY)
    assert statement.parameters == ("1", "2")
    result = service.execute(statement, [QUERY_TERM, TARGET_TITLE])
    assert result.metrics.cache_hit  # prepare() warmed the plan
    assert result.output_ref == "p"


def test_naive_and_optimized_plans_cache_separately():
    service = fresh_service(fresh_database())
    optimized = service.execute(PARAM_QUERY, [QUERY_TERM, TARGET_TITLE])
    naive = service.execute(PARAM_QUERY, [QUERY_TERM, TARGET_TITLE],
                            optimize=False)
    assert len(service.cache) == 2
    assert naive.value_set() == optimized.value_set()
    assert naive.plan.optimization is None
    assert optimized.plan.optimization is not None


def test_binding_errors_surface_before_execution():
    service = fresh_service(fresh_database())
    with pytest.raises(BindingError):
        service.execute(PARAM_QUERY, [QUERY_TERM])


# ----------------------------------------------------------------------
# invalidation: index DDL
# ----------------------------------------------------------------------
def test_creating_an_index_evicts_and_improves_the_plan():
    database = fresh_database()
    service = fresh_service(database)
    before = service.execute(NUMBER_QUERY, [2])
    assert not any(isinstance(node, IndexEqScan)
                   for node in walk_physical(before.plan.physical_plan))

    service.create_index("Paragraph", "number", kind="hash")
    after = assert_matches_fresh_session(
        service, NUMBER_QUERY, [2],
        "ACCESS p FROM p IN Paragraph WHERE p.number == 2")
    assert not after.metrics.cache_hit
    assert any(isinstance(node, IndexEqScan)
               for node in walk_physical(after.plan.physical_plan))
    assert before.value_set() == after.value_set()


def test_dropping_an_index_evicts_the_index_plan():
    database = fresh_database()
    service = fresh_service(database)
    service.create_index("Paragraph", "number", kind="hash")
    indexed = service.execute(NUMBER_QUERY, [2])
    assert any(isinstance(node, IndexEqScan)
               for node in walk_physical(indexed.plan.physical_plan))

    service.drop_index("Paragraph", "number")
    # The cached index plan would now raise at execution; eviction must
    # replace it with a plan that still answers correctly.
    after = assert_matches_fresh_session(
        service, NUMBER_QUERY, [2],
        "ACCESS p FROM p IN Paragraph WHERE p.number == 2")
    assert not after.metrics.cache_hit
    assert not any(isinstance(node, IndexEqScan)
                   for node in walk_physical(after.plan.physical_plan))
    assert after.value_set() == indexed.value_set()


def test_dropping_a_missing_index_raises():
    service = fresh_service(fresh_database())
    with pytest.raises(IndexError_):
        service.drop_index("Paragraph", "number")


# ----------------------------------------------------------------------
# invalidation: knowledge registration
# ----------------------------------------------------------------------
def test_registering_knowledge_invalidates_every_cached_plan():
    database = fresh_database()
    service = fresh_service(database)
    service.execute(NUMBER_QUERY, [2])
    service.execute(PARAM_QUERY, [QUERY_TERM, TARGET_TITLE])
    assert len(service.cache) == 2

    invalidations_before = service.cache.statistics.invalidations
    service.register_knowledge(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent="p->wordCount() > 200",
        consequent="p IS-IN Paragraph->largeParagraphs()",
        name="test-implication"))

    result = assert_matches_fresh_session(
        service, NUMBER_QUERY, [2],
        "ACCESS p FROM p IN Paragraph WHERE p.number == 2")
    assert not result.metrics.cache_hit
    assert service.cache.statistics.invalidations > invalidations_before


# ----------------------------------------------------------------------
# invalidation: data drift
# ----------------------------------------------------------------------
def test_bulk_data_change_evicts_cached_plans():
    database = fresh_database()
    service = fresh_service(database, reoptimize_fraction=0.25)
    service.execute(NUMBER_QUERY, [2])
    assert service.execute(NUMBER_QUERY, [2]).metrics.cache_hit

    # Bulk load: create far more than reoptimize_fraction × object_count.
    for i in range(database.object_count() // 2):
        database.create("Document", title=f"bulk {i}", sections=set())

    after = assert_matches_fresh_session(
        service, NUMBER_QUERY, [2],
        "ACCESS p FROM p IN Paragraph WHERE p.number == 2")
    assert not after.metrics.cache_hit


def test_small_data_change_keeps_cached_plans_and_sees_new_data():
    database = fresh_database()
    service = fresh_service(database)
    title_query = "ACCESS d FROM d IN Document WHERE d.title == ?"
    before = service.execute(title_query, ["new document"])
    assert len(before) == 0

    database.create("Document", title="new document", sections=set())
    after = service.execute(title_query, ["new document"])
    # One insert is far below the drift threshold: the plan survives, and
    # because prepared plans read state at run time it sees the new object.
    assert after.metrics.cache_hit
    assert len(after) == 1


# ----------------------------------------------------------------------
# cache mechanics
# ----------------------------------------------------------------------
def test_plan_cache_is_a_bounded_lru():
    database = fresh_database()
    service = fresh_service(database, cache_capacity=2)
    # three shapes (three literals would be one auto-parameterized shape)
    queries = [f"ACCESS p FROM p IN Paragraph WHERE p.number {op} ?"
               for op in ("==", "<", ">")]
    for query in queries:
        service.execute(query, [2])
    assert len(service.cache) == 2
    assert service.cache.statistics.evictions == 1
    # The oldest shape was evicted: running it again is a miss.
    again = service.execute(queries[0], [2])
    assert not again.metrics.cache_hit


def test_plan_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        StatementCache(capacity=0)


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_concurrent_execution_matches_serial_results():
    database = fresh_database()
    service = fresh_service(database)
    session = fresh_session(database)
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})
    requests = [(PARAM_QUERY, [QUERY_TERM, titles[i % len(titles)]])
                for i in range(24)]
    results = service.run_concurrent(requests, workers=6)
    assert len(results) == len(requests)
    for (query, parameters), result in zip(requests, results):
        reference = session.execute(query, parameters=parameters)
        assert result.value_set() == reference.value_set()
    snapshot = service.metrics.snapshot()
    assert snapshot["queries"] == len(requests)
    assert snapshot["cache_hits"] >= len(requests) - 1


def test_concurrent_mixed_shapes_share_the_cache():
    database = fresh_database()
    service = fresh_service(database)
    requests = []
    for i in range(12):
        requests.append((NUMBER_QUERY, [i % 5]))
        requests.append((PARAM_QUERY, [QUERY_TERM, TARGET_TITLE]))
    results = service.run_concurrent(requests, workers=4)
    assert len(service.cache) == 2
    session = fresh_session(database)
    for (query, parameters), result in zip(requests, results):
        assert result.value_set() == session.execute(
            query, parameters=parameters).value_set()


# ----------------------------------------------------------------------
# metrics and the naive flag
# ----------------------------------------------------------------------
def test_service_metrics_snapshot_accounts_for_hits_and_misses():
    service = fresh_service(fresh_database())
    service.execute(NUMBER_QUERY, [1])
    service.execute(NUMBER_QUERY, [2])
    service.execute(NUMBER_QUERY, [3])
    snapshot = service.metrics.snapshot()
    assert snapshot["queries"] == 3
    assert snapshot["cache_misses"] == 1
    assert snapshot["cache_hits"] == 2
    assert 0.0 < snapshot["hit_rate"] < 1.0
    assert snapshot["total_optimize_seconds"] > 0.0


def test_service_naive_flag_lowers_the_canonical_plan():
    database = fresh_database()
    service = fresh_service(database)
    optimized = service.execute(NUMBER_QUERY, [2])
    naive = service.execute(NUMBER_QUERY, [2], optimize=False)
    assert naive.output_ref == "p"
    assert naive.value_set() == optimized.value_set()
    assert naive.plan.optimization is None
    assert optimized.plan.optimization is not None


def test_explain_describes_the_cached_plan():
    service = fresh_service(fresh_database())
    text = service.explain(NUMBER_QUERY)
    assert "physical plan" in text or "naive plan" in text


def test_sync_knowledge_picks_up_knowledge_added_in_place():
    """Knowledge add()ed directly to the shared object after the service was
    built reaches the optimizer on the next ``sync_knowledge()``."""
    database = fresh_database()
    knowledge = document_knowledge(database.schema)
    service = QueryService(database, knowledge=knowledge)
    service.execute(NUMBER_QUERY, [2])
    version_before = service._knowledge_version
    assert not service.sync_knowledge()

    knowledge.add(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent="p->wordCount() > 200",
        consequent="p IS-IN Paragraph->largeParagraphs()",
        name="in-place-implication"))
    assert service.sync_knowledge()
    result = service.execute(NUMBER_QUERY, [2])
    assert service._knowledge_version == version_before + 1
    assert not result.metrics.cache_hit  # the version bump evicted the plan
    assert result.value_set() == fresh_session(database).execute(
        "ACCESS p FROM p IN Paragraph WHERE p.number == 2").value_set()


def test_read_lock_is_reentrant_while_a_writer_waits():
    """A reader re-entering on the same thread must not deadlock against a
    queued writer (nested service execution from a method implementation)."""
    import threading
    from repro.service import ReadWriteLock

    lock = ReadWriteLock()
    lock.acquire_read()
    writer_queued = threading.Event()
    writer_done = threading.Event()

    def writer():
        writer_queued.set()
        with lock.write_locked():
            writer_done.set()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    writer_queued.wait(timeout=5)
    import time
    time.sleep(0.05)  # let the writer reach acquire_write and queue up
    # Re-entrant read while the writer waits: must not block.
    lock.acquire_read()
    lock.release_read()
    lock.release_read()
    thread.join(timeout=5)
    assert writer_done.is_set()


def test_build_locks_do_not_accumulate():
    service = fresh_service(fresh_database())
    for n in range(5):
        service.execute(f"ACCESS p FROM p IN Paragraph WHERE p.number == {n}")
    (shape,) = service.cache._entries.values()
    assert not shape.lock.locked()


# ----------------------------------------------------------------------
# concurrency stress: method-bearing plans under the plan cache
# ----------------------------------------------------------------------
METHOD_QUERY = "ACCESS p FROM p IN Paragraph WHERE p->contains_string(?)"


def method_service(database, **kwargs) -> QueryService:
    """A service whose optimizer cannot rewrite the method away (semantic
    rules excluded), so method-bearing shapes call the method per row."""
    return QueryService(database,
                        knowledge=document_knowledge(database.schema),
                        exclude_tags=("semantic",), **kwargs)


def test_run_concurrent_clients_share_cached_plans():
    database = fresh_database()
    service = method_service(database)
    requests = [(METHOD_QUERY, ["word0005"]),
                (METHOD_QUERY, ["word0003"]),
                (NUMBER_QUERY, [1])] * 8
    results = service.run_concurrent(requests, workers=6)
    # 3 shapes, 24 requests: everything after the cold misses must hit
    snapshot = service.metrics.snapshot()
    assert snapshot["queries"] == len(requests)
    assert snapshot["cache_hits"] >= len(requests) - 3

    reference = fresh_session(database)
    for (query, parameters), result in zip(requests, results):
        expected = reference.execute(query, parameters=parameters)
        assert result.value_set() == expected.value_set()


def test_plan_cache_invalidation_during_concurrent_execution():
    database = fresh_database()
    service = method_service(database)
    requests = [(NUMBER_QUERY, [n % 4]) for n in range(12)]

    service.run_concurrent(requests, workers=4)
    # index DDL between batches strictly invalidates the cached plan …
    service.create_index("Paragraph", "number", kind="hash")
    invalidations_before = service.cache.statistics.invalidations
    results = service.run_concurrent(requests, workers=4)
    assert service.cache.statistics.invalidations > invalidations_before

    # … and the re-prepared plans still answer correctly.
    reference = fresh_session(database)
    for (query, parameters), result in zip(requests, results):
        expected = reference.execute(query, parameters=parameters)
        assert result.value_set() == expected.value_set()


def test_index_ddl_races_query_execution():
    """Writers (index DDL) must serialize against in-flight executions:
    every query sees either the indexed or the scanned plan, never a plan
    whose index disappeared mid-run."""
    import threading

    database = fresh_database()
    service = method_service(database)
    expected = fresh_session(database).execute(
        NUMBER_QUERY, parameters=[1]).value_set()
    errors: list[Exception] = []
    done = threading.Event()

    def ddl_loop():
        try:
            for _ in range(25):
                service.create_index("Paragraph", "number", kind="hash")
                service.drop_index("Paragraph", "number")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=ddl_loop, daemon=True)
    thread.start()
    queries = 0
    while not done.is_set() or queries < 20:
        result = service.execute(NUMBER_QUERY, [1])
        assert result.value_set() == expected
        queries += 1
        if queries > 2000:  # pragma: no cover - liveness guard
            break
    thread.join(timeout=20)
    assert done.is_set() and not errors
    assert queries >= 20


def test_mixed_method_and_index_shapes_under_ddl_and_concurrency():
    """The full stress: concurrent clients over method-bearing and
    indexable shapes, with index DDL injected between batches; results
    stay equal to a fresh session throughout."""
    database = fresh_database()
    service = method_service(database)
    requests = [(METHOD_QUERY, ["word0003"]), (NUMBER_QUERY, [2])] * 6

    for round_number in range(3):
        results = service.run_concurrent(requests, workers=5)
        reference = fresh_session(database)
        for (query, parameters), result in zip(requests, results):
            expected = reference.execute(query, parameters=parameters)
            assert result.value_set() == expected.value_set()
        if round_number == 0:
            service.create_index("Paragraph", "number", kind="sorted")
        elif round_number == 1:
            service.drop_index("Paragraph", "number")


# ----------------------------------------------------------------------
# adaptive feedback re-optimization
# ----------------------------------------------------------------------
def _skewed_order_database():
    """Order/Region with a rare 'urgent' status that drift makes common."""
    import random

    from repro.datamodel.database import Database
    from repro.datamodel.schema import ClassDef, PropertyDef, Schema
    from repro.datamodel.types import STRING

    schema = Schema("feedback")
    for name, props in (("Order", ("status", "region")),
                        ("Region", ("name", "kind"))):
        class_def = ClassDef(name=name)
        for prop in props:
            class_def.add_property(PropertyDef(prop, STRING))
        schema.add_class(class_def)
    database = Database(schema, name="feedback")
    rng = random.Random(7)
    regions = [f"R{i}" for i in range(40)]
    database.create_many("Order", [
        {"status": rng.choice(["open"] * 49 + ["urgent"]),
         "region": rng.choice(regions)} for _ in range(300)])
    database.create_many("Region",
                         [{"name": name, "kind": "common"}
                          for name in regions])
    return database


FEEDBACK_QUERY = ("ACCESS o FROM o IN Order, r IN Region "
                  "WHERE o.status == 'urgent' AND o.region == r.name")


def _drift_orders_to_urgent(database, count=70):
    """Flip *count* orders to 'urgent' — enough to wreck the MCV-based
    selectivity estimate, few enough that the statistics stay 'fresh'
    (below the staleness fraction) and the plan cache keeps the entry."""
    flips = [oid for oid in database.extension("Order")
             if database.get(oid).get("status") != "urgent"][:count]
    for oid in flips:
        database.update(oid, status="urgent")


def test_feedback_corrects_and_replans_after_drift():
    database = _skewed_order_database()
    service = QueryService(database)
    service.execute("ANALYZE")

    first = service.execute(FEEDBACK_QUERY)
    snapshot = service.metrics.snapshot()
    assert snapshot["feedback_evictions"] == 0
    assert snapshot["plans_reoptimized"] == 0

    _drift_orders_to_urgent(database)
    # post-drift execution is profiled, detects the divergence, corrects
    second = service.execute(FEEDBACK_QUERY)
    assert service.metrics.snapshot()["feedback_evictions"] >= 1
    assert database.stats_catalog.correction_count() >= 1

    # the correction evicted the plan: the next execution replans against
    # the observed selectivity, and the estimate now matches the actual
    third = service.execute(FEEDBACK_QUERY)
    assert not third.metrics.cache_hit
    snapshot = service.metrics.snapshot()
    assert snapshot["plans_reoptimized"] >= 1

    actual = len(third.rows)
    estimated = third.plan.optimization.best_cost.cardinality
    assert actual == len(second.rows) > len(first.rows)
    assert max(estimated, actual) / max(min(estimated, actual), 1.0) < 2.0
    assert third.plan.optimization.stats_corrections >= 1
    assert "statistics corrections applied:" in \
        service.explain(FEEDBACK_QUERY)

    # steady state: no oscillation, the corrected plan stays cached
    fourth = service.execute(FEEDBACK_QUERY)
    assert fourth.metrics.cache_hit
    assert service.metrics.snapshot()["feedback_evictions"] == \
        snapshot["feedback_evictions"]


def test_feedback_never_changes_results():
    """The drift oracle: replanning after feedback is invisible in the
    result multisets — every execution equals a fresh naive session."""
    database = _skewed_order_database()
    service = QueryService(database)
    service.execute("ANALYZE")

    def reference():
        fresh = Session(database)
        return fresh.execute(FEEDBACK_QUERY, optimize=False).value_set()

    assert service.execute(FEEDBACK_QUERY).value_set() == reference()
    _drift_orders_to_urgent(database)
    for _ in range(3):  # spans the correct → evict → replan transitions
        assert service.execute(FEEDBACK_QUERY).value_set() == reference()
    assert service.metrics.snapshot()["feedback_evictions"] >= 1


def test_a_cursor_stream_never_arms_the_profiled_twin():
    """Only drained executions are watched: cursors after the drift leave
    the plan unprofiled and uncorrected; the next ``execute()`` arms it."""
    database = _skewed_order_database()
    service = QueryService(database)
    service.execute("ANALYZE")
    plan = service.execute(FEEDBACK_QUERY).plan
    _drift_orders_to_urgent(database)
    connection = connect(database, service=service)
    for _ in range(3):
        assert connection.execute(FEEDBACK_QUERY).fetchall()
        assert plan.feedback_profile is None
    assert service.metrics.snapshot()["feedback_evictions"] == 0
    service.execute(FEEDBACK_QUERY)
    assert service.metrics.snapshot()["feedback_evictions"] >= 1


def test_feedback_can_be_disabled():
    database = _skewed_order_database()
    service = QueryService(database, adaptive_feedback=False)
    service.execute("ANALYZE")
    service.execute(FEEDBACK_QUERY)
    _drift_orders_to_urgent(database)
    for _ in range(3):
        service.execute(FEEDBACK_QUERY)
    snapshot = service.metrics.snapshot()
    assert snapshot["feedback_evictions"] == 0
    assert snapshot["plans_reoptimized"] == 0
    assert database.stats_catalog.correction_count() == 0


def test_feedback_needs_analyzed_statistics():
    """Without ANALYZE every estimate is a schema default — feedback must
    not chase that noise with corrections."""
    database = _skewed_order_database()
    service = QueryService(database)
    for _ in range(3):
        service.execute(FEEDBACK_QUERY)
    assert service.metrics.snapshot()["feedback_evictions"] == 0
    assert database.stats_catalog.correction_count() == 0


STAR_QUERY = ("ACCESS o FROM o IN Order, s IN Shipment, r IN Region "
              "WHERE o.status == 'urgent' AND o.region == r.name "
              "AND s.region == r.name AND r.kind == 'rare'")


def _drift_star(database, n_orders, n_regions):
    """Flip 23% of orders to 'urgent' and of regions to 'rare': a >10x
    estimate/actual gap on both filters, yet under the 25% staleness
    fraction, so the ANALYZE statistics stay fresh while badly wrong."""
    for class_name, prop, value, budget in (
            ("Order", "status", "urgent", int(0.23 * n_orders)),
            ("Region", "kind", "rare", int(0.23 * n_regions))):
        flips = [oid for oid in database.extension(class_name)
                 if database.get(oid).get(prop) != value][:budget]
        for oid in flips:
            database.update(oid, **{prop: value})


def test_feedback_replan_cuts_the_work_of_a_drifted_star(star_database):
    """Before the drift the optimum nests a loop over Shipment, which only
    pays while 'urgent' and 'rare' stay rare: the replan must flip it."""
    database = star_database(600, 100, seed=43)
    service = QueryService(database)
    service.execute("ANALYZE")
    service.execute(STAR_QUERY)
    _drift_star(database, 600, 100)

    def counted_execute():
        before = database.work_snapshot()
        result = service.execute(STAR_QUERY)
        after = database.work_snapshot()
        return result, sum(after[key] - before[key]
                           for key in ("property_reads", "index_lookups"))

    stale, stale_work = counted_execute()  # profiled: detects, evicts
    replanned, replanned_work = counted_execute()
    snapshot = service.metrics.snapshot()
    assert snapshot["feedback_evictions"] >= 1
    assert snapshot["plans_reoptimized"] >= 1
    assert replanned.value_set() == stale.value_set()
    assert stale_work >= 1.2 * replanned_work


# ----------------------------------------------------------------------
# bind-time range bounds: one cached index plan serves every interval
# ----------------------------------------------------------------------
RANGE_QUERY = ("ACCESS e.eid FROM e IN Event "
               "WHERE e.amount >= :lo AND e.amount < :hi")
N_EVENTS = 400


def _event_amount(eid: int) -> int:
    return (eid * 37) % N_EVENTS  # a permutation of 0..399


def _event_service(**kwargs) -> QueryService:
    """Event(eid, amount) with a sorted index on ``amount``, analyzed."""
    from repro.datamodel.database import Database
    from repro.datamodel.schema import ClassDef, PropertyDef, Schema
    from repro.datamodel.types import INT

    schema = Schema("events")
    event = ClassDef("Event")
    event.add_property(PropertyDef("eid", INT))
    event.add_property(PropertyDef("amount", INT))
    schema.add_class(event)
    database = Database(schema, name="events")
    database.create_many("Event", [{"eid": eid, "amount": _event_amount(eid)}
                                   for eid in range(N_EVENTS)])
    database.create_sorted_index("Event", "amount")
    service = QueryService(database, **kwargs)
    service.execute("ANALYZE")
    return service


def _events_between(low: int, high: int) -> list[int]:
    return sorted(eid for eid in range(N_EVENTS)
                  if low <= _event_amount(eid) < high)


def test_one_cached_range_plan_serves_200_bindings():
    service = _event_service()
    misses_before = service.cache.snapshot()["misses"]
    for i in range(200):
        low, width = (i * 7) % N_EVENTS, 4 + i % 90
        result = service.execute(RANGE_QUERY, {"lo": low, "hi": low + width})
        assert sorted(result.values) == _events_between(low, low + width)
    assert service.cache.snapshot()["misses"] == misses_before + 1
    assert "index_range_scan<e, Event.amount IN [:lo, :hi)>" in [
        node.describe() for node in walk_physical(result.plan.physical_plan)]
    assert "index_range_scan" in service.explain(RANGE_QUERY)


def test_dropping_the_sorted_index_replans_the_range_to_a_class_scan():
    service = _event_service()
    bindings = {"lo": 100, "hi": 160}
    indexed = service.execute(RANGE_QUERY, bindings)
    assert "index_range_scan" in service.explain(RANGE_QUERY)
    service.drop_index("Event", "amount")
    scanned = service.execute(RANGE_QUERY, bindings)
    assert not scanned.metrics.cache_hit
    report = service.explain(RANGE_QUERY)
    assert "class_scan" in report and "index_range_scan" not in report
    assert sorted(scanned.values) == sorted(indexed.values) \
        == _events_between(100, 160)


def test_interleaved_range_streams_keep_their_own_bounds():
    service = _event_service()
    first = service.stream(RANGE_QUERY, {"lo": 0, "hi": 40})
    second = service.stream(RANGE_QUERY, {"lo": 200, "hi": 230})
    rows_first, rows_second = [], []
    while not (first.exhausted and second.exhausted):
        rows_first.extend(first.fetch(3))
        rows_second.extend(second.fetch(5))
    assert sorted(row["__result"] for row in rows_first) == \
        _events_between(0, 40)
    assert sorted(row["__result"] for row in rows_second) == \
        _events_between(200, 230)


def test_range_under_a_pinned_snapshot_answers_as_of_the_snapshot():
    service = _event_service()
    database = service.database
    bindings = {"lo": 100, "hi": 150}
    service.execute(RANGE_QUERY, bindings)  # plan cached before the writes
    ts = database.acquire_snapshot()
    try:
        by_eid = {database.value(oid, "eid"): oid
                  for oid in database.extension("Event")}
        inside = _events_between(100, 150)
        outside = _events_between(300, 320)
        for eid in inside[:10]:        # move out of the interval
            database.update(by_eid[eid], amount=390)
        for eid in outside[:5]:        # move into the interval
            database.update(by_eid[eid], amount=120)
        database.delete(by_eid[inside[10]])
        with database.pin_snapshot(ts):
            pinned = service.execute(RANGE_QUERY, bindings)
            naive = service.execute(RANGE_QUERY, bindings, optimize=False)
        assert sorted(pinned.values) == sorted(naive.values) == inside
        latest = service.execute(RANGE_QUERY, bindings)
        assert sorted(latest.values) == sorted(inside[11:] + outside[:5])
    finally:
        database.release_snapshot(ts)


def test_explain_analyze_reports_the_parameterized_range_scan():
    from repro.physical.executor import prepare_plan
    from repro.physical.plans import IndexRangeScan
    from repro.physical.profile import (PlanProfile, divergent_operators,
                                        estimated_vs_actual)

    service = _event_service()
    report = service.explain(RANGE_QUERY, analyze=True,
                             parameters={"lo": 10, "hi": 60})
    assert "index_range_scan<e, Event.amount IN [:lo, :hi)>" in report
    scan_line = next(line for line in str(report).splitlines()
                     if "index_range_scan" in line and "actual" in line)
    assert "actual rows=50" in scan_line
    # 0.3 × 0.3 × 400: the flat default on both unknown sides
    assert "estimated rows=36.0" in scan_line

    # the estimate/actual helpers take Expression bounds as they are
    plan = service.execute(RANGE_QUERY, {"lo": 0, "hi": 1}).plan.physical_plan
    scan = next(node for node in walk_physical(plan)
                if isinstance(node, IndexRangeScan))
    profile = PlanProfile()
    rows = prepare_plan(plan, service.database, profile=profile).run(
        {"lo": 0, "hi": 1})
    assert len(rows) == 1
    cost_model = service._optimizer.cost_model
    records = estimated_vs_actual(plan, profile, cost_model=cost_model)
    record = next(r for r in records if r["operator"] == scan.describe())
    assert (record["estimated_rows"], record["actual_rows"]) == (36.0, 1)
    divergent = divergent_operators(plan, profile, cost_model, threshold=10.0)
    assert scan in [d["operator"] for d in divergent]
