"""Unit tests for the partitioned parallel execution engine.

Covers the tentpole pieces one by one: partition maintenance in the
datamodel (create/update/delete stay consistent with the extensions),
deterministic ordered merges in the morsel driver and the parallel
operators, worker-count edge cases, exception propagation from worker
threads, the optimizer's cost-gated use of parallel operators, and the
service-level ``parallelism=`` knob.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datamodel.partitions import PartitionedExtension
from repro.errors import AlgebraError, ReproError
from repro.physical.evaluator import make_hashable
from repro.physical.executor import execute_plan, prepare_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.parallel import (
    default_parallelism,
    make_morsels,
    process_morsels,
)
from repro.physical.plans import (
    ClassScan,
    Filter,
    HashJoin,
    ParallelHashJoin,
    ParallelIndexEqScan,
    ParallelMap,
    ParallelScan,
    uses_parallelism,
)
from repro.service.service import QueryService
from repro.session import Session
from repro.vql.parser import parse_expression
from repro.workloads import document_knowledge, generate_document_database


def multiset(rows):
    return Counter(make_hashable(row) for row in rows)


@pytest.fixture()
def small_db():
    return generate_document_database(n_documents=2)


# ----------------------------------------------------------------------
# partition maintenance
# ----------------------------------------------------------------------
class TestPartitionMaintenance:
    def test_create_keeps_partitions_consistent(self, small_db):
        for class_name in ("Document", "Section", "Paragraph"):
            extension = small_db.extension(class_name, deep=False)
            partitions = small_db.partitions.for_class(class_name)
            merged = [oid for part in partitions.partitions() for oid in part]
            assert sorted(merged) == sorted(extension)
            assert partitions.total_size() == len(extension)

    def test_partition_assignment_is_deterministic(self, small_db):
        partitions = small_db.partitions.for_class("Paragraph")
        for index, part in enumerate(partitions.partitions()):
            for oid in part:
                assert oid.serial % partitions.n_partitions == index

    def test_delete_removes_from_extension_and_partitions(self, small_db):
        victim = small_db.extension("Paragraph")[0]
        before = small_db.partitions.for_class("Paragraph").total_size()
        small_db.delete(victim)
        assert victim not in small_db.extension("Paragraph")
        assert not small_db.exists(victim)
        partitions = small_db.partitions.for_class("Paragraph")
        assert partitions.total_size() == before - 1
        assert all(victim not in part for part in partitions.partitions())

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

    def test_update_counts_partition_writes(self, small_db):
        paragraph = small_db.extension("Paragraph")[0]
        partitions = small_db.partitions.for_class("Paragraph")
        index = partitions.partition_of(paragraph)
        writes_before = partitions.statistics()[index].writes
        small_db.set_value(paragraph, "number", 99)
        assert partitions.statistics()[index].writes == writes_before + 1

    def test_per_partition_statistics_track_inserts_and_removes(self):
        extension = PartitionedExtension("C", n_partitions=4)
        from repro.datamodel.oid import OID
        oids = [OID("C", serial) for serial in range(1, 11)]
        for oid in oids:
            extension.add(oid)
        assert sum(s.inserts for s in extension.statistics()) == 10
        extension.remove(oids[0])
        stats = extension.statistics()[extension.partition_of(oids[0])]
        assert stats.removes == 1
        assert extension.total_size() == 9

    def test_extension_partitions_cover_deep_extension(self, small_db):
        partitions = small_db.extension_partitions("Paragraph")
        merged = [oid for part in partitions for oid in part]
        assert sorted(merged) == sorted(small_db.extension("Paragraph"))


# ----------------------------------------------------------------------
# morsel driver
# ----------------------------------------------------------------------
class TestMorselDriver:
    def test_make_morsels_covers_items_in_order(self):
        items = list(range(100))
        morsels = make_morsels(items, degree=4)
        assert [x for m in morsels for x in m] == items
        assert len(morsels) > 1

    def test_make_morsels_empty(self):
        assert make_morsels([], degree=4) == []

    @pytest.mark.parametrize("degree", [0, 1, 2, 64])
    def test_process_morsels_any_degree(self, degree):
        # degree 0/1 run inline; degree > morsel count still covers all.
        morsels = make_morsels(list(range(10)), degree=max(degree, 1),
                               morsel_size=2)
        result = process_morsels(morsels, lambda m: [x * 2 for x in m], degree)
        assert result == [x * 2 for x in range(10)]

    def test_ordered_merge_is_deterministic(self):
        items = list(range(200))
        morsels = make_morsels(items, degree=4)
        runs = [process_morsels(morsels, lambda m: list(m), 4)
                for _ in range(5)]
        assert all(run == items for run in runs)

    def test_exception_propagates_from_worker(self):
        def worker(morsel):
            if 7 in morsel:
                raise ValueError("boom")
            return list(morsel)

        with pytest.raises(ValueError, match="boom"):
            process_morsels(make_morsels(list(range(20)), 4, morsel_size=2),
                            worker, 4)


# ----------------------------------------------------------------------
# parallel operators
# ----------------------------------------------------------------------
class TestParallelOperators:
    CONDITION = "p->wordCount() > 10"

    def plan(self, degree, condition=CONDITION):
        return ParallelScan("p", "Paragraph",
                            condition=parse_expression(condition),
                            degree=degree)

    def test_degree_zero_is_rejected(self):
        with pytest.raises(AlgebraError):
            ParallelScan("p", "Paragraph", degree=0)
        with pytest.raises(AlgebraError):
            ParallelMap("d", parse_expression("1"),
                        ClassScan("p", "Paragraph"), degree=-1)

    @pytest.mark.parametrize("degree", [1, 2, 64])
    def test_scan_matches_sequential_filter_at_any_degree(self, small_db, degree):
        # degree 1 runs inline, 64 exceeds both partitions and morsels.
        parallel = execute_plan(self.plan(degree), small_db)
        sequential = execute_plan(
            Filter(parse_expression(self.CONDITION),
                   ClassScan("p", "Paragraph")), small_db)
        assert multiset(parallel) == multiset(sequential)

    def test_all_three_engines_agree_on_rows_and_order(self, small_db):
        plan = self.plan(4)
        interpreted = execute_plan_interpreted(plan, small_db)
        compiled = execute_plan(plan, small_db)
        prepared = prepare_plan(plan, small_db).run()
        assert interpreted == compiled == prepared

    def test_ordered_merge_determinism_across_runs(self, small_db):
        plan = self.plan(4)
        first = execute_plan(plan, small_db)
        for _ in range(4):
            assert execute_plan(plan, small_db) == first

    def test_worker_exception_propagates_with_original_type(self, small_db):
        # division by a zero constant inside the predicate fails per row
        plan = ParallelScan(
            "p", "Paragraph",
            condition=parse_expression("p->document() == p"),
            degree=4)
        # comparing a document OID with a paragraph row is fine (False), so
        # build a genuinely failing predicate instead: unknown method.
        failing = ParallelScan(
            "p", "Paragraph",
            condition=parse_expression("p->wordCount(1, 2) > 0"),
            degree=4)
        assert execute_plan(plan, small_db) == []
        with pytest.raises(ReproError):
            execute_plan(failing, small_db)
        with pytest.raises(ReproError):
            prepare_plan(failing, small_db).run()

    def test_parallel_index_eq_scan_residual(self, small_db):
        small_db.create_hash_index("Paragraph", "number")
        condition = parse_expression("p->wordCount() > 10")
        plan = ParallelIndexEqScan("p", "Paragraph", "number", 1,
                                   condition=condition, degree=4)
        interpreted = execute_plan_interpreted(plan, small_db)
        compiled = execute_plan(plan, small_db)
        prepared = prepare_plan(plan, small_db).run()
        assert interpreted == compiled == prepared
        brute = [row for row in execute_plan_interpreted(
                     Filter(condition, ClassScan("p", "Paragraph")), small_db)
                 if small_db.value(row["p"], "number") == 1]
        assert multiset(compiled) == multiset(brute)

    def test_parallel_hash_join_matches_sequential(self, small_db):
        left_key = parse_expression("p->document()")
        right_key = parse_expression("q->document()")
        sequential = HashJoin(left_key, right_key,
                              ClassScan("p", "Paragraph"),
                              ClassScan("q", "Paragraph"))
        parallel = ParallelHashJoin(left_key, right_key,
                                    ClassScan("p", "Paragraph"),
                                    ClassScan("q", "Paragraph"), 4)
        assert (execute_plan(sequential, small_db)
                == execute_plan(parallel, small_db))


# ----------------------------------------------------------------------
# the snapshot pin reaches morsel workers on every entry point
# ----------------------------------------------------------------------
class TestSnapshotPinReachesWorkers:
    """Workers run on pool threads, where the coordinating statement's
    thread-local pin is not visible unless the engine re-activates it.  The
    one-shot entry point used to skip that: under a pin it read the
    *latest* versions while the prepared engine and the interpreter read
    the snapshot."""

    @pytest.fixture()
    def rewritten(self, small_db):
        """(database, snapshot ts): every paragraph rewritten after *ts*."""
        ts = small_db.acquire_snapshot()
        for oid in small_db.extension("Paragraph"):
            small_db.update(oid, number=999, content="rewritten")
        yield small_db, ts
        small_db.release_snapshot(ts)

    @staticmethod
    def all_engines(plan, database):
        return (execute_plan(plan, database),
                prepare_plan(plan, database).run(),
                execute_plan_interpreted(plan, database))

    def test_parallel_scan(self, rewritten):
        database, ts = rewritten
        plan = ParallelScan("p", "Paragraph",
                            condition=parse_expression("p.number == 999"),
                            degree=4)
        with database.pin_snapshot(ts):
            one_shot, prepared, interpreted = self.all_engines(plan, database)
        assert one_shot == prepared == interpreted == []
        latest = execute_plan(plan, database)
        assert len(latest) == len(database.extension("Paragraph")) > 8

    def test_parallel_map(self, rewritten):
        database, ts = rewritten
        plan = ParallelMap("n", parse_expression("p.number"),
                           ClassScan("p", "Paragraph"), degree=4)
        with database.pin_snapshot(ts):
            one_shot, prepared, interpreted = self.all_engines(plan, database)
        assert one_shot == prepared == interpreted
        assert all(row["n"] != 999 for row in one_shot)

    def test_parallel_hash_join(self, rewritten):
        database, ts = rewritten
        plan = ParallelHashJoin(parse_expression("p.number"),
                                parse_expression("q.number"),
                                ClassScan("p", "Paragraph"),
                                ClassScan("q", "Paragraph"), 4)
        with database.pin_snapshot(ts):
            one_shot, prepared, interpreted = self.all_engines(plan, database)
        assert one_shot == prepared == interpreted
        # at the latest version every key is 999: the full cross product
        assert len(one_shot) < len(execute_plan(plan, database))

    def test_session_under_a_pin(self, rewritten):
        database, ts = rewritten
        # without its (unversioned) text engine the external method reads
        # the content property, which the pin does version
        database.drop_text_index("Paragraph", "content")
        query = ("ACCESS p FROM p IN Paragraph "
                 "WHERE p->contains_string('word0005')")
        knowledge = document_knowledge(database.schema)
        parallel = Session(database, knowledge=knowledge,
                           exclude_tags=("semantic",), parallelism=4)
        sequential = Session(database, knowledge=knowledge,
                             exclude_tags=("semantic",), parallelism=1)
        assert uses_parallelism(parallel.optimize(query).best_plan)
        with database.pin_snapshot(ts):
            pinned = parallel.execute(query)
            reference = sequential.execute(query)
        assert pinned.value_set() == reference.value_set() != set()
        assert parallel.execute(query).rows == []  # latest: all rewritten


# ----------------------------------------------------------------------
# optimizer integration: cost-gated parallel plans
# ----------------------------------------------------------------------
class TestParallelPlanChoice:
    def test_cheap_predicate_stays_sequential(self, small_db):
        session = Session(small_db, parallelism=4)
        plan = session.optimize(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1").best_plan
        assert not uses_parallelism(plan)

    def test_method_predicate_goes_parallel(self, small_db):
        session = Session(small_db, parallelism=4,
                          knowledge=document_knowledge(small_db.schema),
                          exclude_tags=("semantic",))
        plan = session.optimize(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p->contains_string('word0005')").best_plan
        assert uses_parallelism(plan)
        # degree is embedded in the physical plan
        scans = [node for node in _walk(plan) if isinstance(node, ParallelScan)]
        assert scans and all(node.degree == 4 for node in scans)

    def test_degree_one_never_goes_parallel(self, small_db):
        session = Session(small_db, parallelism=1,
                          knowledge=document_knowledge(small_db.schema),
                          exclude_tags=("semantic",))
        plan = session.optimize(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p->contains_string('word0005')").best_plan
        assert not uses_parallelism(plan)

    def test_parallel_and_sequential_sessions_agree(self, small_db):
        query = ("ACCESS p FROM p IN Paragraph "
                 "WHERE p->contains_string('word0005') AND p.number < 5")
        knowledge = document_knowledge(small_db.schema)
        sequential = Session(small_db, knowledge=knowledge,
                             exclude_tags=("semantic",), parallelism=1)
        parallel = Session(small_db, knowledge=knowledge,
                           exclude_tags=("semantic",), parallelism=4)
        assert (sequential.execute(query).value_set()
                == parallel.execute(query).value_set())


def _walk(plan):
    yield plan
    for child in plan.inputs():
        yield from _walk(child)


# ----------------------------------------------------------------------
# service knob
# ----------------------------------------------------------------------
class TestServiceParallelism:
    QUERY = ("ACCESS p FROM p IN Paragraph "
             "WHERE p->contains_string('word0005')")

    def test_service_knob_produces_parallel_plans(self, small_db):
        service = QueryService(small_db,
                               knowledge=document_knowledge(small_db.schema),
                               exclude_tags=("semantic",), parallelism=4)
        result = service.execute(self.QUERY)
        assert uses_parallelism(result.plan.physical_plan)
        # second execution is a cache hit on the same parallel plan
        again = service.execute(self.QUERY)
        assert again.metrics.cache_hit
        assert again.plan is result.plan
        assert multiset(again.rows) == multiset(result.rows)

    def test_parallelism_zero_clamps_to_sequential(self, small_db):
        service = QueryService(small_db, parallelism=0)
        assert service.parallelism == 1
        result = service.execute(self.QUERY)
        assert not uses_parallelism(result.plan.physical_plan)

    def test_default_parallelism_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_DEFAULT", "4")
        assert default_parallelism() == 4
        monkeypatch.setenv("REPRO_PARALLEL_DEFAULT", "not-a-number")
        assert default_parallelism() == 1
        monkeypatch.delenv("REPRO_PARALLEL_DEFAULT")
        assert default_parallelism() == 1

    def test_sequential_and_parallel_services_differ_only_in_plan(self, small_db):
        knowledge = document_knowledge(small_db.schema)
        sequential = QueryService(small_db, knowledge=knowledge,
                                  exclude_tags=("semantic",), parallelism=1)
        parallel = QueryService(small_db, knowledge=knowledge,
                                exclude_tags=("semantic",), parallelism=4)
        a = sequential.execute(self.QUERY)
        b = parallel.execute(self.QUERY)
        assert multiset(a.rows) == multiset(b.rows)
        assert not uses_parallelism(a.plan.physical_plan)
        assert uses_parallelism(b.plan.physical_plan)
