"""The statistics subsystem: histograms, ANALYZE, and the informed cost model.

Covers the pieces end-to-end:

* equi-depth histogram construction and selectivity interpolation,
* per-property statistics (distinct counts, nulls, MCVs, fan-outs),
* timed per-method cost calibration,
* the ``ANALYZE`` statement (router dispatch, version bump, plan-cache
  eviction),
* incremental staleness under mutations,
* the cost model's statistics-first/defaults-fallback discipline, including
  the plan flip on skewed data and the work it saves.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import connect, open_session
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, MethodDef, MethodKind, PropertyDef, Schema
from repro.datamodel.statistics import (
    ColumnIdentity,
    EquiDepthHistogram,
)
from repro.datamodel.types import INT, STRING
from repro.errors import SchemaError, VQLAnalysisError
from repro.optimizer.cost import CostModel
from repro.physical.executor import execute_plan
from repro.physical.profile import PlanProfile, estimated_vs_actual
from repro.workloads import generate_document_database


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def skewed_database(n: int = 2000, seed: int = 7,
                    with_methods: bool = False) -> Database:
    """Reading(category, score): 90% of categories share one value."""
    schema = Schema("skewed")
    reading = ClassDef(name="Reading")
    reading.add_property(PropertyDef("category", STRING))
    reading.add_property(PropertyDef("score", INT))
    reading.add_property(PropertyDef("note", STRING))
    if with_methods:
        def slow(ctx, receiver):
            time.sleep(0.002)
            return ctx.value(receiver, "score")

        def fast(ctx, receiver):
            return ctx.value(receiver, "score")

        reading.add_method(MethodDef("slow_score", return_type=INT,
                                     kind=MethodKind.EXTERNAL,
                                     implementation=slow))
        reading.add_method(MethodDef("fast_score", return_type=INT,
                                     implementation=fast))
    schema.add_class(reading)
    database = Database(schema)
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        category = ("common" if rng.random() < 0.9
                    else f"rare{rng.randrange(9)}")
        rows.append({"category": category, "score": rng.randrange(10_000),
                     "note": None if i % 10 == 0 else f"note {i}"})
    database.create_many("Reading", rows)
    return database


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestEquiDepthHistogram:
    def test_uniform_range_interpolates_linearly(self):
        histogram = EquiDepthHistogram.build(list(range(1000)), buckets=10)
        assert histogram is not None
        assert abs(histogram.fraction_leq(499) - 0.5) < 0.05
        assert histogram.fraction_leq(-1) == 0.0
        assert histogram.fraction_leq(9999) == 1.0

    def test_equi_depth_buckets_follow_skew(self):
        # 90% of the mass at value 5: the buckets concentrate there, so a
        # range above it is priced near 10%, not near 50%.
        values = [5] * 900 + list(range(100, 200))
        histogram = EquiDepthHistogram.build(values, buckets=10)
        assert histogram.selectivity_cmp(">", 50) <= 0.15

    def test_range_selectivity_combines_bounds(self):
        histogram = EquiDepthHistogram.build(list(range(100)), buckets=10)
        selectivity = histogram.selectivity_range(25, 74)
        assert 0.35 < selectivity < 0.65

    def test_unorderable_values_build_nothing(self):
        assert EquiDepthHistogram.build([True, False, True]) is None
        assert EquiDepthHistogram.build(["a", 1, "b"]) is None
        assert EquiDepthHistogram.build([1]) is None


# ----------------------------------------------------------------------
# catalog collection
# ----------------------------------------------------------------------
class TestCatalogCollection:
    def test_analyze_collects_per_property_statistics(self):
        database = skewed_database(n=500)
        database.analyze()
        stats = database.stats_catalog.fresh("Reading")
        assert stats is not None and stats.row_count == 500

        category = stats.property_statistics("category")
        assert category.distinct == 10
        assert category.most_common[0][0] == "common"
        assert category.most_common[0][1] > 400
        assert category.selectivity_eq("common") > 0.8
        assert category.selectivity_eq("rare0") < 0.1
        # unseen value inside the domain: residual-uniform estimate
        assert category.selectivity_eq("never-seen") < 0.05
        # unseen value outside [min, max]: near-zero
        assert category.selectivity_eq("zzz-out-of-range") < 0.01

        score = stats.property_statistics("score")
        assert score.histogram is not None
        assert score.min_value >= 0 and score.max_value < 10_000

        note = stats.property_statistics("note")
        assert 0.05 < note.null_fraction < 0.15

    def test_set_valued_fanout_is_measured(self, doc_database):
        doc_database.stats_catalog.analyze(doc_database,
                                           class_name="Document")
        stats = doc_database.stats_catalog.fresh("Document")
        sections = stats.property_statistics("sections")
        assert sections.avg_fanout == pytest.approx(4.0)

    def test_method_calibration_orders_slow_above_fast(self):
        database = skewed_database(n=50, with_methods=True)
        database.analyze()
        catalog = database.stats_catalog
        slow = catalog.method_statistics("slow_score")
        fast = catalog.method_statistics("fast_score")
        assert slow is not None and fast is not None
        assert slow.avg_seconds >= 0.002
        assert slow.cost_units > fast.cost_units
        assert catalog.property_read_seconds > 0.0

    def test_calibration_does_not_pollute_work_counters(self):
        database = skewed_database(n=50, with_methods=True)
        before = database.work_snapshot()["method_calls"]
        database.analyze()
        assert database.work_snapshot()["method_calls"] == before

    def test_analyze_unknown_class_raises(self):
        database = skewed_database(n=10)
        with pytest.raises(SchemaError):
            database.analyze("Nope")


# ----------------------------------------------------------------------
# incremental maintenance / staleness
# ----------------------------------------------------------------------
class TestStaleness:
    def test_mutation_churn_marks_statistics_stale(self):
        database = skewed_database(n=100)
        database.analyze()
        catalog = database.stats_catalog
        assert catalog.fresh("Reading") is not None
        for i in range(40):  # > 25% of 100 rows
            database.create("Reading", category="new", score=i)
        assert catalog.fresh("Reading") is None
        # stale, not gone: the raw entry is still inspectable
        assert catalog.class_statistics("Reading") is not None
        database.analyze("Reading")
        assert catalog.fresh("Reading") is not None

    def test_subclass_churn_stales_superclass_statistics(self):
        # Class statistics cover the deep extension, so bulk-loading a
        # subclass must stop the superclass's histograms from being served.
        database = generate_document_database(n_documents=2)
        database.create_class("Memo", superclass="Document")
        database.analyze()
        catalog = database.stats_catalog
        assert catalog.fresh("Document") is not None
        memos = [{"title": f"memo {i}"} for i in range(5)]
        database.create_many("Memo", memos)
        assert catalog.mutations_since_analyze("Document") == 5
        assert catalog.fresh("Document") is None  # 5 > 25% of 2 documents

    def test_updates_and_deletes_count_as_churn(self):
        database = skewed_database(n=20)
        database.analyze()
        oids = database.extension("Reading")
        for oid in oids[:4]:
            database.update(oid, score=1)
        for oid in oids[4:8]:
            database.delete(oid)
        assert database.stats_catalog.mutations_since_analyze("Reading") == 8
        assert database.stats_catalog.fresh("Reading") is None


# ----------------------------------------------------------------------
# the ANALYZE statement
# ----------------------------------------------------------------------
class TestAnalyzeStatement:
    def test_analyze_statement_bumps_stats_version(self):
        database = skewed_database(n=50)
        connection = connect(database)
        before = database.versions.stats
        result = connection.execute("ANALYZE")
        assert result.rowcount == 1  # one class analyzed
        assert database.versions.stats == before + 1
        assert "Reading" in result.statement_report

    def test_analyze_single_class_and_unknown_class(self):
        database = generate_document_database(n_documents=2)
        connection = connect(database)
        result = connection.execute("ANALYZE Paragraph")
        assert result.rowcount == 1
        assert database.stats_catalog.fresh("Paragraph") is not None
        assert database.stats_catalog.fresh("Document") is None
        with pytest.raises(VQLAnalysisError):
            connection.execute("ANALYZE Nonsense")

    def test_analyze_evicts_cached_plans(self):
        database = skewed_database(n=50)
        connection = connect(database)
        service = connection.service
        query = "ACCESS r FROM r IN Reading WHERE r.score >= 100"
        connection.execute(query).fetchall()
        connection.execute(query).fetchall()
        hits_before = service.cache.statistics.hits
        assert hits_before >= 1
        connection.execute("ANALYZE")
        connection.execute(query).fetchall()
        assert service.cache.statistics.invalidations >= 1
        # and the re-prepared plan is served again afterwards
        connection.execute(query).fetchall()
        assert service.cache.statistics.hits > hits_before

    def test_statement_report_is_reserved_for_reports(self):
        database = skewed_database(n=10)
        connection = connect(database)
        cursor = connection.cursor()
        cursor.execute("CREATE INDEX ON Reading(category)")
        assert cursor.statement_report is None  # DDL echo is not a report
        cursor.execute("ANALYZE Reading")
        assert "Reading" in cursor.statement_report
        cursor.execute("INSERT INTO Reading (category, score) "
                       "VALUES ('x', 1)")
        assert cursor.statement_report is None

    def test_analyze_through_session(self):
        database = skewed_database(n=30)
        session = open_session(database)
        result = session.execute("ANALYZE Reading")
        assert result.kind == "analyze"
        assert database.stats_catalog.fresh("Reading") is not None


# ----------------------------------------------------------------------
# cost model integration
# ----------------------------------------------------------------------
class TestInformedCostModel:
    def test_defaults_without_statistics(self):
        database = skewed_database(n=100)
        model = CostModel(database.schema, database)
        from repro.vql.parser import parse_expression
        condition = parse_expression("r.category == 'common'")
        assert model.condition_selectivity(condition, 100.0) == \
            model.EQUALITY_SELECTIVITY

    def test_statistics_drive_filter_selectivity(self):
        database = skewed_database(n=1000)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, Filter
        from repro.vql.parser import parse_expression
        scan = ClassScan("r", "Reading")
        common = Filter(parse_expression("r.category == 'common'"), scan)
        rare = Filter(parse_expression("r.category == 'rare0'"), scan)
        common_card = model.estimate(common).cardinality
        rare_card = model.estimate(rare).cardinality
        assert common_card > 800
        assert rare_card < 50

    def test_histogram_prices_range_predicates(self):
        database = skewed_database(n=1000)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, Filter
        from repro.vql.parser import parse_expression
        scan = ClassScan("r", "Reading")
        narrow = Filter(parse_expression("r.score >= 9900"), scan)
        wide = Filter(parse_expression("r.score >= 100"), scan)
        assert model.estimate(narrow).cardinality < 50
        assert model.estimate(wide).cardinality > 900

    def test_skew_flips_the_chosen_access_path(self):
        database = skewed_database(n=2000)
        database.create_hash_index("Reading", "category")
        database.create_sorted_index("Reading", "score")
        session = open_session(database)
        query = ("ACCESS r FROM r IN Reading "
                 "WHERE r.category == 'common' AND r.score >= 9900")
        flat_plan = session.optimize(query).best_plan
        database.analyze()
        informed_plan = session.optimize(query).best_plan

        def leaf(plan):
            node = plan
            while node.inputs():
                node = node.inputs()[0]
            return node.name

        assert leaf(flat_plan) == "index_eq_scan"
        assert leaf(informed_plan) == "index_range_scan"

        def rows_and_work(plan, profile=None):
            before = database.work_snapshot()
            rows = execute_plan(plan, database, profile=profile)
            after = database.work_snapshot()
            work = sum(after[key] - before[key]
                       for key in ("property_reads", "index_lookups"))
            return {row["r"] for row in rows}, work

        # differential: both plans agree on the result, and the informed
        # one reads the ~1% score range instead of the 90% category bucket
        profile = PlanProfile()
        flat_rows, flat_work = rows_and_work(flat_plan)
        informed_rows, informed_work = rows_and_work(informed_plan, profile)
        assert flat_rows == informed_rows
        assert flat_work >= 2 * informed_work
        # with fresh statistics every operator's estimate is within 10x
        comparisons = estimated_vs_actual(informed_plan, profile,
                                          session.optimizer.cost_model)
        assert comparisons
        assert max(record["ratio"] for record in comparisons) <= 10.0

    def test_calibrated_method_cost_feeds_the_model(self):
        database = skewed_database(n=30, with_methods=True)
        model = CostModel(database.schema, database)
        annotated = model.method_cost("slow_score")
        database.analyze()
        measured = model.method_cost("slow_score")
        # the annotation said 1.0 (default); the measurement sees the sleep
        assert annotated == 1.0
        assert measured > 10.0
        assert model.method_cost("fast_score") < measured

    def test_stale_statistics_fall_back_to_defaults(self):
        database = skewed_database(n=100)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, Filter
        from repro.vql.parser import parse_expression
        plan = Filter(parse_expression("r.category == 'common'"),
                      ClassScan("r", "Reading"))
        informed = model.estimate(plan).cardinality
        for i in range(60):
            database.create("Reading", category="shift", score=i)
        fallback_model = CostModel(database.schema, database)
        stale = fallback_model.estimate(plan).cardinality
        assert informed > 80
        # back on the flat default: extension(160) * EQUALITY_SELECTIVITY
        assert stale == pytest.approx(160 * CostModel.EQUALITY_SELECTIVITY)


class TestJoinAndDistinctEstimates:
    """Join fan-out through key columns and paths, and a projection's
    distinct count, held to the rows the engine produces."""

    @staticmethod
    def profiled(plan, database, model):
        profile = PlanProfile()
        rows = execute_plan(plan, database, profile=profile)
        return rows, estimated_vs_actual(plan, profile, model)

    def test_hot_key_join_is_priced_by_most_common_values(self):
        database = skewed_database(n=150)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, HashJoin
        from repro.vql.parser import parse_expression
        plan = HashJoin(parse_expression("r.category"),
                        parse_expression("s.category"),
                        ClassScan("r", "Reading"), ClassScan("s", "Reading"))
        _, (join, _, _) = self.profiled(plan, database, model)
        # NDV containment alone predicts 150 * 150 / 10 = 2 250 rows; the
        # 90 % hot key makes it ≈17 000, which only the MCVs see
        stats = model.property_statistics("Reading", "category")
        assert stats.most_common
        assert join["estimated_rows"] > 5 * 150 * 150 / stats.distinct
        assert join["ratio"] <= 1.5

    def test_path_key_join_is_priced_by_its_last_hop(self):
        database = generate_document_database(n_documents=10)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, HashJoin
        from repro.vql.parser import parse_expression
        plan = HashJoin(parse_expression("p.section.document"),
                        parse_expression("q.section.document"),
                        ClassScan("p", "Paragraph"), ClassScan("q", "Paragraph"))
        rows, records = self.profiled(plan, database, model)
        assert len(rows) == 10 * 20 * 20  # 20 paragraphs per document
        assert max(record["ratio"] for record in records) <= 1.5
        identity = model.join_key_identity(plan.left_key, plan.left)
        assert identity == ColumnIdentity(("section", "document"),
                                          ("Paragraph", "Section"))
        assert (identity.scanned, identity.owner, identity.prop) == (
            "Paragraph", "Section", "document")
        # the path's feedback key is its own, not that of a direct
        # Section.document join
        direct = ColumnIdentity.of("Section", "document")
        assert (model.join_correction_key(identity, identity)
                != model.join_correction_key(direct, direct))
        assert (model.join_correction_key(identity, direct)
                == model.join_correction_key(direct, identity))

    def test_path_join_is_priced_alike_by_every_strategy(self):
        # no statistics: both strategies fall back to 1 / max(rows) over
        # the scanned Paragraph rows, not the Section rows the path ends in
        database = generate_document_database(n_documents=10)
        model = CostModel(database.schema, database)
        from repro.physical.plans import ClassScan, HashJoin, NestedLoopJoin
        from repro.vql.parser import parse_expression
        p, q = ClassScan("p", "Paragraph"), ClassScan("q", "Paragraph")
        hashed = HashJoin(parse_expression("p.section.document"),
                          parse_expression("q.section.document"), p, q)
        looped = NestedLoopJoin(parse_expression(
            "p.section.document == q.section.document"), p, q)
        assert model.estimate(looped).cardinality == pytest.approx(
            model.estimate(hashed).cardinality)

    def test_analyzing_the_scanned_class_drops_a_path_join_correction(self):
        database = generate_document_database(n_documents=4)
        database.analyze()
        catalog = database.stats_catalog
        model = CostModel(database.schema, database)
        path = ColumnIdentity(("section", "document"), ("Paragraph", "Section"))
        key = model.join_correction_key(path, path)
        for analyzed in ("Paragraph", "Section"):
            assert catalog.record_join_correction(key, 0.5, 0.01)
            assert model.join_selectivity(path, path, 80, 80) == 0.5
            database.analyze(analyzed)
            assert catalog.join_correction(key) is None
        # a class the path does not read keeps it
        assert catalog.record_join_correction(key, 0.5, 0.01)
        database.analyze("Document")
        assert catalog.join_correction(key) == 0.5

    def test_projection_counts_distinct_kept_values(self):
        database = generate_document_database(n_documents=10)
        database.analyze()
        model = CostModel(database.schema, database)
        from repro.physical.plans import (ClassScan, Filter, MapEval,
                                          ProjectOp)
        from repro.vql.parser import parse_expression
        scan = ClassScan("p", "Paragraph")
        numbers = ProjectOp(("n",), MapEval(
            "n", parse_expression("[a: p.number, b: p.section.document]"),
            scan))
        bound = ProjectOp(("n",), MapEval(
            "n", parse_expression("[a: p.number, b: p.section.document]"),
            Filter(parse_expression("p.number == :k"), scan)))
        objects = ProjectOp(("p",), scan)
        # 5 numbers x 10 documents; the bound number counts once; an object
        # column has no count below its rows
        assert model.estimate(numbers).cardinality == 50
        assert model.estimate(bound).cardinality == 10
        assert model.estimate(objects).cardinality == 200


class TestEveryOperatorIsPriced:
    """The cost model has no default for an operator it does not know: an
    operator added without an estimate fails here, not by a guess."""

    @staticmethod
    def minimal_instances() -> dict:
        from repro.physical import plans
        from repro.vql.parser import parse_expression
        scan = plans.ClassScan("p", "Paragraph")
        other = plans.ClassScan("q", "Paragraph")
        key = parse_expression("p.number")
        return {
            plans.ClassScan: scan,
            plans.IndexEqScan: plans.IndexEqScan("p", "Paragraph", "number", 1),
            plans.IndexRangeScan: plans.IndexRangeScan(
                "p", "Paragraph", "number", 1, 3, True, False),
            plans.ExpressionSetScan: plans.ExpressionSetScan(
                "p", parse_expression("{1, 2}")),
            plans.Filter: plans.Filter(parse_expression("p.number == 1"), scan),
            plans.SetProbeFilter: plans.SetProbeFilter(
                "p", parse_expression("{1, 2}"), scan),
            plans.NestedLoopJoin: plans.NestedLoopJoin(
                parse_expression("p.number == q.number"), scan, other),
            plans.IndexNestedLoopJoin: plans.IndexNestedLoopJoin(
                key, "q", "Paragraph", "number", scan),
            plans.HashJoin: plans.HashJoin(
                key, parse_expression("q.number"), scan, other),
            plans.NaturalMergeJoin: plans.NaturalMergeJoin(scan, scan),
            plans.MapEval: plans.MapEval("n", key, scan),
            plans.FlattenEval: plans.FlattenEval(
                "s", parse_expression("p.section"), scan),
            plans.ProjectOp: plans.ProjectOp(("p",), scan),
            plans.UnionOp: plans.UnionOp(scan, scan),
            plans.DiffOp: plans.DiffOp(scan, scan),
        }

    def test_every_concrete_operator_has_an_estimate(self):
        from repro.physical import plans
        database = generate_document_database(n_documents=2)
        model = CostModel(database.schema, database)
        concrete = {cls for name in plans.__all__
                    if isinstance(cls := getattr(plans, name), type)
                    and issubclass(cls, plans.PhysicalOperator)
                    and cls is not plans.PhysicalOperator}
        instances = self.minimal_instances()
        assert set(instances) == concrete
        for operator in instances.values():
            estimate = model.estimate(operator)
            assert estimate.cost >= 0 and estimate.cardinality >= 0

    def test_an_unknown_operator_is_an_error(self):
        from repro.physical.plans import ClassScan, PhysicalOperator

        class Unpriced(PhysicalOperator):
            name = "unpriced"

            def inputs(self):
                return (ClassScan("p", "Paragraph"),)

        model = CostModel(generate_document_database(n_documents=1).schema)
        with pytest.raises(TypeError, match="Unpriced"):
            model.estimate(Unpriced())


# ----------------------------------------------------------------------
# the service's one index-DDL entry point
# ----------------------------------------------------------------------
class TestServiceIndexDdl:
    def test_generic_entry_point_does_not_warn(self, recwarn):
        database = skewed_database(n=10)
        from repro import open_service
        service = open_service(database)
        service.create_index("Reading", "category", kind="hash")
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
