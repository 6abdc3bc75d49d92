"""Tests for the cost model, the search engine, the join-order enumerator,
the optimizer generator and the optimization trace."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Const
from repro.algebra.operators import Get, Join, Project, Select
from repro.errors import OptimizerError
from repro.optimizer.builtin_rules import standard_rules
from repro.optimizer.cost import CostModel
from repro.optimizer.generator import OptimizerGenerator
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.rules import RuleSet
from repro.optimizer.search import Optimizer, OptimizerOptions
from repro.optimizer.statistics import OptimizerStatistics
from repro.optimizer.trace import OptimizationTrace
from repro.physical.executor import execute_plan
from repro.physical.plans import (
    ClassScan,
    ExpressionSetScan,
    Filter,
    HashJoin,
    NestedLoopJoin,
    SetProbeFilter,
    walk_physical,
)
from repro.session import Session
from repro.vql.analyzer import resolve_class_references
from repro.vql.parser import parse_expression

GET_P = Get("p", "Paragraph")
GET_D = Get("d", "Document")


@pytest.fixture()
def cost_model(doc_database):
    return CostModel(doc_database.schema, doc_database)


class TestCostModel:
    def test_class_scan_cardinality_uses_extension_size(self, cost_model,
                                                        doc_database):
        estimate = cost_model.estimate(ClassScan("p", "Paragraph"))
        assert estimate.cardinality == doc_database.extension_size("Paragraph")
        assert estimate.cost > 0

    def test_extension_size_without_database_uses_default(self, doc_schema):
        model = CostModel(doc_schema, database=None)
        assert model.extension_size("Paragraph") == CostModel.DEFAULT_EXTENSION_SIZE

    def test_external_method_filter_is_expensive(self, cost_model, doc_database):
        scan = ClassScan("p", "Paragraph")
        cheap = Filter(parse_expression("p.number == 1"), scan)
        expensive = Filter(parse_expression("p->contains_string('x')"), scan)
        assert cost_model.estimate(expensive).cost > cost_model.estimate(cheap).cost

    def test_expression_set_scan_cheaper_than_external_filter(self, cost_model,
                                                              doc_database):
        member = resolve_class_references(
            parse_expression("Paragraph->retrieve_by_string('x')"),
            doc_database.schema, set())
        scan_all = Filter(parse_expression("p->contains_string('x')"),
                          ClassScan("p", "Paragraph"))
        direct = ExpressionSetScan("p", member)
        assert cost_model.estimate(direct).cost < cost_model.estimate(scan_all).cost

    def test_hash_join_cheaper_than_nested_loop(self, cost_model):
        left = ClassScan("p", "Paragraph")
        right = ClassScan("q", "Paragraph")
        condition = parse_expression("p.section == q.section")
        nested = NestedLoopJoin(condition, left, right)
        hashed = HashJoin(parse_expression("p.section"),
                          parse_expression("q.section"), left, right)
        assert cost_model.estimate(hashed).cost < cost_model.estimate(nested).cost

    def test_filter_selectivity_reduces_cardinality(self, cost_model):
        scan = ClassScan("p", "Paragraph")
        filtered = Filter(parse_expression("p.number == 1"), scan)
        assert cost_model.estimate(filtered).cardinality < \
            cost_model.estimate(scan).cardinality

    def test_conjunction_is_more_selective(self, cost_model):
        scan = ClassScan("p", "Paragraph")
        one = Filter(parse_expression("p.number == 1"), scan)
        two = Filter(parse_expression("p.number == 1 AND p.number == 2"), scan)
        assert cost_model.estimate(two).cardinality < \
            cost_model.estimate(one).cardinality

    def test_property_fanout_measured_from_database(self, cost_model):
        fanout = cost_model.property_fanout("Document", "sections")
        assert fanout == pytest.approx(4.0)
        assert cost_model.property_fanout("Section", "paragraphs") == pytest.approx(5.0)

    def test_method_cost_lookup(self, cost_model):
        assert cost_model.method_cost("contains_string") == 25.0
        assert cost_model.method_cost("unknown_method") == CostModel.DEFAULT_METHOD_COST

    def test_method_result_cardinality_hint(self, cost_model):
        assert cost_model.method_result_cardinality("select_by_index") == 2.0
        assert cost_model.method_result_cardinality("document") == 1.0

    def test_expression_cardinality_of_navigation(self, cost_model, doc_database):
        expr = resolve_class_references(
            parse_expression("Document->select_by_index('t').sections.paragraphs"),
            doc_database.schema, set())
        cardinality = cost_model.expression_cardinality(expr)
        # 2 documents (hint) x 4 sections x 5 paragraphs
        assert cardinality == pytest.approx(40.0)

    def test_selectivity_bounds(self, cost_model):
        condition = parse_expression("p.number == 1 OR p.number == 2")
        assert 0.0 < cost_model.condition_selectivity(condition, 100) <= 1.0
        negated = parse_expression("NOT p.number == 1")
        assert cost_model.condition_selectivity(negated, 100) == pytest.approx(0.95)


class TestOptimizerSearch:
    def optimizer(self, doc_database, rule_set=None, **options):
        return Optimizer(
            schema=doc_database.schema,
            rule_set=rule_set if rule_set is not None else standard_rules(),
            database=doc_database,
            options=OptimizerOptions(**options) if options else None)

    def test_optimizes_simple_select(self, doc_database):
        plan = Project(("p",), Select(parse_expression("p.number == 1"), GET_P))
        result = self.optimizer(doc_database).optimize(plan)
        assert result.best_cost.cost > 0
        assert result.statistics.logical_plans_explored >= 1
        names = [type(node).__name__ for node in walk_physical(result.best_plan)]
        assert names[0] == "ProjectOp"

    def test_raises_without_implementation_rules(self, doc_database):
        empty = RuleSet("empty")
        with pytest.raises(OptimizerError):
            self.optimizer(doc_database, rule_set=empty).optimize(GET_P)

    def test_exploration_cap_sets_truncated_flag(self, doc_database):
        plan = Select(
            parse_expression("p.number == 1 AND p.number == 2 AND p.number == 3"),
            GET_P)
        optimizer = self.optimizer(doc_database, max_logical_plans=2)
        result = optimizer.optimize(plan)
        assert result.statistics.exploration_truncated
        assert result.statistics.logical_plans_explored <= 2

    def test_equi_join_gets_hash_join(self, doc_database):
        plan = Select(parse_expression("p.section.document == d"),
                      Join(Const(True), GET_P, GET_D))
        result = self.optimizer(doc_database).optimize(plan)
        assert any(isinstance(node, HashJoin)
                   for node in walk_physical(result.best_plan))

    def test_memo_shares_subplans(self, doc_database):
        plan = Project(("p",), Select(parse_expression("p.number == 1"), GET_P))
        result = self.optimizer(doc_database).optimize(plan)
        # fewer physical plans costed than (alternatives x nodes) because the
        # best-physical results for shared subtrees are memoized
        assert result.statistics.physical_plans_costed <= \
            result.statistics.logical_plans_explored * 15

    def test_trace_can_be_disabled(self, doc_database):
        plan = Select(parse_expression("p.number == 1"), GET_P)
        optimizer = self.optimizer(doc_database, enable_trace=False)
        result = optimizer.optimize(plan)
        assert len(result.trace) == 0

    def test_explain_mentions_cost_and_plans(self, doc_database):
        plan = Select(parse_expression("p.number == 1"), GET_P)
        result = self.optimizer(doc_database).optimize(plan)
        text = result.explain()
        assert "physical plan" in text
        assert "cost=" in text



class TestEagerDistinct:
    """Example 1's ``sameDocument`` join, narrowed to one paragraph number:
    each input is reduced to its distinct (document, number) pairs before
    the hash join, priced by the path keys' NDVs."""

    QUERY = ("ACCESS [pn: p.number, qn: q.number] "
             "FROM p IN Paragraph, q IN Paragraph "
             "WHERE p->sameDocument(q) AND p.number == 3")

    def test_same_document_joins_distinct_keys_and_estimates_hold(self):
        from repro.physical.profile import PlanProfile, estimated_vs_actual
        from repro.workloads import (document_knowledge,
                                     generate_document_database)
        database = generate_document_database(n_documents=20)
        database.create_hash_index("Paragraph", "number")
        database.analyze()
        knowledge = document_knowledge(database.schema)
        session = Session(database, knowledge=knowledge)
        without = Session(database, knowledge=knowledge)
        rules = without.optimizer.rule_set
        without.optimizer.rule_set = RuleSet(
            "without-eager-distinct",
            [rule for rule in rules.transformations
             if rule.name != "eager-distinct"], rules.implementations)

        def run(plan):
            profile = PlanProfile()
            before = database.work_snapshot()
            rows = execute_plan(plan, database, profile=profile)
            reads = database.work_snapshot()["property_reads"] \
                - before["property_reads"]
            return rows, reads, profile

        eager = session.optimize(self.QUERY).best_plan
        joined = without.optimize(self.QUERY).best_plan
        eager_rows, eager_reads, profile = run(eager)
        joined_rows, joined_reads, _ = run(joined)
        assert any(ref.startswith("#") for node in walk_physical(eager)
                   for ref in node.refs())
        from repro.physical.evaluator import make_hashable
        assert {make_hashable(row["__result"]) for row in eager_rows} \
            == {make_hashable(row["__result"]) for row in joined_rows} \
            == session.execute_naive(self.QUERY).value_set()
        (join,) = [node for node in walk_physical(eager)
                   if isinstance(node, HashJoin)]
        assert profile.counters_for(join).rows == 20 * 5  # documents x qn
        assert eager_reads * 2 < joined_reads
        records = estimated_vs_actual(eager, profile,
                                      session.optimizer.cost_model)
        assert max(record["ratio"] for record in records) <= 2.0

class TestJoinOrderEnumeration:
    STAR_WHERE = ("WHERE o.status == 'urgent' AND o.region == r.name "
                  "AND s.region == r.name AND r.kind == 'rare'")

    def test_star_plan_does_not_depend_on_the_from_order(self, star_database):
        """Order and Shipment relate only through Region, so listing them
        first makes the parse order's first join a cross product, and no
        transformation rule reassociates joins.  The enumerator's seeded
        order must still plan it as well as the hub-first spelling."""
        database = star_database(600, 100, seed=42)
        database.analyze()
        session = Session(database)
        cross_first = session.optimize(
            "ACCESS o FROM o IN Order, s IN Shipment, r IN Region "
            + self.STAR_WHERE)
        hub_first = session.optimize(
            "ACCESS o FROM r IN Region, o IN Order, s IN Shipment "
            + self.STAR_WHERE)
        assert cross_first.join_order is not None

        def rows_and_work(result):
            before = database.work_snapshot()
            rows = execute_plan(result.best_plan, database)
            after = database.work_snapshot()
            work = sum(after[key] - before[key]
                       for key in ("property_reads", "index_lookups"))
            return sorted(row["o"] for row in rows), work

        cross_rows, cross_work = rows_and_work(cross_first)
        hub_rows, hub_work = rows_and_work(hub_first)
        assert cross_rows and cross_rows == hub_rows
        # without the seed the cross-product plan does ≈3.8× the work
        assert cross_work <= 1.1 * hub_work


class TestOptimizerGenerator:
    def test_generated_optimizer_includes_semantic_rules(self, doc_database,
                                                         doc_knowledge):
        generator = OptimizerGenerator(doc_database.schema, doc_knowledge)
        optimizer = generator.generate(database=doc_database)
        structural = generator.generate_without_semantics(database=doc_database)
        assert len(optimizer.rule_set) > len(structural.rule_set)
        assert any("E1" in name for name in optimizer.rule_set.rule_names())

    def test_exclude_tags_removes_rule_groups(self, doc_database, doc_knowledge):
        generator = OptimizerGenerator(doc_database.schema, doc_knowledge)
        without_e5 = generator.generate(
            database=doc_database, exclude_tags=("semantic:query-method",))
        assert not any("E5" in name for name in without_e5.rule_set.rule_names())
        assert any("E1" in name for name in without_e5.rule_set.rule_names())

    def test_generation_without_knowledge(self, doc_database):
        generator = OptimizerGenerator(doc_database.schema,
                                       SchemaKnowledge(doc_database.schema))
        optimizer = generator.generate(database=doc_database)
        assert len(optimizer.rule_set) == len(standard_rules())

    def test_semantic_plan_uses_external_bulk_method(self, doc_database,
                                                     doc_knowledge):
        generator = OptimizerGenerator(doc_database.schema, doc_knowledge)
        optimizer = generator.generate(database=doc_database)
        plan = Project(("p",), Select(
            parse_expression("p->contains_string('Implementation')"), GET_P))
        result = optimizer.optimize(plan)
        nodes = list(walk_physical(result.best_plan))
        assert any(isinstance(node, (ExpressionSetScan, SetProbeFilter))
                   for node in nodes)
        assert not any(isinstance(node, Filter) for node in nodes)


class TestTraceAndStatistics:
    def test_trace_records_and_renders(self):
        trace = OptimizationTrace()
        trace.record_transformation("rule-a", "before", "after", detail="why")
        trace.record_decision("original", "final")
        assert len(trace) == 2
        assert trace.rule_was_applied("rule-a")
        assert not trace.rule_was_applied("rule-z")
        assert len(trace.transformations()) == 1
        assert trace.rules_applied() == ["rule-a"]
        rendered = trace.render()
        assert "rule-a" in rendered and "why" in rendered

    def test_trace_render_with_limit(self):
        trace = OptimizationTrace()
        for index in range(10):
            trace.record_transformation(f"rule-{index}", "x", "y")
        rendered = trace.render(limit=3)
        assert "7 more events" in rendered

    def test_trace_respects_max_events(self):
        trace = OptimizationTrace(max_events=2)
        for index in range(5):
            trace.record_transformation(f"rule-{index}", "x", "y")
        assert len(trace) == 2

    def test_disabled_trace_records_nothing(self):
        trace = OptimizationTrace(enabled=False)
        trace.record_transformation("rule", "x", "y")
        assert len(trace) == 0

    def test_statistics_snapshot_and_rule_counts(self):
        statistics = OptimizerStatistics()
        statistics.record_rule("r1")
        statistics.record_rule("r1")
        statistics.logical_plans_explored = 5
        snapshot = statistics.snapshot()
        assert snapshot["logical_plans_explored"] == 5
        assert statistics.rule_application_counts["r1"] == 2
        assert "plans=5" in str(statistics)


class TestRepeatedConjuncts:
    """AND is idempotent — NULL included — so the analyzer drops repeated
    conjuncts: k copies of one plan like one, through a session and
    through the auto-parameterizing front end."""

    ONE = "ACCESS p FROM p IN Paragraph WHERE p.number >= 1"

    @staticmethod
    def repeated(copies: int, values=None) -> str:
        values = values or [1] * copies
        return "ACCESS p FROM p IN Paragraph WHERE " + " AND ".join(
            f"p.number >= {value}" for value in values)

    @staticmethod
    def explored(report: str) -> int:
        return int(report.split("OptimizerStatistics(plans=")[1].split(",")[0])

    @pytest.mark.parametrize("copies", (2, 3, 5))
    def test_copies_explore_what_one_explores(self, doc_session, copies):
        one = doc_session.optimize(self.ONE).statistics.logical_plans_explored
        many = doc_session.optimize(self.repeated(copies))
        assert many.statistics.logical_plans_explored == one == 1

    @pytest.mark.parametrize("sequence", (
        ((2, 2), (3, 2), (2, 3), (4, 4)),   # first text holds a repeat
        ((3, 2), (2, 2), (4, 4), (2, 3)),   # later texts repeat
        ((0.0, 0), (1, 2.5), (0, 0.0))))    # 0 == 0.0: a repeat too
    def test_the_front_end_plans_copies_like_one(self, sequence,
                                                 token_path_oracle):
        """Through the auto-parameterizing front end: a repeated literal
        conjunct plans like one, and a text matched by its token key
        resolves to what its full parse does, repeat or not."""
        from repro import connect
        from repro.workloads import document_knowledge, generate_document_database

        database = generate_document_database(n_documents=3)
        connection = connect(database,
                             knowledge=document_knowledge(database.schema))
        one = self.explored(connection.explain(self.ONE))
        assert self.explored(connection.explain(self.repeated(5))) == one
        naive = Session(database)
        for values in sequence:
            text = self.repeated(2, values)
            token_path_oracle(connection.service, text)
            assert sorted(connection.execute(text).fetchall()) == \
                sorted(naive.execute_naive(text).values), text
        connection.close()
