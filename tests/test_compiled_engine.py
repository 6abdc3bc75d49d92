"""Tests for the compiled pipelined engine, the expression compiler and the
index access paths (IndexEqScan / IndexRangeScan selection and execution)."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Parameter,
    PatternVar,
    UnaryOp,
    Var,
)
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, MethodDef, PropertyDef, Schema
from repro.datamodel.types import ANY, INT, STRING, object_type, set_of
from repro.errors import ExecutionError, ObjectNotFoundError
from repro.physical.batch import Batch
from repro.physical.compiler import ExpressionCompiler
from repro.physical.evaluator import evaluate
from repro.physical.executor import execute_plan, prepare_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    IndexEqScan,
    IndexRangeScan,
    MapEval,
    NaturalMergeJoin,
    ProjectOp,
    UnionOp,
    walk_physical,
)
from repro.session import Session
from repro.telemetry.spans import Tracer
from repro.vql.parser import parse_expression
from repro.workloads import (
    TARGET_TITLE,
    document_knowledge,
    document_workload,
    generate_document_database,
)


# ----------------------------------------------------------------------
# expression compiler
# ----------------------------------------------------------------------
def on_row(compiled, row):
    """A compiled (column) expression's value for the one-row batch *row*."""
    values = compiled(Batch(1, {name: [value] for name, value in row.items()}))
    assert len(values) == 1
    return values[0]


class TestExpressionCompiler:
    @pytest.mark.parametrize("text,row", [
        ("1 + 2 * 3", {}),
        ("x - 1", {"x": 3}),
        ("-x", {"x": 3}),
        ("1 == 1", {}),
        ("x < 3", {"x": None}),
        ("'a' == 'a'", {}),
        ("TRUE AND FALSE", {}),
        ("NOT TRUE", {}),
        ("x IS-IN s", {"x": 1, "s": {1, 2}}),
        ("x IS-IN s", {"x": 5, "s": None}),
    ])
    def test_compiled_agrees_with_interpreter(self, doc_database, text, row):
        expression = parse_expression(text)
        compiled = ExpressionCompiler(doc_database).compile(expression)
        assert on_row(compiled, row) == evaluate(expression, row, doc_database)

    def test_property_and_method_access(self, doc_database):
        paragraph = doc_database.extension("Paragraph")[0]
        row = {"p": paragraph}
        for text in ("p.number", "p.content", "p->document()",
                     "(p->document()).title"):
            expression = parse_expression(text)
            compiled = ExpressionCompiler(doc_database).compile(expression)
            assert on_row(compiled, row) == evaluate(expression, row, doc_database)

    def test_lifted_access_over_sets(self, doc_database):
        document = doc_database.extension("Document")[0]
        row = {"d": document}
        expression = parse_expression("d.sections.paragraphs")
        compiled = ExpressionCompiler(doc_database).compile(expression)
        assert on_row(compiled, row) == evaluate(expression, row, doc_database)

    def test_constant_subexpressions_are_hoisted(self, doc_database):
        compiled = ExpressionCompiler(doc_database).compile(
            parse_expression("1 + 2 * 3"))
        assert compiled.constant_value == 7
        assert on_row(compiled, {}) == 7

    def test_failing_pure_expression_raises_at_evaluation(self, doc_database):
        expression = parse_expression("1 / 0")
        # Compilation must not raise; evaluation fails like the interpreter.
        compiled = ExpressionCompiler(doc_database).compile(expression)
        with pytest.raises(ZeroDivisionError):
            on_row(compiled, {})

    def test_membership_against_constant_collection(self, doc_database):
        expression = BinaryOp("IS-IN", Var("x"), Const([1, 2, 3]))
        compiled = ExpressionCompiler(doc_database).compile(expression)
        assert on_row(compiled, {"x": 2}) is True
        assert on_row(compiled, {"x": 9}) is False

    def test_unbound_reference_raises(self, doc_database):
        compiled = ExpressionCompiler(doc_database).compile(Var("missing"))
        with pytest.raises(ExecutionError):
            on_row(compiled, {})

    @pytest.mark.parametrize("expression,row", [
        # unknown operators and unbound parameters fail at evaluation, not
        # at compile time, like the interpreter
        (BinaryOp("%", Var("x"), Const(2)), {"x": 5}),
        (UnaryOp("~", Var("x")), {"x": 5}),
        (Parameter("k"), {}),
        (PatternVar("?a"), {}),
        # IS-IN a constant list: unhashable members, unhashable probes
        (BinaryOp("IS-IN", Var("x"), Const([[1], 2])), {"x": [1]}),
        (BinaryOp("IS-IN", Var("x"), Const([1, 2])), {"x": [1]}),
        (BinaryOp("IS-IN", Var("x"), Const([1, 2])), {"x": 2}),
    ], ids=["binary", "unary", "parameter", "pattern-var", "unhashable-list",
            "unhashable-probe", "hashable-probe"])
    def test_failures_and_fallbacks_match_interpreter(self, doc_database,
                                                      expression, row):
        batch = Batch(1, {name: [value] for name, value in row.items()})
        assert _column_outcome(doc_database, expression, batch, "compiled") \
            == _column_outcome(doc_database, expression, batch, "interpreted")

    def test_a_class_method_without_arguments(self):
        schema = Schema("one")
        node = ClassDef("Node")
        node.add_method(MethodDef(name="count", return_type=INT,
                                  class_level=True,
                                  implementation=lambda ctx, receiver: 13))
        schema.add_class(node)
        database = Database(schema)
        expression = ClassMethodCall("Node", "count", ())
        batch = Batch(3, {"x": [1, 2, 3]})
        assert _column_outcome(database, expression, batch, "compiled") \
            == _column_outcome(database, expression, batch, "interpreted") \
            == ([13, 13, 13], database.work_snapshot())

    def test_compiled_work_counters_match_interpreter(self, doc_database):
        expression = parse_expression("(p->document()).title")
        paragraph = doc_database.extension("Paragraph")[0]
        row = {"p": paragraph}

        doc_database.reset_statistics()
        evaluate(expression, row, doc_database)
        interpreted = doc_database.work_snapshot()

        doc_database.reset_statistics()
        on_row(ExpressionCompiler(doc_database).compile(expression), row)
        compiled = doc_database.work_snapshot()

        assert compiled == interpreted


def _column_outcome(database, expression, batch, engine):
    """Values (or the error class) and work of one column evaluation."""
    database.reset_statistics()
    try:
        if engine == "compiled":
            values = ExpressionCompiler(database).compile(expression)(batch)
        else:
            values = [evaluate(expression, row, database) for row in batch.rows()]
    except Exception as exc:  # noqa: BLE001 - the class is compared
        # the work of a failed evaluation is not part of the contract
        return type(exc), None
    return values, database.work_snapshot()


class TestSetValuedHops:
    """A property read over a column of OID sets reads all their members
    in one batch; the interpreter reads member by member.  Values, errors
    and work counters must be the same, also for NULL receivers, NULL and
    non-object members, and dangling members."""

    @pytest.fixture()
    def database(self):
        schema = Schema("sets")
        node = ClassDef("Node")
        node.add_property(PropertyDef("n", INT))
        node.add_property(PropertyDef("kids", set_of(object_type("Node")),
                                      target_class="Node"))
        node.add_property(PropertyDef("bag", set_of(ANY)))
        node.add_method(MethodDef(
            name="size", return_type=INT,
            implementation=lambda ctx, receiver: len(
                ctx.value(receiver, "kids") or ())))
        schema.add_class(node)
        database = Database(schema)
        leaves = database.create_many("Node", [{"n": n} for n in range(6)])
        database.create_many("Node", [
            {"n": 10, "kids": set(leaves[:3]), "bag": {leaves[0], None}},
            {"n": 11, "kids": set(leaves[2:]), "bag": {leaves[1], 7}},
            {"n": 12, "kids": set(), "bag": set()},
            {"n": 13}])
        return database

    @pytest.mark.parametrize("text", ["x.kids.n", "x.kids.kids", "x.bag.n",
                                      "x.kids IS-IN x.kids"])
    def test_values_and_work_match_the_interpreter(self, database, text):
        expression = parse_expression(text)
        objects = database.extension("Node")
        columns = [
            [{*objects[6:8]}, None, set(), objects[0]],   # OIDs, NULL, empty
            [set(objects[:6])] * 3,                       # only sets
        ]
        if text.startswith("x.bag"):
            columns.append([{objects[0], None}, {objects[1]}])
        for column in columns:
            batch = Batch(len(column), {"x": column})
            assert _column_outcome(database, expression, batch, "compiled") \
                == _column_outcome(database, expression, batch, "interpreted")

    @pytest.mark.parametrize("text", [
        "x.kids UNION x.bag", "x.kids INTERSECTION x.bag",
        "x.kids DIFFERENCE x.bag", "x.n", "x.kids.n", "x->size()",
        "x.kids->size()"])
    def test_rarer_shapes_match_the_interpreter(self, database, text):
        """Set operators over columns, and reads and calls over columns
        mixing objects, sets (with NULL members), NULL and non-objects."""
        expression = parse_expression(text)
        objects = database.extension("Node")
        columns = [
            [objects[6], objects[7], objects[9]],
            [objects[0], {objects[1], None}, None, objects[6]],
            [{objects[2], objects[3]}, None],
            [objects[0], 5],
            [None, "text"],
        ]
        for column in columns:
            batch = Batch(len(column), {"x": column})
            assert _column_outcome(database, expression, batch, "compiled") \
                == _column_outcome(database, expression, batch, "interpreted")

    def test_a_dangling_member_beside_objects_fails_like_the_interpreter(
            self, database):
        objects = database.extension("Node")
        database.delete(objects[0])
        expression = parse_expression("x.n")
        for column in ([objects[1], None, {objects[0], objects[2]}],
                       [objects[1], {objects[0], None}]):
            batch = Batch(len(column), {"x": column})
            compiled, _ = _column_outcome(database, expression, batch,
                                          "compiled")
            assert compiled is ObjectNotFoundError
            assert _column_outcome(database, expression, batch,
                                   "interpreted")[0] is compiled

    def test_a_dangling_member_fails_like_the_interpreter(self, database):
        objects = database.extension("Node")
        dangling = objects[0]
        kept = set(objects[1:4]) | {dangling}
        database.delete(dangling)
        expression = parse_expression("x.n")
        batch = Batch(2, {"x": [set(objects[4:6]), kept]})
        compiled, _ = _column_outcome(database, expression, batch, "compiled")
        interpreted, _ = _column_outcome(database, expression, batch,
                                         "interpreted")
        assert compiled is interpreted is ObjectNotFoundError

    def test_class_checks_match_the_interpreter(self, database):
        objects = database.extension("Node")
        database.delete(objects[0])
        column = [objects[0], objects[1], None, 3]
        for text in ("x IS-IN Node", "x.kids INTERSECT Node"):
            expression = BinaryOp(text.split()[1], parse_expression(
                text.split()[0]), ClassExtent("Node"))
            batch = Batch(4, {"x": column if "IS-IN" in text
                              else [objects[6], objects[7], None, None]})
            compiled = _column_outcome(database, expression, batch, "compiled")
            assert compiled == _column_outcome(database, expression, batch,
                                               "interpreted")
            assert compiled[1]["extension_scans"] == 0


# ----------------------------------------------------------------------
# pipelined executor vs the reference interpreter
# ----------------------------------------------------------------------
class TestPipelinedExecutor:
    def test_workload_queries_agree_with_interpreter(self, doc_session):
        for query in document_workload():
            translation = doc_session.translate(query.text)
            for plan in (naive_implementation(translation.plan),
                         doc_session.optimizer.optimize(translation.plan).best_plan):
                compiled = execute_plan(plan, doc_session.database)
                interpreted = execute_plan_interpreted(plan, doc_session.database)
                assert compiled == interpreted, query.name

    @pytest.mark.parametrize("optimize", [False, True],
                             ids=["naive", "optimized"])
    @pytest.mark.parametrize("query", document_workload(),
                             ids=lambda query: query.name)
    def test_work_counters_agree_with_interpreter(self, doc_session, query,
                                                  optimize):
        translation = doc_session.translate(query.text)
        plan = (doc_session.optimizer.optimize(translation.plan).best_plan
                if optimize else naive_implementation(translation.plan))
        database = doc_session.database

        def counted(engine):
            database.reset_statistics()
            engine(plan, database)
            return database.work_snapshot()

        assert counted(execute_plan) == counted(execute_plan_interpreted)

    @pytest.mark.parametrize("shape", [
        "cross-natural-join", "no-columns", "union-no-columns",
        "diff-no-columns", "diff-duplicates"])
    def test_degenerate_shapes_agree_with_interpreter(self, doc_database,
                                                      shape):
        """Natural joins without a common reference, and projections,
        unions and differences of rows without columns: both engines
        return the same rows and charge the same work."""
        sections = ClassScan("s", "Section")
        documents = ClassScan("d", "Document")
        nothing = ProjectOp((), sections)
        none = ProjectOp((), Filter(Const(False), sections))
        plan = {
            "cross-natural-join": NaturalMergeJoin(documents, sections),
            "no-columns": nothing,
            "union-no-columns": UnionOp(nothing, none),
            "diff-no-columns": DiffOp(nothing, none),
            "diff-duplicates": DiffOp(
                MapEval("n", parse_expression("s.number"), sections),
                Filter(parse_expression("s.number == 1"),
                       MapEval("n", parse_expression("s.number"),
                               sections))),
        }[shape]

        def counted(engine):
            doc_database.reset_statistics()
            rows = engine(plan, doc_database)
            return rows, doc_database.work_snapshot()

        compiled = counted(execute_plan)
        assert compiled[0]
        assert compiled == counted(execute_plan_interpreted)

    def test_a_scan_of_null_fails_in_both_engines(self, doc_database):
        plan = ExpressionSetScan("x", Const(None))
        with pytest.raises(ExecutionError, match="None instead of a set"):
            execute_plan_interpreted(plan, doc_database)
        with pytest.raises(ExecutionError, match="None instead of a set"):
            execute_plan(plan, doc_database)

    def test_a_traced_interpreter_run_annotates_its_span(self, doc_database):
        tracer = Tracer(enabled=True)
        with tracer.span("statement"):
            rows = execute_plan_interpreted(ClassScan("d", "Document"),
                                            doc_database)
        (root,) = tracer.recent()
        assert root.find("execute").attributes == {"engine": "interpreter",
                                                   "rows": len(rows)}

    def test_unknown_operator_raises(self, doc_database):
        class Bogus:
            pass

        with pytest.raises(ExecutionError):
            execute_plan(Bogus(), doc_database)


# ----------------------------------------------------------------------
# index access paths: execution
# ----------------------------------------------------------------------
class TestIndexScanExecution:
    def test_index_eq_scan_matches_filter(self, doc_database):
        scan = IndexEqScan("d", "Document", "title", TARGET_TITLE)
        condition = parse_expression(f"d.title == '{TARGET_TITLE}'")
        filtered = Filter(condition, ClassScan("d", "Document"))
        via_index = execute_plan(scan, doc_database)
        via_filter = execute_plan(filtered, doc_database)
        assert via_index
        assert {row["d"] for row in via_index} == {row["d"] for row in via_filter}
        # both engines agree on the new operator
        assert execute_plan_interpreted(scan, doc_database) == via_index

    def test_index_eq_scan_without_index_raises(self, doc_database):
        scan = IndexEqScan("p", "Paragraph", "number", 1)
        with pytest.raises(ExecutionError):
            execute_plan(scan, doc_database)

    def test_index_range_scan_matches_filter(self):
        database = generate_document_database(n_documents=3)
        database.create_sorted_index("Paragraph", "number")
        scan = IndexRangeScan("p", "Paragraph", "number", low=2, high=4,
                              include_low=True, include_high=False)
        condition = parse_expression("p.number >= 2 AND p.number < 4")
        filtered = Filter(condition, ClassScan("p", "Paragraph"))
        via_index = execute_plan(scan, database)
        via_filter = execute_plan(filtered, database)
        assert via_index
        assert {row["p"] for row in via_index} == {row["p"] for row in via_filter}
        assert execute_plan_interpreted(scan, database) == via_index

    def test_index_range_scan_requires_sorted_index(self):
        database = generate_document_database(n_documents=2)
        # Document.title has a *hash* index; range scans must reject it.
        scan = IndexRangeScan("d", "Document", "title", low="A")
        with pytest.raises(ExecutionError):
            execute_plan(scan, database)

    def test_index_covers_objects_created_after_index(self):
        schema = Schema("tiny")
        item = ClassDef("Item")
        item.add_property(PropertyDef("name", STRING))
        item.add_property(PropertyDef("size", INT))
        schema.add_class(item)
        database = Database(schema)
        database.create(  # indexed at backfill time
            "Item", name="early", size=1)
        database.create_hash_index("Item", "name")
        late = database.create("Item", name="late", size=2)

        rows = execute_plan(IndexEqScan("i", "Item", "name", "late"), database)
        assert [row["i"] for row in rows] == [late]

    def test_none_values_are_not_indexed(self):
        """Creating/updating objects with None values must not crash sorted
        indexes (None is unorderable) and None never matches an index scan,
        mirroring the evaluator's None comparison semantics."""
        schema = Schema("tiny")
        base = ClassDef("Base")
        base.add_property(PropertyDef("n", INT))
        schema.add_class(base)
        sub = ClassDef("Sub", superclass="Base")
        schema.add_class(sub)
        database = Database(schema)
        kept = database.create("Base", n=5)
        database.create_sorted_index("Base", "n")

        # a subclass instance with an explicit None reaches the ancestor
        # index's maintenance path — it must be skipped, not inserted
        none_sub = database.create("Sub", n=None)
        rows = execute_plan(IndexRangeScan("b", "Base", "n", low=0), database)
        assert [row["b"] for row in rows] == [kept]

        # transitions: None -> value inserts, value -> None removes
        database.set_value(none_sub, "n", 7)
        rows = execute_plan(IndexRangeScan("b", "Base", "n", low=6), database)
        assert [row["b"] for row in rows] == [none_sub]
        database.set_value(none_sub, "n", None)
        rows = execute_plan(IndexRangeScan("b", "Base", "n", low=6), database)
        assert rows == []

    def test_index_follows_property_updates(self):
        schema = Schema("tiny")
        item = ClassDef("Item")
        item.add_property(PropertyDef("name", STRING))
        schema.add_class(item)
        database = Database(schema)
        oid = database.create("Item", name="before")
        database.create_hash_index("Item", "name")
        database.set_value(oid, "name", "after")

        assert execute_plan(IndexEqScan("i", "Item", "name", "before"),
                            database) == []
        rows = execute_plan(IndexEqScan("i", "Item", "name", "after"), database)
        assert [row["i"] for row in rows] == [oid]


# ----------------------------------------------------------------------
# index access paths: optimizer selection
# ----------------------------------------------------------------------
class TestIndexScanSelection:
    def test_optimizer_selects_index_eq_scan(self, doc_session):
        """Acceptance: an equality filter on an indexed property is
        implemented by an IndexEqScan, not a full scan + filter."""
        result = doc_session.execute(
            f"ACCESS d FROM d IN Document WHERE d.title == '{TARGET_TITLE}'")
        nodes = list(walk_physical(result.physical_plan))
        assert any(isinstance(node, IndexEqScan) for node in nodes)
        assert not any(isinstance(node, ClassScan) for node in nodes)
        assert len(result.rows) == 1

    def test_index_eq_scan_results_match_naive(self, doc_session):
        query = f"ACCESS d FROM d IN Document WHERE d.title == '{TARGET_TITLE}'"
        optimized = doc_session.execute(query)
        naive = doc_session.execute_naive(query)
        assert optimized.value_set() == naive.value_set()

    def test_optimizer_selects_index_range_scan(self):
        database = generate_document_database(n_documents=4)
        database.create_sorted_index("Paragraph", "number")
        session = Session(database,
                          knowledge=document_knowledge(database.schema))
        result = session.execute(
            "ACCESS p FROM p IN Paragraph WHERE p.number >= 2 AND p.number < 4")
        nodes = list(walk_physical(result.physical_plan))
        scans = [node for node in nodes if isinstance(node, IndexRangeScan)]
        assert scans
        assert scans[0].low == 2 and scans[0].include_low
        assert scans[0].high == 4 and not scans[0].include_high
        assert result.value_set() == session.execute_naive(
            "ACCESS p FROM p IN Paragraph WHERE p.number >= 2 AND p.number < 4"
        ).value_set()

    def test_residual_conjuncts_stay_as_filter(self, doc_session):
        query = (f"ACCESS d FROM d IN Document "
                 f"WHERE d.title == '{TARGET_TITLE}' AND d.author != 'nobody'")
        result = doc_session.execute(query)
        nodes = list(walk_physical(result.physical_plan))
        assert any(isinstance(node, IndexEqScan) for node in nodes)
        assert any(isinstance(node, Filter) for node in nodes)
        assert result.value_set() == doc_session.execute_naive(query).value_set()

    def test_no_index_means_no_index_scan(self, doc_session):
        # Paragraph.number has no index in the generated database.
        result = doc_session.optimize(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1")
        nodes = list(walk_physical(result.best_plan))
        assert not any(isinstance(node, (IndexEqScan, IndexRangeScan))
                       for node in nodes)

    def test_index_scan_beats_select_by_index_method(self, doc_session):
        """The direct index access path is cheaper than the method-
        encapsulated lookup (select_by_index), so the optimizer prefers it."""
        result = doc_session.optimize(
            f"ACCESS d FROM d IN Document WHERE d.title == '{TARGET_TITLE}'")
        assert any(isinstance(node, IndexEqScan)
                   for node in walk_physical(result.best_plan))
        assert "index_eq_scan" in result.explain()


# ----------------------------------------------------------------------
# one engine, one oracle: every operator is known to both
# ----------------------------------------------------------------------
class TestOperatorCoverage:
    """An operator added to ``physical/plans.py`` must reach the compiled
    engine's builder table *and* the interpreter — and there is exactly one
    builder table to reach."""

    @staticmethod
    def concrete_operators():
        from repro.physical import plans
        return {cls for cls in vars(plans).values()
                if isinstance(cls, type)
                and issubclass(cls, plans.PhysicalOperator)
                and cls is not plans.PhysicalOperator
                and cls.__module__ == plans.__name__}

    #: the values the samples' bind parameters stand for: the engine runs
    #: a sample under these bindings, the interpreter — which runs on fully
    #: bound plans — the sample with them substituted
    BINDINGS = {"lo": 2, "hi": 4}

    @staticmethod
    def sample_plans():
        from repro.physical import plans as P
        scan_p = P.ClassScan("p", "Paragraph")
        scan_q = P.ClassScan("q", "Paragraph")
        number = parse_expression("p.number")
        ones = P.Filter(parse_expression("p.number == 1"), scan_p)
        join_keys = (number, parse_expression("q.number"))
        return [
            P.IndexRangeScan("p", "Paragraph", "number",
                             low=Parameter("lo"), high=Parameter("hi")),
            scan_p,
            P.IndexEqScan("p", "Paragraph", "number", 1),
            P.IndexRangeScan("p", "Paragraph", "number", low=2, high=4),
            P.ExpressionSetScan("n", parse_expression("{1, 2, 2}")),
            ones,
            P.SetProbeFilter("p", ClassExtent("Paragraph"), scan_p),
            P.NestedLoopJoin(parse_expression("p.number == q.number"),
                             ones, scan_q),
            P.IndexNestedLoopJoin(number, "q", "Paragraph", "number", ones),
            P.HashJoin(*join_keys, ones, scan_q),
            P.NaturalMergeJoin(ones, scan_p),
            P.MapEval("n", number, scan_p),
            P.FlattenEval("s", parse_expression("(p.section).paragraphs"),
                          ones),
            P.ProjectOp(("n",), P.MapEval("n", number, scan_p)),
            P.UnionOp(ones, scan_p),
            P.DiffOp(scan_p, ones),
        ]

    def test_every_operator_has_exactly_one_builder(self):
        from repro.physical.executor import _BUILDERS
        assert set(_BUILDERS) == self.concrete_operators()

    def test_there_is_one_builder_table(self):
        import pathlib
        import repro
        tables = [path for path in pathlib.Path(repro.__file__).parent
                  .rglob("*.py")
                  if any(line.startswith("_BUILDERS")
                         for line in path.read_text().splitlines())]
        assert [path.name for path in tables] == ["executor.py"]

    def test_both_engines_accept_every_operator(self):
        from test_bind_time_access_paths import bind_plan

        database = generate_document_database(n_documents=3)
        database.create_sorted_index("Paragraph", "number")
        samples = self.sample_plans()
        assert {type(plan) for plan in samples} == self.concrete_operators()
        for plan in samples:
            before = database.work_snapshot()
            interpreted = execute_plan_interpreted(
                bind_plan(plan, self.BINDINGS), database)
            between = database.work_snapshot()
            compiled = prepare_plan(plan, database).run(self.BINDINGS)
            after = database.work_snapshot()
            assert compiled == interpreted, plan.describe()
            assert interpreted, plan.describe()  # not vacuous
            # rounded: the cost-unit counters are running float sums
            assert ({key: round(between[key] - before[key], 6)
                     for key in between}
                    == {key: round(after[key] - between[key], 6)
                        for key in after}), plan.describe()

    def test_the_service_import_path_still_resolves(self):
        from repro.physical import executor
        from repro.service.prepared import prepare_plan
        assert prepare_plan is executor.prepare_plan
        executable = prepare_plan(ClassScan("p", "Paragraph"),
                                  generate_document_database(n_documents=1))
        assert executable.run(None) == list(executable.open())
        with executable.binding_scope({"n": 1}):
            pass
