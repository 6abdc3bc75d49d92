"""Bind-time access paths: parameterized keys and range bounds in index scans.

The reference semantics are the filter plan's (``class_scan`` + ``filter``,
evaluated by the interpreter): whatever an index plan answers for a key or
bound that is only known at execution — including NULL, crossed and
incomparable bounds — must be what the naive plan answers.  Every case is
run without an index, with a hash index and with a sorted index, planned
for its own bindings and reused from the plan cache after other bindings.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Expression, Parameter, bind_parameters
from repro.algebra.operators import Get, Select
from repro.datamodel.database import Database
from repro.datamodel.schema import (
    ClassDef,
    MethodDef,
    MethodKind,
    PropertyDef,
    Schema,
)
from repro.datamodel.types import BOOL, INT
from repro.optimizer.builtin_rules import _match_index_range
from repro.optimizer.cost import CostModel
from repro.optimizer.rules import RuleContext
from repro.physical.executor import prepare_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.plans import (
    ClassScan,
    Filter,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    walk_physical,
)
from repro.service import QueryService
from repro.vql.parser import parse_expression


# ----------------------------------------------------------------------
# fixtures: class C(k, v) — v is NULL on every third row and repeats
# ----------------------------------------------------------------------
def c_schema() -> Schema:
    schema = Schema("bindtime")
    c = ClassDef("C")
    c.add_property(PropertyDef("k", INT))
    c.add_property(PropertyDef("v", INT))
    # an external method, for residuals that call a method
    c.add_method(MethodDef(
        name="odd", return_type=BOOL, kind=MethodKind.EXTERNAL,
        implementation=lambda ctx, receiver: ctx.value(receiver, "k") % 2 == 1,
        cost_per_call=50.0))
    schema.add_class(c)
    return schema


def c_values(n: int = 30) -> list:
    return [None if k % 3 == 0 else k % 7 for k in range(n)]


def c_database(index: str | None, values=None) -> Database:
    database = Database(c_schema())
    for k, v in enumerate(c_values() if values is None else values):
        database.create("C", k=k, v=v)
    if index == "hash":
        database.create_hash_index("C", "v")
    elif index == "sorted":
        database.create_sorted_index("C", "v")
    return database


def bind_plan(plan, bindings):
    """*plan* with every bind parameter of its own fields and of its inputs
    replaced by the bound constant (what the interpreter, which runs on
    fully bound plans, is given)."""
    changes = {}
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        if isinstance(value, Expression):
            changes[field.name] = bind_parameters(value, bindings)
    if changes:
        plan = dataclasses.replace(plan, **changes)
    if plan.inputs():
        plan = plan.with_inputs([bind_plan(child, bindings)
                                 for child in plan.inputs()])
    return plan


def keys_of(database, rows, ref="c"):
    return [database.value(row[ref], "k") for row in rows]


#: (condition, bindings) — every shape the satellite names
CASES = [
    ("c.v == :x", {"x": None}),
    ("c.v == :x", {"x": 3}),
    ("c.v == :x", {"x": 99}),
    ("c.v >= :lo", {"lo": 2}),
    ("c.v >= :lo", {"lo": None}),
    ("c.v < :hi", {"hi": 4}),
    ("c.v < :hi", {"hi": None}),
    ("c.v >= :lo AND c.v < :hi", {"lo": 2, "hi": 5}),
    ("c.v >= :lo AND c.v < :hi", {"lo": 5, "hi": 2}),       # crossed
    ("c.v >= :lo AND c.v < :hi", {"lo": 3, "hi": 3}),       # empty, touching
    ("c.v >= :lo AND c.v <= :hi", {"lo": 3, "hi": 3}),      # one key
    ("c.v >= :lo AND c.v < :hi", {"lo": None, "hi": 5}),
    ("c.v >= :lo AND c.v < :hi", {"lo": 2, "hi": None}),
    ("c.v >= :lo AND c.v < :hi", {"lo": None, "hi": None}),
    ("c.v > :lo AND c.v <= :hi", {"lo": 1, "hi": 4}),
    (":lo <= c.v AND :hi > c.v", {"lo": 2, "hi": 5}),       # flipped
    ("c.v >= 1 AND c.v < :hi", {"hi": 5}),                  # constant + param
    ("c.v >= :lo AND c.v >= 4 AND c.v < :hi", {"lo": 2, "hi": 6}),
    ("c.v >= :lo AND c.v >= :lo2 AND c.v < :hi",
     {"lo": 2, "lo2": 4, "hi": 6}),                         # two on one side
    ("c.v >= :lo AND c.v >= :lo2 AND c.v < :hi",
     {"lo": 4, "lo2": None, "hi": 6}),                      # NULL in residual
    ("c.v >= :lo AND c.v < :hi AND c->odd()", {"lo": 1, "hi": 6}),
    ("c.v == :x AND c->odd()", {"x": None}),
]


def other_bindings(bindings: dict) -> dict:
    """Bindings of the same names that differ from *bindings* in every
    value and in whether it is NULL."""
    return {name: 3 if value is None else None
            for name, value in bindings.items()}


@pytest.mark.parametrize("planned", ["fresh", "cached"])
@pytest.mark.parametrize("index", [None, "hash", "sorted"])
@pytest.mark.parametrize("condition,bindings", CASES)
def test_parameterized_plan_agrees_with_the_naive_plan(condition, bindings,
                                                       index, planned):
    """``cached``: the plan was chosen and cached while other values (NULL
    where these are not, and the other way round) were bound; reusing it
    for these must still answer what the naive plan answers."""
    database = c_database(index)
    service = QueryService(database)
    text = f"ACCESS c.k FROM c IN C WHERE {condition}"
    if planned == "cached":
        service.execute(text, other_bindings(bindings))
    optimized = service.execute(text, bindings)
    assert optimized.metrics.cache_hit is (planned == "cached")
    naive = service.execute(text, bindings, optimize=False)
    assert sorted(optimized.values) == sorted(naive.values), \
        optimized.plan.physical_plan.describe()
    # the independent oracle on both plans (bound first: it substitutes;
    # result.bindings adds the statement's auto-parameterized literals)
    for result in (optimized, naive):
        plan = bind_plan(result.plan.physical_plan, result.bindings)
        interpreted = execute_plan_interpreted(plan, database)
        assert [row[result.output_ref] for row in interpreted] == result.values


def test_the_null_key_cases_choose_the_index_plans_they_are_about():
    """The matrix above is only worth something if the index plans are
    actually chosen for the parameterized shapes."""
    for index, eq_scan, range_scan in ((None, False, False),
                                       ("hash", True, False),
                                       ("sorted", True, True)):
        service = QueryService(c_database(index))
        eq = service.execute("ACCESS c.k FROM c IN C WHERE c.v == :x",
                             {"x": 1}).plan.physical_plan
        rng = service.execute(
            "ACCESS c.k FROM c IN C WHERE c.v >= :lo AND c.v < :hi",
            {"lo": 1, "hi": 2}).plan.physical_plan
        assert any(isinstance(node, IndexEqScan)
                   for node in walk_physical(eq)) is eq_scan
        assert any(isinstance(node, IndexRangeScan)
                   for node in walk_physical(rng)) is range_scan
    plan = QueryService(c_database("sorted")).execute(
        "ACCESS c.k FROM c IN C WHERE c.v >= :lo AND c.v < :hi AND c->odd()",
        {"lo": 1, "hi": 6}).plan.physical_plan
    scans = [node for node in walk_physical(plan)
             if isinstance(node, IndexRangeScan)]
    assert scans and scans[0].low == Parameter("lo") \
        and scans[0].high == Parameter("hi")


@pytest.mark.parametrize("index", ["hash", "sorted"])
def test_null_key_is_answered_by_an_extension_scan(index):
    """NULLs are never indexed: a key that resolves to NULL is answered by
    the objects whose property is NULL and charged as an extension scan."""
    database = c_database(index)
    expected = [k for k, v in enumerate(c_values()) if v is None]
    scan = IndexEqScan("c", "C", "v", Parameter("x"))
    plans = [scan, Filter(parse_expression("c.k >= 0"), scan)]
    for plan in plans:
        before = database.work_snapshot()
        rows = prepare_plan(plan, database).run({"x": None})
        after = database.work_snapshot()
        assert keys_of(database, rows) == expected
        assert after["extension_scans"] - before["extension_scans"] == 1
        assert after["index_lookups"] - before["index_lookups"] == 0
        assert execute_plan_interpreted(bind_plan(plan, {"x": None}),
                                        database) == rows


@pytest.mark.parametrize("index", ["hash", "sorted"])
def test_null_probe_key_in_an_index_nested_loop_join(index):
    """``a.v == b.v`` holds for two NULLs in the nested-loop reference, so
    the index probe must find the NULL-valued inner objects too."""
    database = c_database(index)
    outer = Filter(parse_expression("a.k < 4"), ClassScan("a", "C"))
    probe = IndexNestedLoopJoin(parse_expression("a.v"), "b", "C", "v", outer)
    rows = prepare_plan(probe, database).run()
    values = c_values()
    expected = [(a, b) for a in range(4) for b in range(len(values))
                if values[a] == values[b]]
    assert [(database.value(row["a"], "k"), database.value(row["b"], "k"))
            for row in rows] == expected
    assert execute_plan_interpreted(probe, database) == rows


@pytest.mark.parametrize("residual", [False, True])
def test_null_and_crossed_bounds_yield_no_rows_and_touch_no_object(residual):
    database = c_database("sorted")
    plan = IndexRangeScan("c", "C", "v", Parameter("lo"), Parameter("hi"),
                          True, False)
    if residual:
        plan = Filter(parse_expression("c.k >= 0"), plan)
    executable = prepare_plan(plan, database)
    for bindings in ({"lo": None, "hi": 5}, {"lo": 1, "hi": None},
                     {"lo": None, "hi": None}, {"lo": 5, "hi": 1}):
        before = database.work_snapshot()
        assert executable.run(bindings) == []
        after = database.work_snapshot()
        assert after["extension_scans"] == before["extension_scans"]
        assert after["property_reads"] == before["property_reads"]
        assert execute_plan_interpreted(bind_plan(plan, bindings),
                                        database) == []
    # an absent side stays open-ended
    open_ended = IndexRangeScan("c", "C", "v", low=Parameter("lo"))
    rows = prepare_plan(open_ended, database).run({"lo": 5})
    assert keys_of(database, rows) == [k for k, v in enumerate(c_values())
                                       if v is not None and v >= 5]


def test_incomparable_bound_raises_what_the_filter_plan_raises():
    text = "ACCESS c.k FROM c IN C WHERE c.v >= :lo"
    errors = []
    for index in (None, "sorted"):
        service = QueryService(c_database(index))
        with pytest.raises(TypeError) as raised:
            service.execute(text, {"lo": "seven"})
        errors.append(type(raised.value))
    assert errors[0] is errors[1]


def test_unbound_range_parameter_raises_like_every_unbound_parameter():
    from repro.errors import ExecutionError
    database = c_database("sorted")
    plan = IndexRangeScan("c", "C", "v", low=Parameter("lo"))
    with pytest.raises(ExecutionError, match=":lo"):
        prepare_plan(plan, database).run()
    with pytest.raises(ExecutionError, match=":lo"):
        execute_plan_interpreted(plan, database)


# ----------------------------------------------------------------------
# the rule: one bound per side, the rest stays residual
# ----------------------------------------------------------------------
def match_range(condition: str, database):
    plan = Select(parse_expression(condition), Get("c", "C"))
    context = RuleContext(schema=database.schema, database=database)
    return _match_index_range(plan, context)


class TestRangeRule:
    def test_parameter_bounds_reach_the_scan(self):
        _, prop, low, high, include_low, include_high, rest = match_range(
            "c.v >= :lo AND c.v < :hi", c_database("sorted"))
        assert (prop, low, high) == ("v", Parameter("lo"), Parameter("hi"))
        assert include_low and not include_high
        assert rest is None

    def test_constants_on_one_side_still_merge_at_plan_time(self):
        _, _, low, high, include_low, _, rest = match_range(
            "c.v >= 2 AND c.v > 4 AND c.v >= 3 AND c.v < :hi",
            c_database("sorted"))
        assert (low, include_low, high) == (4, False, Parameter("hi"))
        assert rest is None

    @pytest.mark.parametrize("condition,low,residual", [
        ("c.v >= :a AND c.v >= :b", Parameter("a"), "(c.v >= :b)"),
        ("c.v >= :a AND c.v >= 3", Parameter("a"), "(c.v >= 3)"),
        ("c.v >= 3 AND c.v >= :a", 3, "(c.v >= :a)"),
        # constants keep merging with each other around a parameter
        ("c.v >= 3 AND c.v >= :a AND c.v >= 5", 5, "(c.v >= :a)"),
        ("c.v >= :a AND c.v >= 3 AND c.v >= 5", Parameter("a"),
         "((c.v >= 3) AND (c.v >= 5))"),
    ])
    def test_a_side_holds_one_bound_when_a_parameter_is_involved(
            self, condition, low, residual):
        match = match_range(condition, c_database("sorted"))
        assert match[2] == low and match[3] is None
        assert str(match[6]) == residual

    def test_needs_a_sorted_index(self):
        assert match_range("c.v >= :lo", c_database("hash")) is None
        assert match_range("c.v >= :lo", c_database(None)) is None

    def test_describe_renders_parameters_as_the_select_does(self):
        scan = IndexRangeScan("c", "Customer", "since", Parameter("lo"),
                              Parameter("hi"), True, False)
        assert scan.describe() == \
            "index_range_scan<c, Customer.since IN [:lo, :hi)>"
        mixed = IndexRangeScan("c", "C", "v", 3, Parameter("1"), False, True)
        assert mixed.describe() == "index_range_scan<c, C.v IN (3, ?1]>"


# ----------------------------------------------------------------------
# cost: the index plan and the filter plan carry the same cardinality
# ----------------------------------------------------------------------
class TestRangeCardinality:
    @staticmethod
    def estimates(condition, low, high, analyzed=True):
        database = c_database("sorted", values=[k % 50 for k in range(400)])
        if analyzed:
            database.analyze()
        model = CostModel(database.schema, database)
        scan = IndexRangeScan("c", "C", "v", low, high)
        filtered = Filter(parse_expression(condition), ClassScan("c", "C"))
        return (model.estimate(scan).cardinality,
                model.estimate(filtered).cardinality)

    def test_two_parameters_use_the_flat_default_on_both_sides(self):
        index, filtered = self.estimates("c.v >= :lo AND c.v <= :hi",
                                         Parameter("lo"), Parameter("hi"))
        assert index == pytest.approx(400 * CostModel.RANGE_SELECTIVITY ** 2)
        assert index == pytest.approx(filtered)

    @pytest.mark.parametrize("condition,low,high", [
        ("c.v >= 40 AND c.v <= :hi", 40, Parameter("hi")),
        ("c.v >= :lo AND c.v <= 5", Parameter("lo"), 5),
        ("c.v >= :lo", Parameter("lo"), None),
    ])
    def test_a_constant_side_keeps_its_histogram(self, condition, low, high):
        index, filtered = self.estimates(condition, low, high)
        assert index == pytest.approx(filtered)
        if low is not None and high is not None:
            # tighter than two unknown sides: the histogram was consulted
            assert index < 400 * CostModel.RANGE_SELECTIVITY ** 2

    def test_without_statistics_every_side_is_the_flat_default(self):
        index, filtered = self.estimates("c.v >= 40 AND c.v <= :hi",
                                         40, Parameter("hi"), analyzed=False)
        assert index == pytest.approx(400 * CostModel.RANGE_SELECTIVITY ** 2)
        assert index == pytest.approx(filtered)


# ----------------------------------------------------------------------
# property test: parameter plan ≡ literal plan ≡ interpreter on naive plan
# ----------------------------------------------------------------------
bound_values = st.one_of(st.none(), st.integers(min_value=-2, max_value=12))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.none(), st.integers(0, 9)),
                       min_size=0, max_size=40),
       low=bound_values, high=bound_values,
       include_low=st.booleans(), include_high=st.booleans())
def test_parameter_plan_equals_literal_plan_equals_naive_interpreter(
        values, low, high, include_low, include_high):
    database = c_database("sorted", values=values)
    low_op = ">=" if include_low else ">"
    high_op = "<=" if include_high else "<"
    condition = f"c.v {low_op} :lo AND c.v {high_op} :hi"
    bindings = {"lo": low, "hi": high}

    # the reference: interpreter, naive plan, values substituted
    bound = bind_parameters(parse_expression(condition), bindings)
    naive = execute_plan_interpreted(Filter(bound, ClassScan("c", "C")),
                                     database)
    expected = sorted(row["c"] for row in naive)

    parameter_plan = IndexRangeScan("c", "C", "v", Parameter("lo"),
                                    Parameter("hi"), include_low, include_high)
    before = database.work_snapshot()
    rows = prepare_plan(parameter_plan, database).run(bindings)
    after = database.work_snapshot()
    assert [row["c"] for row in rows] == expected       # rows *and* order
    assert execute_plan_interpreted(bind_plan(parameter_plan, bindings),
                                    database) == rows
    if low is not None and high is not None:
        literal_plan = IndexRangeScan("c", "C", "v", low, high,
                                      include_low, include_high)
        assert prepare_plan(literal_plan, database).run() == rows
        assert execute_plan_interpreted(literal_plan, database) == rows
        assert after["index_lookups"] - before["index_lookups"] == 1
        assert after["extension_scans"] - before["extension_scans"] == 0

    # ... and planned from text (tiny extensions may still prefer the scan)
    service = QueryService(database)
    result = service.execute(f"ACCESS c FROM c IN C WHERE {condition}",
                             bindings)
    assert sorted(result.values) == expected


# ----------------------------------------------------------------------
# counted work on the serving shape (tier-1 gate: counts, not wall clock)
# ----------------------------------------------------------------------
def test_parameterized_range_reads_in_proportion_to_what_it_returns():
    """The ``point_serving`` range shape on a 200-row copy of ``Customer``:
    one index lookup, no extension scan, and at most two property reads per
    returned row — whatever the size of the class."""
    import repro

    connection = repro.connect(Database(Schema("serving")),
                               durability="memory", tracing=False)
    cursor = connection.cursor()
    cursor.execute("CREATE CLASS Customer "
                   "(cid: INT, name: STRING, region: INT, since: INT)")
    cursor.executemany(
        "INSERT INTO Customer (cid, name, region, since) "
        "VALUES (:c, :n, :r, :s)",
        [{"c": cid, "n": f"customer-{cid}", "r": cid % 40,
          "s": (cid * 37) % 200} for cid in range(200)])
    cursor.execute("CREATE SORTED INDEX ON Customer(since)")
    cursor.execute("ANALYZE")
    database = connection.service.database
    text = ("ACCESS c.cid FROM c IN Customer "
            "WHERE c.since >= :lo AND c.since < :hi")
    assert "index_range_scan<c, Customer.since IN [:lo, :hi)>" in \
        connection.explain(text)
    for low, width in ((0, 50), (120, 10), (199, 50), (60, 0)):
        before = database.work_snapshot()
        rows = cursor.execute(text, {"lo": low, "hi": low + width}).fetchall()
        after = database.work_snapshot()
        assert sorted(rows) == sorted(cid for cid in range(200)
                                      if low <= (cid * 37) % 200 < low + width)
        assert after["index_lookups"] - before["index_lookups"] == 1
        assert after["extension_scans"] - before["extension_scans"] == 0
        assert (after["property_reads"] - before["property_reads"]
                <= 2 * len(rows))
    connection.close()
