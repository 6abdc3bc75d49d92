"""Batch-boundary differential tests of the column-batch engine.

The compiled engine (:mod:`repro.physical.executor`) moves column batches
of at most ``BATCH_SIZE`` rows between operators; the row-at-a-time
interpreter is its reference.  Every operator of the builder table runs
here on inputs whose sizes sit on and around the batch bound, and must
return the interpreter's rows, in the interpreter's order, at the
interpreter's work counters — including short-circuited method calls,
NULL receivers and the error of the first failing row.  The partial-fetch
contract (a cursor pays for at most one batch beyond the rows it took) and
EXPLAIN ANALYZE's per-operator counts are checked on the same footing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algebra.expressions import ClassExtent, Const
from repro.datamodel.database import Database
from repro.datamodel.oid import OID
from repro.datamodel.schema import ClassDef, MethodDef, PropertyDef, Schema
from repro.datamodel.types import INT, object_type
from repro.physical import plans as P
from repro.physical.batch import BATCH_SIZE
from repro.physical.evaluator import make_hashable
from repro.physical.executor import _BUILDERS, prepare_plan
from repro.physical.interpreter import _iterate_set, execute_plan_interpreted
from repro.physical.plans import walk_physical
from repro.physical.profile import PlanProfile
from repro.vql.parser import parse_expression

SIZES = (0, 1, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1,
         2 * BATCH_SIZE + 1, 1000)
#: the row whose predicate raises first (rows 70, 71, ... all raise)
FAILING_ROW = 70


def _fragile(ctx, receiver):
    n = ctx.value(receiver, "n")
    if n >= FAILING_ROW:
        raise ValueError(f"row {n} is fragile")
    return True


def item_schema() -> Schema:
    schema = Schema("batches")
    item = ClassDef("Item")
    item.add_property(PropertyDef("n", INT))
    item.add_property(PropertyDef("m10", INT))
    item.add_property(PropertyDef("grp", INT))
    item.add_property(PropertyDef("other", object_type("Item"),
                                  target_class="Item"))
    item.add_method(MethodDef(
        "twice", return_type=INT,
        implementation=lambda ctx, receiver: 2 * ctx.value(receiver, "n")))
    item.add_method(MethodDef("fragile", implementation=_fragile))
    schema.add_class(item)
    return schema


def item_database(size: int) -> Database:
    """*size* items numbered 0.. in creation (OID) order; every third item
    has no ``other`` (a NULL receiver), the rest point at their
    predecessor; ``grp`` is 0 everywhere, so one index key selects all."""
    database = Database(item_schema())
    previous = None
    for n in range(size):
        previous = database.create("Item", n=n, m10=n % 10, grp=0,
                                   other=None if n % 3 == 0 else previous)
    database.create_hash_index("Item", "grp")
    database.create_sorted_index("Item", "n")
    return database


#: how a database reached its contents: only by creates; by later updates
#: (version chains, index entries moved); by later deletes (holes in the
#: extension and the indexes)
STATES = ("created", "updated", "deleted")


def written_item_database(size: int, state: str) -> Database:
    """:func:`item_database` with its *state*'s writes on top.  The
    deleted items (``n % 3 == 2``) are referenced by no ``other``: their
    successors are the items with no ``other``."""
    database = item_database(size)
    for oid in list(database.extension("Item")):
        n = database.value(oid, "n")
        if state == "updated":
            database.set_value(oid, "m10", (3 * n) % 10)
            if n % 4 == 0:
                database.set_value(oid, "grp", 1)
        elif state == "deleted" and n % 3 == 2:
            database.delete(oid)
    return database


_databases: dict[tuple[int, str], Database] = {}


def database_of(size: int, state: str = "created") -> Database:
    if (size, state) not in _databases:
        _databases[size, state] = written_item_database(size, state)
    return _databases[size, state]


def e(text: str):
    return parse_expression(text)


def operator_plans() -> list[P.PhysicalOperator]:
    """One plan per builder (and then some), fanning out across batch
    boundaries where the operator can."""
    scan_i = P.ClassScan("i", "Item")
    scan_j = P.ClassScan("j", "Item")
    first_two = P.Filter(e("i.n < 2"), scan_i)
    m_of_i = P.MapEval("m", e("i.m10"), scan_i)
    return [
        scan_i,
        P.IndexEqScan("i", "Item", "grp", 0),
        P.IndexRangeScan("i", "Item", "n", low=1, high=900,
                         include_high=False),
        P.ExpressionSetScan("i", ClassExtent("Item")),
        P.Filter(e("i.m10 < 5"), scan_i),
        P.SetProbeFilter("i", ClassExtent("Item"), scan_i),
        P.MapEval("v", e("i.n + 1"), scan_i),
        # fan-out 2 per row: every batch of the input spills into the next
        P.FlattenEval("s", e("{i.n, i.n + 1000}"), scan_i),
        # dedup across batches: only ten distinct values survive
        P.ProjectOp(("m",), m_of_i),
        P.ProjectOp(("i", "m"), m_of_i),
        P.NestedLoopJoin(e("i.n <= j.n"), first_two, scan_j),
        P.IndexNestedLoopJoin(e("i.grp"), "j", "Item", "grp", first_two),
        # the hash-join fan-out: both left rows match every right row
        P.HashJoin(e("i.grp"), e("j.grp"), first_two, scan_j),
        P.HashJoin(e("i.m10"), e("j.m10"), scan_i,
                   P.Filter(e("j.n < 20"), scan_j)),
        P.NaturalMergeJoin(P.ExpressionSetScan("m", Const({0, 1})), m_of_i),
        P.UnionOp(P.Filter(e("i.n < 100"), scan_i), scan_i),
        P.DiffOp(scan_i, P.Filter(e("i.m10 == 4"), scan_i)),
        P.MapEval("v", e("i->twice()"), scan_i),
        # short-circuit: the counted method runs only on undecided rows
        P.Filter(e("i.m10 < 5 AND i->twice() > 10"), scan_i),
        P.Filter(e("i.m10 < 5 OR i->twice() > 10"), scan_i),
        P.Filter(e("(i.m10 < 5 AND i->twice() > 10) OR i.other.m10 == 2"),
                 scan_i),
        # NULL receivers in property paths and method calls
        P.MapEval("v", e("i.other.n"), scan_i),
        P.MapEval("v", e("i.other.other.m10"), scan_i),
        P.MapEval("v", e("i.other->twice()"), scan_i),
        P.Filter(e("i.other.n >= 5"), scan_i),
    ]


def work_delta(before: dict, after: dict) -> dict:
    # rounded: the cost-unit counters are running float sums
    return {key: round(after[key] - before[key], 6) for key in after}


def run_both(plan, database):
    """(interpreted rows, interpreter work, compiled rows, compiled work)."""
    before = database.work_snapshot()
    interpreted = execute_plan_interpreted(plan, database)
    between = database.work_snapshot()
    compiled = prepare_plan(plan, database).run()
    after = database.work_snapshot()
    return (interpreted, work_delta(before, between),
            compiled, work_delta(between, after))


def test_the_plans_cover_every_builder():
    assert {type(plan) for plan in operator_plans()} == set(_BUILDERS)


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("size", SIZES)
def test_every_operator_matches_the_interpreter(size, state):
    database = database_of(size, state)
    for plan in operator_plans():
        interpreted, interpreted_work, compiled, compiled_work = run_both(
            plan, database)
        assert compiled == interpreted, plan.describe()  # rows and order
        assert compiled_work == interpreted_work, plan.describe()


def test_fan_out_crosses_batch_boundaries():
    """A join whose output of one probe batch exceeds the bound is cut into
    bounded batches, still in left order x right insertion order."""
    database = database_of(1000)
    plan = P.HashJoin(e("i.grp"), e("j.grp"),
                      P.Filter(e("i.n < 2"), P.ClassScan("i", "Item")),
                      P.ClassScan("j", "Item"))
    profile = PlanProfile()
    rows = prepare_plan(plan, database, profile=profile).run()
    assert len(rows) == 2000
    assert [(row["i"], row["j"]) for row in rows[:2]] == [
        (rows[0]["i"], database.extension("Item")[0]),
        (rows[0]["i"], database.extension("Item")[1])]
    assert rows == execute_plan_interpreted(plan, database)


def test_short_circuit_charges_only_undecided_rows():
    database = database_of(1000)
    scan = P.ClassScan("i", "Item")
    for text, calls in (("i.m10 < 5 AND i->twice() > 10", 500),
                        ("i.m10 < 5 OR i->twice() > 10", 500),
                        ("i.n < 0 AND i->twice() > 10", 0)):
        before = database.work_snapshot()
        prepare_plan(P.Filter(e(text), scan), database).run()
        after = database.work_snapshot()
        assert after["method_calls"] - before["method_calls"] == calls, text


@pytest.mark.parametrize("make_plan", [
    lambda: P.Filter(e("i->fragile()"), P.ClassScan("i", "Item")),
    lambda: P.MapEval("v", e("i->fragile()"), P.ClassScan("i", "Item")),
    lambda: P.Filter(e("i.n < 65 OR i->fragile()"), P.ClassScan("i", "Item")),
    lambda: P.Filter(e("i.n >= 0 AND i->fragile()"), P.ClassScan("i", "Item")),
    lambda: P.Filter(e("i->fragile()"), P.IndexEqScan("i", "Item", "grp", 0)),
    lambda: P.Filter(e("i->fragile()"),
                     P.IndexRangeScan("i", "Item", "n", low=1, high=900)),
    lambda: P.FlattenEval("s", e("{i->fragile()}"), P.ClassScan("i", "Item")),
    lambda: P.NestedLoopJoin(e("j->fragile()"),
                             P.Filter(e("i.n < 2"), P.ClassScan("i", "Item")),
                             P.ClassScan("j", "Item")),
    lambda: P.HashJoin(e("i.grp"), e("j->fragile()"),
                       P.Filter(e("i.n < 2"), P.ClassScan("i", "Item")),
                       P.ClassScan("j", "Item")),
], ids=["filter", "map", "or", "and", "index_eq_residual",
        "index_range_residual", "flatten", "nested_loop_condition",
        "hash_join_key"])
def test_first_failing_row_raises_the_interpreters_error(make_plan):
    database = database_of(1000)
    plan = make_plan()
    with pytest.raises(Exception) as interpreted:
        execute_plan_interpreted(plan, database)
    with pytest.raises(Exception) as compiled:
        prepare_plan(plan, database).run()
    assert type(compiled.value) is type(interpreted.value)
    assert str(compiled.value) == str(interpreted.value)
    assert "is fragile" in str(compiled.value)  # not vacuous


# ----------------------------------------------------------------------
# the partial-fetch contract, counted
# ----------------------------------------------------------------------
def reads_and_lookups(database, action):
    before = database.work_snapshot()
    result = action()
    after = database.work_snapshot()
    return (result, after["property_reads"] - before["property_reads"],
            after["index_lookups"] - before["index_lookups"])


def test_fetchone_pays_for_at_most_one_batch():
    database = database_of(1000)
    cursor = connect(database).cursor()
    cursor.execute("ACCESS i.n FROM i IN Item")
    row, reads, _ = reads_and_lookups(database, cursor.fetchone)
    assert row is not None
    assert 1 <= reads <= BATCH_SIZE
    cursor.close()


def test_one_page_of_an_index_read_pays_exactly_for_the_page():
    database = item_database(100)
    connection = connect(database)
    cursor = connection.cursor()
    cursor.execute("ACCESS i.n FROM i IN Item WHERE i.grp == :g", {"g": 0})
    page, reads, lookups = reads_and_lookups(
        database, lambda: cursor.fetchmany(BATCH_SIZE))
    assert len(page) == BATCH_SIZE
    assert (reads, lookups) == (BATCH_SIZE, 1)
    cursor.close()  # closed after one page: the snapshot is released
    assert database._oldest_pin() is None
    connection.close()


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE counts batches' rows like the interpreter counts lists
# ----------------------------------------------------------------------
def test_profile_counts_equal_the_interpreters():
    from test_bind_time_access_paths import bind_plan
    from test_compiled_engine import TestOperatorCoverage
    from repro.workloads import generate_document_database

    database = generate_document_database(n_documents=3)
    database.create_sorted_index("Paragraph", "number")
    samples = TestOperatorCoverage.sample_plans()
    assert len(samples) == 16
    for plan in samples:
        compiled, interpreted = PlanProfile(), PlanProfile()
        prepare_plan(plan, database, profile=compiled).run(
            TestOperatorCoverage.BINDINGS)
        # the interpreter runs the bound copy: match its operators to the
        # sample's by pre-order position
        bound = bind_plan(plan, TestOperatorCoverage.BINDINGS)
        execute_plan_interpreted(bound, database, profile=interpreted)
        assert (counts(plan, compiled) == counts(bound, interpreted)
                ), plan.describe()


def counts(plan, profile: PlanProfile) -> list[tuple[int, int]]:
    """(opens, rows) of every operator of *plan*, in pre-order."""
    return [(profile.counters_for(node).opens, profile.counters_for(node).rows)
            for node in walk_physical(plan)]


# ----------------------------------------------------------------------
# the shared helpers: fast paths give the reference implementation's results
# ----------------------------------------------------------------------
def reference_make_hashable(value):
    """``make_hashable`` before its exact-type fast paths."""
    if isinstance(value, dict):
        return tuple(sorted((key, reference_make_hashable(val))
                            for key, val in value.items()))
    if isinstance(value, (set, frozenset)):
        return frozenset(reference_make_hashable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return tuple(reference_make_hashable(v) for v in value)
    return value


def reference_iterate_set(value):
    """``_iterate_set`` before sets skipped the dedup pass (an OID is an
    atom, not a pair)."""
    if isinstance(value, OID):
        return [value]
    if isinstance(value, (set, frozenset, list, tuple)):
        seen, elements = set(), []
        for element in value:
            key = reference_make_hashable(element)
            if key not in seen:
                seen.add(key)
                elements.append(element)
        return elements
    return [value]


atoms = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.builds(OID, st.sampled_from(["A", "B"]),
                            st.integers(0, 3)))
hashables = st.recursive(
    atoms, lambda inner: st.one_of(st.tuples(inner, inner),
                                   st.frozensets(inner, max_size=3)),
    max_leaves=8)
values = st.recursive(
    atoms, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.frozensets(hashables, max_size=4), st.sets(hashables, max_size=4),
        st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(values)
def test_make_hashable_matches_the_reference(value):
    assert make_hashable(value) == reference_make_hashable(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(values, max_size=6),
                 st.tuples(values, values),
                 st.sets(hashables, max_size=6),
                 st.frozensets(hashables, max_size=6), atoms.filter(
                     lambda atom: atom is not None)))
def test_iterate_set_matches_the_reference(value):
    plan = P.ExpressionSetScan("x", Const(value))
    assert _iterate_set(value, plan) == reference_iterate_set(value)
