"""EXP-13 — join-order enumeration and adaptive feedback re-optimization.

Two claims, one skewed three-class star schema
(``Order(status, region)`` / ``Shipment(region)`` / ``Region(name, kind)``):

**Enumeration.**  The star query arrives in a pathological parse order::

    ACCESS o FROM o IN Order, s IN Shipment, r IN Region
    WHERE o.status == 'urgent' AND o.region == r.name
      AND s.region == r.name AND r.kind == 'rare'

``Order`` and ``Shipment`` only relate *through* ``Region``, so the parse
order's first join is a bare cross product — and the rule set deliberately
has no join-associativity transformation, so exploration alone cannot
regroup it.  The join-graph enumerator (Selinger DP over the equi-join
edges) seeds the search with a connected order that filters first and
joins through the hub; acceptance is an ``MIN_SPEEDUP``× wall-clock win
over the parse-order plan with identical results.

**Feedback.**  A ``QueryService`` plans the same query against fresh
ANALYZE statistics, then the data drifts (many regions flip to the
'rare' kind — kept below the staleness fraction, so the statistics stay
nominally *fresh* but factually wrong).  The first post-drift execution
runs profiled, the estimate/actual divergence writes a correction into
the statistics catalog, the plan cache evicts, and the next execution
replans against the observed selectivity; acceptance is the
``plans_reoptimized``/``feedback_evictions`` counters firing and the
replanned execution doing measurably less work (logical work counters)
than the stale plan's post-drift execution.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp13_joinorder.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp13_joinorder.py
"""

from __future__ import annotations

import random
import sys

from conftest import bench_seed
from repro.bench import best_of, format_table, standalone_main
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import STRING
from repro.optimizer.search import OptimizerOptions
from repro.physical.executor import execute_plan
from repro.service.service import QueryService
from repro.session import Session

#: the enumerated join order must beat the parse order by this factor
MIN_SPEEDUP = 3.0

#: the replanned execution must cut logical work by at least this factor
MIN_FEEDBACK_GAIN = 1.2

#: one in SKEW orders is 'urgent' / one in SKEW regions is 'rare' — exact
#: counts (not sampled) so the post-drift estimate/actual ratio is stable
SKEW = 50

QUERY = ("ACCESS o FROM o IN Order, s IN Shipment, r IN Region "
         "WHERE o.status == 'urgent' AND o.region == r.name "
         "AND s.region == r.name AND r.kind == 'rare'")


def _star_database(n_orders: int, n_regions: int, seed: int) -> Database:
    """Order/Shipment star around a Region hub, skewed on both filters."""
    schema = Schema("order-star")
    for name, props in (("Order", ("status", "region")),
                        ("Shipment", ("region",)),
                        ("Region", ("name", "kind"))):
        class_def = ClassDef(name=name)
        for prop in props:
            class_def.add_property(PropertyDef(prop, STRING))
        schema.add_class(class_def)

    database = Database(schema, name=f"star[{n_orders}]")
    rng = random.Random(seed)
    regions = [f"R{i:04d}" for i in range(n_regions)]
    database.create_many("Order", [
        {"status": ("urgent" if i < n_orders // SKEW else "open"),
         "region": regions[i % n_regions]} for i in range(n_orders)])
    database.create_many("Shipment", [{"region": rng.choice(regions)}
                                      for _ in range(3 * n_orders)])
    database.create_many("Region", [
        {"name": name, "kind": ("rare" if i < n_regions // SKEW else "common")}
        for i, name in enumerate(regions)])
    database.create_hash_index("Region", "name")
    return database


def _drift(database: Database, n_orders: int, n_regions: int) -> None:
    """Flip ~23% of each class toward the rare values — enough for a >10x
    estimate/actual divergence on both filters, yet under the 25% staleness
    fraction, so the ANALYZE statistics stay *fresh* while badly wrong."""
    for class_name, prop, value, budget in (
            ("Order", "status", "urgent", int(0.23 * n_orders)),
            ("Region", "kind", "rare", int(0.23 * n_regions))):
        flips = [oid for oid in database.extension(class_name)
                 if database.get(oid).get(prop) != value][:budget]
        for oid in flips:
            database.update(oid, **{prop: value})


def _work_reads(work: dict) -> float:
    """One scalar 'logical work' measure of an execution: property reads
    plus index lookups (both deterministic, unlike wall-clock)."""
    return work.get("property_reads", 0.0) + work.get("index_lookups", 0.0)


def _execute_counted(service: QueryService, query: str):
    """``service.execute(query)`` and the logical work it did: the
    database's counter delta around the call (serial, so exact)."""
    before = _work_reads(service.database.work_snapshot())
    result = service.execute(query)
    return result, _work_reads(service.database.work_snapshot()) - before


def run_cases(quick: bool = False) -> list[dict]:
    n_orders = 600 if quick else 1_500
    n_regions = 100 if quick else 250
    rounds = 3 if quick else 5
    seed = bench_seed()

    # ------------------------------------------------------------------
    # phase 1: parse order vs enumerated order
    # ------------------------------------------------------------------
    database = _star_database(n_orders, n_regions, seed)
    database.analyze()
    parse_session = Session(database,
                            options=OptimizerOptions(join_seeding=False))
    seeded_session = Session(database)

    parse_order = parse_session.optimize(QUERY)
    enumerated = seeded_session.optimize(QUERY)
    assert enumerated.join_order is not None, \
        "the join-graph enumerator produced no order for the star query"

    parse_rows = execute_plan(parse_order.best_plan, database)
    seeded_rows = execute_plan(enumerated.best_plan, database)
    assert {row["o"] for row in parse_rows} == \
        {row["o"] for row in seeded_rows}, \
        "parse-order and enumerated plans disagree on the result set"

    parse_seconds = best_of(
        lambda: execute_plan(parse_order.best_plan, database), rounds)
    seeded_seconds = best_of(
        lambda: execute_plan(enumerated.best_plan, database), rounds)

    # ------------------------------------------------------------------
    # phase 2: drift → feedback correction → replan
    # ------------------------------------------------------------------
    # Fixed sizes regardless of --quick: this phase demonstrates a plan
    # *flip* (the pre-drift optimum nests a loop over Shipment, which is
    # only optimal while 'urgent'/'rare' stay rare), so it needs the skew
    # regime, not scale.
    n_orders, n_regions = 600, 100
    service_db = _star_database(n_orders, n_regions, seed + 1)
    service = QueryService(service_db)
    service.execute("ANALYZE")
    service.execute(QUERY)  # profiled first execution, estimates on target

    _drift(service_db, n_orders, n_regions)

    # profiled, detects divergence
    stale_result, stale_work = _execute_counted(service, QUERY)

    replanned_result = None
    for _ in range(3):  # the eviction lands on the next lookup
        candidate, candidate_work = _execute_counted(service, QUERY)
        if service.metrics.snapshot()["plans_reoptimized"] >= 1:
            replanned_result, replanned_work = candidate, candidate_work
            break
    assert replanned_result is not None, \
        "feedback never triggered a replan after drift"
    assert replanned_result.value_set() == stale_result.value_set(), \
        "feedback replanning changed the result set"
    snapshot = service.metrics.snapshot()

    return [
        {"case": "parse-order", "orders": n_orders,
         "rows": len(parse_rows),
         "estimated_cost": round(parse_order.best_cost.cost, 1),
         "seconds": round(parse_seconds, 5)},
        {"case": "enumerated", "orders": n_orders,
         "rows": len(seeded_rows),
         "join_order": enumerated.join_order.describe(),
         "estimated_cost": round(enumerated.best_cost.cost, 1),
         "seconds": round(seeded_seconds, 5)},
        {"case": "feedback-stale-plan", "rows": len(stale_result.rows),
         "work_reads": round(stale_work, 1)},
        {"case": "feedback-replanned", "rows": len(replanned_result.rows),
         "work_reads": round(replanned_work, 1),
         "plans_reoptimized": snapshot["plans_reoptimized"],
         "feedback_evictions": snapshot["feedback_evictions"],
         "corrections": service_db.stats_catalog.correction_count()},
    ]


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    parse_order = by_case["parse-order"]
    enumerated = by_case["enumerated"]
    stale = by_case["feedback-stale-plan"]
    replanned = by_case["feedback-replanned"]
    return {
        "speedup": round(parse_order["seconds"]
                         / max(enumerated["seconds"], 1e-9), 2),
        "speedup_target": MIN_SPEEDUP,
        "join_order": enumerated["join_order"],
        "feedback_work_gain": round(stale["work_reads"]
                                    / max(replanned["work_reads"], 1e-9), 2),
        "feedback_gain_target": MIN_FEEDBACK_GAIN,
        "plans_reoptimized": replanned["plans_reoptimized"],
        "feedback_evictions": replanned["feedback_evictions"],
        "corrections": replanned["corrections"],
    }


def check(record: dict) -> str | None:
    if record["speedup"] < MIN_SPEEDUP:
        return (f"enumerated join order speedup {record['speedup']}x is "
                f"below the {MIN_SPEEDUP}x target")
    if record["plans_reoptimized"] < 1:
        return "feedback never replanned after drift"
    if record["feedback_evictions"] < 1:
        return "feedback never evicted the stale plan"
    if record["corrections"] < 1:
        return "no statistics correction was recorded"
    if record["feedback_work_gain"] < MIN_FEEDBACK_GAIN:
        return (f"replanned execution work gain "
                f"{record['feedback_work_gain']}x is below the "
                f"{MIN_FEEDBACK_GAIN}x target")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp13_enumerated_order_beats_parse_order(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-13 join-order enumeration + feedback (quick):")
    print(format_table(cases))
    print(f"speedup: {summary['speedup']}x via {summary['join_order']}")
    assert summary["speedup"] >= MIN_SPEEDUP


def test_exp13_feedback_replan_cuts_work(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    assert summary["plans_reoptimized"] >= 1
    assert summary["feedback_evictions"] >= 1
    assert summary["feedback_work_gain"] >= MIN_FEEDBACK_GAIN


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp13-joinorder", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
