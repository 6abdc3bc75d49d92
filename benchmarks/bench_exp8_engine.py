"""EXP-8 — Compiled pipelined engine vs the reference interpreter.

The reference interpreter materializes every operator's input into a list
and ``evaluate()`` re-walks the expression tree per row.  The one compiled
engine (:mod:`repro.physical.executor`) compiles a plan once into a tree of
generator factories over pre-compiled expression closures —
``execute_plan`` is ``prepare_plan(...).run()`` — and streams rows through
them.  This experiment executes *identical physical plans* under both on
the exp1/exp2/exp5 workloads.

What is **gated** (``--check``, and the pytest twins) is what repeats on any
host: identical row lists and identical ``work_snapshot()`` deltas on every
case — the interpreter is the oracle.  The wall-clock speed-up is *reported*
(typically ≥2× on the scan-and-filter heavy exp2 naive plan, smaller on
plans whose time is spent inside method implementations) but not asserted:
a ratio of two timings flakes with host speed, and timing comparisons
belong to ``perf/compare.py``.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp8_engine.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp8_engine.py
"""

from __future__ import annotations

import sys

from conftest import DEFAULT_SIZE, SCALING_SIZES, semantic_session
from repro.bench import best_of as _best_of
from repro.bench import format_table, standalone_main
from repro.physical.executor import execute_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.workloads import motivating_query, same_document_join_query


def _physical_plan(session, query_text: str, optimize: bool):
    translation = session.translate(query_text)
    if optimize:
        return session.optimizer.optimize(translation.plan).best_plan
    return naive_implementation(translation.plan)


def _counted(engine, plan, database) -> tuple[list, dict]:
    """Run *plan* under *engine*: its rows and its work-counter delta
    (rounded: the cost-unit counters are running float sums)."""
    before = database.work_snapshot()
    rows = engine(plan, database)
    after = database.work_snapshot()
    return rows, {key: round(after[key] - before.get(key, 0.0), 6)
                  for key in after}


def _measure_case(name: str, n_documents: int, query_text: str,
                  optimize: bool, rounds: int) -> dict:
    session = semantic_session(n_documents)
    database = session.database
    plan = _physical_plan(session, query_text, optimize)

    interpreted_rows, interpreted_work = _counted(execute_plan_interpreted,
                                                  plan, database)
    compiled_rows, compiled_work = _counted(execute_plan, plan, database)

    interpreted = _best_of(lambda: execute_plan_interpreted(plan, database),
                           rounds)
    compiled = _best_of(lambda: execute_plan(plan, database), rounds)
    return {
        "case": name,
        "n_documents": n_documents,
        "optimized_plan": optimize,
        "rows": len(compiled_rows),
        "rows_identical": compiled_rows == interpreted_rows,
        "work_identical": compiled_work == interpreted_work,
        "interpreted_ms": round(interpreted * 1000, 3),
        "compiled_ms": round(compiled * 1000, 3),
        "speedup": round(interpreted / compiled, 2) if compiled > 0 else float("inf"),
    }


def run_cases(quick: bool = False) -> list[dict]:
    """Measure every workload case and return the records."""
    rounds = 3 if quick else 7
    exp2_size = SCALING_SIZES[1] if quick else SCALING_SIZES[-1]
    join_size = 4 if quick else 8
    motivating = motivating_query().text
    join_query = same_document_join_query().text
    return [
        _measure_case("exp1-motivating-naive", DEFAULT_SIZE, motivating,
                      optimize=False, rounds=rounds),
        _measure_case("exp1-motivating-optimized", DEFAULT_SIZE, motivating,
                      optimize=True, rounds=rounds),
        _measure_case("exp2-speedup-naive", exp2_size, motivating,
                      optimize=False, rounds=rounds),
        _measure_case("exp2-speedup-optimized", exp2_size, motivating,
                      optimize=True, rounds=rounds),
        _measure_case("exp5-join-naive", join_size, join_query,
                      optimize=False, rounds=max(rounds // 2, 2)),
        _measure_case("exp5-join-optimized", join_size, join_query,
                      optimize=True, rounds=rounds),
    ]


def summarize(cases: list[dict]) -> dict:
    exp2 = next(case for case in cases if case["case"] == "exp2-speedup-naive")
    return {
        "exp2_speedup": exp2["speedup"],  # reported, not gated
        "diverging_cases": [case["case"] for case in cases
                            if not (case["rows_identical"]
                                    and case["work_identical"])],
    }


def check(record: dict) -> str | None:
    if record["diverging_cases"]:
        return ("compiled engine and interpreter disagree on rows or work "
                f"counters in: {', '.join(record['diverging_cases'])}")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp8_engines_agree_on_the_exp2_plan(benchmark):
    """Acceptance: identical rows and work counters on the exp2 speedup
    workload; the speed-up is printed for the record."""
    session = semantic_session(SCALING_SIZES[-1])
    database = session.database
    plan = _physical_plan(session, motivating_query().text, optimize=False)

    assert (_counted(execute_plan, plan, database)
            == _counted(execute_plan_interpreted, plan, database))
    interpreted = _best_of(lambda: execute_plan_interpreted(plan, database), 7)
    benchmark.pedantic(lambda: execute_plan(plan, database),
                       rounds=7, iterations=1)
    compiled = _best_of(lambda: execute_plan(plan, database), 7)
    print(f"\nEXP-8 exp2 naive plan: interpreted={interpreted * 1000:.2f}ms "
          f"compiled={compiled * 1000:.2f}ms "
          f"speedup={interpreted / compiled:.2f}x")


def test_exp8_engines_agree_on_all_workload_cases(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\nEXP-8 engine comparison (quick):")
    print(format_table(cases))
    assert check(summarize(cases)) is None


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp8-engine", run_cases,
                           description=__doc__.splitlines()[0],
                           summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
