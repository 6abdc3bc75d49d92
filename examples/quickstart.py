"""Quickstart: the unified statement API on a synthetic document DB.

Builds a small document database (the paper's Document/Section/Paragraph
schema), registers the schema-specific semantic knowledge (equivalences
E1-E5), opens a ``connect()`` connection and runs the motivating query

    ACCESS p FROM p IN Paragraph
    WHERE p->contains_string('Implementation')
    AND (p->document()).title == 'Query Optimization'

through a streaming cursor, then exercises the write side of the language
(``INSERT``/``UPDATE``/``DELETE`` and index DDL, all planned through the
same optimizer as the reads) and the statistics side: ``ANALYZE`` to feed
the cost model measured histograms and method timings, and ``EXPLAIN
ANALYZE`` to compare its estimates against per-operator actuals.

To see which access path the optimizer chose, read the ``physical plan:``
section of ``connection.explain(statement)`` (printed below) — its leaf
names the access path, e.g. ``expr_set_scan<...>`` for the paper's
bulk-method plan PQ, or ``index_eq_scan<d, Document.title == '...'>`` when
an equality filter is answered directly from a registered index.  The same
works for mutations: ``explain`` of an ``UPDATE ... WHERE`` shows the plan
of the derived WHERE-query (see DESIGN.md, "Statement API").

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import connect, open_session
from repro.workloads import (
    document_knowledge,
    generate_document_database,
    motivating_query,
)


def main() -> None:
    database = generate_document_database(n_documents=50)
    print(f"database: {database}")
    print(database.schema.describe())
    print()

    knowledge = document_knowledge(database.schema)
    print(knowledge.describe())
    print()

    connection = connect(database, knowledge=knowledge)
    query = motivating_query().text
    print("query:")
    print(" ", query)
    print()

    # The streaming cursor pulls rows lazily from the compiled plan.
    cursor = connection.execute(query)
    paragraphs = cursor.fetchall()
    print(f"optimized evaluation: {len(paragraphs)} paragraphs "
          f"(first: {paragraphs[0] if paragraphs else None})")

    # The naive baseline (the paper's "straightforward evaluation") is
    # still available through a session; compare the logical work.
    session = open_session(database, knowledge=knowledge)
    naive = session.execute_naive(query)
    optimized = session.execute(query)
    assert naive.value_set() == optimized.value_set()
    speedup = naive.work["total_cost_units"] / max(
        optimized.work["total_cost_units"], 1e-9)
    print(f"naive evaluation: {naive.work['total_cost_units']:.1f} cost "
          f"units; optimized: {optimized.work['total_cost_units']:.1f} "
          f"({speedup:.1f}x in logical work)")
    print()

    print("chosen physical plan (compare with the paper's plan PQ):")
    print(connection.explain(query))
    print()

    # ------------------------------------------------------------------
    # the write side: DML + DDL through the same language
    # ------------------------------------------------------------------
    inserted = connection.execute(
        "INSERT INTO Document (title, author) VALUES (:t, :a)",
        {"t": "Statement API", "a": "quickstart"})
    print(f"INSERT created {inserted.lastoid}")

    # Batched inserts share one analyzed statement and one bulk
    # maintenance pass (Database.create_many).
    cursor = connection.cursor()
    cursor.executemany(
        "INSERT INTO Document (title, author) VALUES (?, ?)",
        [[f"bulk document {i}", "quickstart"] for i in range(100)])
    print(f"executemany inserted {cursor.rowcount} documents")

    # UPDATE ... WHERE is planned through the optimizer: with a hash index
    # on Document.title the targets come from an index_eq_scan, not a scan.
    connection.execute("CREATE INDEX ON Document(author)")
    print()
    print("explain of an indexed UPDATE (note the index_eq_scan leaf):")
    print(connection.explain(
        "UPDATE Document d SET author = 'renamed' WHERE d.author == 'quickstart'"))
    updated = connection.execute(
        "UPDATE Document d SET author = 'renamed' "
        "WHERE d.author == 'quickstart'")
    print(f"UPDATE touched {updated.rowcount} documents")

    deleted = connection.execute(
        "DELETE FROM Document d WHERE d.author == 'renamed'")
    print(f"DELETE removed {deleted.rowcount} documents")
    print()

    # ------------------------------------------------------------------
    # statistics: ANALYZE + EXPLAIN ANALYZE
    # ------------------------------------------------------------------
    # Without statistics the cost model guesses flat selectivities.
    # ANALYZE measures the data (histograms, distinct counts, most-common
    # values, timed method costs) and evicts cached plans so the next
    # execution re-optimizes against real numbers.
    analyzed = connection.execute("ANALYZE")
    print(f"ANALYZE refreshed {analyzed.rowcount} classes:")
    print(analyzed.statement_report)
    print()

    # EXPLAIN ANALYZE executes the plan under per-operator instrumentation
    # and reports estimated vs actual cardinalities — after ANALYZE the
    # estimates should track the actuals closely.
    print("EXPLAIN ANALYZE of an indexed equality query:")
    print(connection.explain(
        "ACCESS p FROM p IN Paragraph WHERE p.number == 3", analyze=True))
    print()

    # Serving the same query shape repeatedly: the connection's service
    # optimizes and compiles the parametrized shape once, then binds
    # values per request.
    parametrized = ("ACCESS p FROM p IN Paragraph "
                    "WHERE p->contains_string(:term) AND "
                    "(p->document()).title == :title")
    bindings = {"term": "Implementation", "title": "Query Optimization"}
    first = connection.service.execute(parametrized, bindings)
    second = connection.service.execute(parametrized, bindings)
    print("prepared service: first call "
          f"({'hit' if first.metrics.cache_hit else 'miss'}) "
          f"{first.metrics.total_seconds * 1000:.1f}ms, second call "
          f"({'hit' if second.metrics.cache_hit else 'miss'}) "
          f"{second.metrics.total_seconds * 1000:.2f}ms "
          f"for {len(second)} paragraphs")


if __name__ == "__main__":
    main()
