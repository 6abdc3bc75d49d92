"""The names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root repeats these tables for the driver; a
self-test keeps the two in step.  ``perf/README.md`` is the glossary.
"""

from __future__ import annotations

#: (name, unit, better, bound) — measured with tracing off, on every workload
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("stmt_per_s", "1/s", "higher", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better, bound) — measured with tracing off where a workload
#: writes through the WAL (``durable_mixed``).  The driver wants one list for
#: every workload, so these stay out of ``BENCHMARK.json``; ``compare.py``
#: holds them to their bounds all the same.
END_TO_END_DURABLE = [
    ("write_p50_ms", "ms", "lower", 0.07),
    ("recover_s", "s", "lower", 0.10),
    ("disk_bytes_per_user_byte", "ratio", "lower", 0.01),
]

#: (name, unit, better) — from the traced run; metrics that do not apply to
#: a workload read 0 there (e.g. every ``storage.*`` number off ``durable_mixed``)
PER_LAYER = [
    ("vql.parse_us", "us", "lower"),
    ("vql.analyze_us", "us", "lower"),
    ("algebra.translate_us", "us", "lower"),
    ("optimizer.search_ms", "ms", "lower"),
    ("optimizer.plans_explored", "count", "lower"),
    ("optimizer.transformation_attempts", "count", "lower"),
    ("optimizer.physical_plans_costed", "count", "lower"),
    ("physical.compile_us", "us", "lower"),
    ("physical.execute_us", "us", "lower"),
    ("physical.rows_per_stmt", "count", "lower"),
    ("datamodel.property_reads_per_row", "count", "lower"),
    ("datamodel.method_calls_per_stmt", "count", "lower"),
    ("datamodel.external_calls_per_stmt", "count", "lower"),
    ("datamodel.index_lookups_per_stmt", "count", "lower"),
    ("datamodel.extension_scans_per_stmt", "count", "lower"),
    ("datamodel.cost_units_per_stmt", "count", "lower"),
    ("datamodel.insert_us", "us", "lower"),
    ("datamodel.update_us", "us", "lower"),
    ("datamodel.delete_us", "us", "lower"),
    ("service.overhead_us", "us", "lower"),
    ("service.plan_cache_hit_ratio", "ratio", "higher"),
    ("service.plan_cache_evictions", "count", "lower"),
    ("service.plan_cache_invalidations", "count", "lower"),
    ("service.plans_reoptimized", "count", "lower"),
    ("service.txn_conflicts", "count", "lower"),
    ("service.txn_retries", "count", "lower"),
    ("api.overhead_us", "us", "lower"),
    ("api.write_p50_ms", "ms", "lower"),
    ("api.write_p99_ms", "ms", "lower"),
    ("api.commit_us", "us", "lower"),
    ("storage.encode_us", "us", "lower"),
    ("storage.wal_append_us", "us", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.recover_s", "s", "lower"),
    ("storage.recover_records_per_s", "1/s", "higher"),
    ("storage.disk_bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal_records", "count", "lower"),
    ("storage.wal_bytes", "B", "lower"),
    ("storage.wal_fsyncs", "count", "lower"),
    ("storage.checkpoints", "count", "lower"),
    ("storage.checkpoint_bytes", "B", "lower"),
    ("telemetry.registry_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.staged_coverage", "ratio", "higher"),
    ("share.vql_pct", "%", "lower"),
    ("share.algebra_pct", "%", "lower"),
    ("share.optimizer_pct", "%", "lower"),
    ("share.physical_pct", "%", "lower"),
    ("share.api_service_pct", "%", "lower"),
    ("share.datamodel_write_pct", "%", "lower"),
    ("share.storage_pct", "%", "lower"),
]

#: per-layer metrics counted on a fixed operation list: they repeat exactly
#: between two runs of one program on one seed, and are compared for
#: equality, never as speed-ups (``storage.wal_fsyncs`` is left out: the
#: group-commit window is wall-clock)
EXACT = frozenset(
    [name for name, unit, _ in PER_LAYER
     if unit == "count" and name.startswith(("optimizer.", "datamodel."))]
    + ["physical.rows_per_stmt", "service.plan_cache_hit_ratio",
       "service.plan_cache_evictions", "service.plan_cache_invalidations",
       "service.txn_conflicts", "service.txn_retries",
       "storage.disk_bytes_per_user_byte", "storage.wal_records",
       "storage.wal_bytes", "storage.checkpoints", "storage.checkpoint_bytes"])
