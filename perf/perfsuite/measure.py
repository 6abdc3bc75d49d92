"""The two measuring passes: end to end (tracing off) and per layer (traced).

Load shape of both: a closed loop, one client on one connection per
database, in this process.  A workload's operations come in fixed, seeded
blocks; a pass executes whole blocks until ``--seconds`` of wall time have
gone by *and* it has pooled :data:`MIN_READS` read samples, so two runs
differ in how many blocks they finish, never in what a block contains, and
a slower program runs longer instead of reporting a lower percentile.
Every operation is timed on its own (``execute()`` to the last row
fetched); generating operations and checking results against the oracle
happen between operations, outside every timer.
"""

from __future__ import annotations

import gc
import os
import resource
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.errors import ReproError

from perfsuite import stats
from perfsuite.ops import Op, canonical, timed_read
from perfsuite.spans import Span, SpanLog, layer_of, self_times
from perfsuite.staged import StagedPipeline
from perfsuite.workloads.base import WARM, Workload

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: read samples a timed phase pools before it may stop, whatever the
#: program's speed: ``read_p99_ms`` is always the 99th percentile
MIN_READS = stats.samples_needed(99.0)
#: share of each shape's operations the traced pass replays stage by stage
SAMPLE_SHARE = 0.10

Factory = Callable[[int, bool], Workload]


@dataclass
class Outcome:
    """What one run reports: the driver's four keys plus readable detail."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, sample count)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _attempt(workload: Workload, op: Op, outcome: Outcome) -> tuple[float, bool]:
    """Run *op* through the front end: ``(seconds, succeeded)``.  A program
    error or an oracle mismatch counts as failed; an operation that raised
    is charged the time until it did, so failing fast earns nothing."""
    outcome.attempted += 1
    started = perf_counter()
    try:
        seconds, ok = workload.run(op)
    except ReproError:
        seconds, ok = perf_counter() - started, False
    outcome.failed += not ok
    return seconds, ok


def _build(factory: Factory, seed: int, smoke: bool,
           outcome: Outcome) -> tuple[Workload, float]:
    """Set up a fresh workload and run its warm-up block: ``(workload,
    seconds)``.  Warm-up fills the statement LRU and the plan cache, so
    planning a cached workload's statements is set-up, not serving."""
    workload = factory(seed, smoke)
    started = perf_counter()
    workload.setup()
    for op in workload.block(WARM):
        _attempt(workload, op, outcome)
    return workload, perf_counter() - started


def _blocks(workload: Workload, seconds: float, min_reads: int = 0):
    """``(index, operations)`` of blocks 0, 1, ... until *seconds* of wall
    time have passed and the blocks held *min_reads* read operations;
    always at least one block."""
    started = perf_counter()
    index = reads = 0
    while True:
        ops = workload.block(index)
        yield index, ops
        index += 1
        reads += sum(op.kind == "read" for op in ops)
        if perf_counter() - started >= seconds and reads >= min_reads:
            return


def measure_end_to_end(factory: Factory, seed: int, seconds: float,
                       smoke: bool = False) -> Outcome:
    """Tracing off: set-up time, throughput, read latency, peak memory,
    and on a workload that writes durably the three write-path metrics."""
    outcome = Outcome()
    setups = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        workload, elapsed = _build(factory, seed, smoke, outcome)
        setups.append(elapsed)
        if repeat < SETUP_REPEATS - 1:
            workload.close()
            del workload  # or the next set-up would be built beside this one
    #: read latencies in consecutive groups of whole blocks, MIN_READS or
    #: more to a group: a percentile is taken per group and the run reports
    #: the median over groups, as it does for the blocks' rates, so a burst
    #: of host noise moves the groups it hits and not the run's number
    groups: list[list[float]] = [[]]
    writes: list[float] = []
    rates: list[float] = []
    storage_before = workload.storage_counters()
    gc.collect()
    for _, ops in _blocks(workload, seconds, 0 if smoke else MIN_READS):
        if len(groups[-1]) >= MIN_READS:
            groups.append([])
        busy = 0.0
        succeeded = 0
        for op in ops:
            elapsed, ok = _attempt(workload, op, outcome)
            busy += elapsed
            succeeded += ok
            (groups[-1] if op.kind == "read" else writes).append(elapsed)
        rates.append(succeeded / busy)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    storage = workload.storage_metrics(storage_before)
    attempted, failed, extra = workload.finish()
    outcome.attempted += attempted
    outcome.failed += failed
    if len(groups) > 1 and len(groups[-1]) < MIN_READS:
        leftover = groups.pop()  # too few for a group of their own
        groups[-1] += leftover
    groups = [sorted(group) for group in groups]
    reads = sum(map(len, groups))
    outcome.metrics = {
        "setup_s": (stats.median(setups), len(setups)),
        "stmt_per_s": (stats.median(rates), len(rates)),
        "read_p50_ms": (stats.median(list(map(stats.median, groups))) * 1e3, reads),
        "read_p99_ms": (stats.median([stats.percentile(group, 99.0)
                                      for group in groups]) * 1e3, reads),
        "peak_rss_mb": (peak_rss, 1),
    }
    if writes:
        outcome.metrics["write_p50_ms"] = (stats.median(writes) * 1e3, len(writes))
    if storage:
        outcome.metrics["recover_s"] = extra["storage.recover_s"]
        outcome.metrics["disk_bytes_per_user_byte"] = (
            storage["storage.disk_bytes_per_user_byte"], len(writes))
    outcome.detail = {**workload.describe(), "blocks": len(rates),
                      "read_groups": list(map(len, groups)),
                      "setup_runs_s": setups}
    workload.close()
    return outcome


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def _work(workload: Workload) -> dict[str, float]:
    """Summed ``Database.work_snapshot()`` over the workload's databases."""
    total: dict[str, float] = defaultdict(float)
    for connection in workload.connections:
        for key, value in connection.database.work_snapshot().items():
            total[key] += value
    return total


def count_pass(workload: Workload, outcome: Outcome) -> tuple[dict, dict, float]:
    """Run block 0 through the front end on a freshly set-up workload and
    read the counters the program exposes, before and after.

    The block is a fixed list, so every number here repeats exactly
    between two runs of one program on one seed.  Returns the per-layer
    count metrics, the per-shape ``datamodel`` table, and the block's
    front-end rate (operations per second, before any tracing exists).
    """
    services = [connection.service for connection in workload.connections]
    cache_before = [service.cache.snapshot() for service in services]
    service_before = [service.metrics.snapshot() for service in services]
    storage_before = workload.storage_counters()
    per_shape: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    total: dict[str, float] = defaultdict(float)
    ops = workload.block(0)
    reads = rows = succeeded = 0
    busy = 0.0
    before = _work(workload)
    for op in ops:
        elapsed, ok = _attempt(workload, op, outcome)
        busy += elapsed
        succeeded += ok
        after = _work(workload)
        shape = per_shape[op.shape]
        shape["statements"] += 1
        for key, value in after.items():
            shape[key] += value - before[key]
            total[key] += value - before[key]
        before = after
        if op.kind == "read":
            reads += 1
            rows += workload.last_row_count
            shape["rows"] += workload.last_row_count
    n = len(ops)
    cache = _delta(cache_before, [service.cache.snapshot() for service in services])
    service = _delta(service_before,
                     [service.metrics.snapshot() for service in services])
    lookups = cache["hits"] + cache["misses"]
    counts = {
        "physical.rows_per_stmt": rows / max(reads, 1),
        "datamodel.property_reads_per_row": total["property_reads"] / max(rows, 1),
        "datamodel.method_calls_per_stmt": total["method_calls"] / n,
        "datamodel.external_calls_per_stmt": total["external_method_calls"] / n,
        "datamodel.index_lookups_per_stmt": total["index_lookups"] / n,
        "datamodel.extension_scans_per_stmt": total["extension_scans"] / n,
        "datamodel.cost_units_per_stmt": total["total_cost_units"] / n,
        "service.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.plan_cache_evictions": cache["evictions"],
        "service.plan_cache_invalidations": cache["invalidations"],
        "service.plans_reoptimized": service["plans_reoptimized"],
        "service.txn_conflicts": service["txn_conflicts"],
        "service.txn_retries": workload.txn_retries,
    }
    counts.update(workload.storage_metrics(storage_before))
    return ({name: (value, n) for name, value in counts.items()}, per_shape,
            succeeded / busy)


def _delta(before: list[dict], after: list[dict]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for old, new in zip(before, after):
        for key, value in new.items():
            total[key] += value - old[key]
    return total


def _sample(workload: Workload, ops: list[Op], cycle: int) -> dict[int, float]:
    """Positions of the operations replayed stage by stage this cycle ->
    the weight each stands for.  The sample is stratified: a tenth of every
    shape (at least one), so a shape that is rare but slow is neither
    missed nor over-counted."""
    by_shape: dict[str, list[int]] = defaultdict(list)
    for position, op in enumerate(ops):
        by_shape[op.shape].append(position)
    rng = workload.rng(("sample", cycle))
    chosen: dict[int, float] = {}
    for positions in by_shape.values():
        take = max(1, round(SAMPLE_SHARE * len(positions)))
        for position in rng.sample(positions, take):
            chosen[position] = len(positions) / take
    return chosen


@dataclass
class _Traced:
    """One operation replayed under spans, and what the front end took."""

    shape: str
    weight: float
    front_seconds: float
    root: Span


class _Trace:
    """Accumulates what the traced cycles observe."""

    def __init__(self, workload: Workload, log: SpanLog):
        self.workload = workload
        self.log = log
        self.pipelines = [
            StagedPipeline(connection, knowledge, log)
            for connection, knowledge in zip(workload.connections,
                                             workload.knowledge)]
        self.traced: list[_Traced] = []
        #: (shape, seconds) of operations that paid for an auto-checkpoint
        self.stalls: list[tuple[str, float]] = []
        self.api_overhead: list[float] = []
        self.service_overhead: list[float] = []
        self.writes: list[float] = []
        self.mismatches = 0
        self.first_cycle_searches: list = []

    def warm(self) -> None:
        """Give the staged replay the warm-up the front end had, so a
        statement the front end serves from its caches is not planned
        inside the measured cycles either."""
        for op in self.workload.block(WARM):
            if op.kind == "read":
                self.pipelines[op.target].run(op, -1, planned=False)  # new texts only
        for pipeline in self.pipelines:
            pipeline.searches.clear()
        self.log.spans.clear()

    def read(self, op: Op, weight: float, front_seconds: float,
             planned: bool) -> None:
        """*op* just ran through the front end in *front_seconds* (*planned*:
        its plan cache missed); run it again warm through cursor and
        service, then stage by stage."""
        connection = self.workload.connections[op.target]
        cursor_seconds, front_rows = timed_read(connection, op)
        want = Counter(map(canonical, front_rows))
        streamed = None
        if op.fetch is None:
            # the service-level twin of the cursor is QueryService.stream();
            # it runs before the replay, whose garbage would land on it
            started = perf_counter()
            stream = connection.service.stream(op.sql, op.params)
            streamed = stream.drain()
            service_seconds = perf_counter() - started
            self.api_overhead.append(cursor_seconds - service_seconds)
            self.mismatches += Counter(canonical(row.get(stream.output_ref))
                                       for row in streamed) != want
        rows, root, execute_seconds = self.pipelines[op.target].run(
            op, len(self.traced), planned)
        self.traced.append(_Traced(op.shape, weight, front_seconds, root))
        if streamed is None:
            self.mismatches += len(rows) != len(front_rows)
        else:
            self.service_overhead.append(service_seconds - execute_seconds)
            self.mismatches += Counter(map(canonical, rows)) != want

    def write(self, op: Op, weight: float, front_seconds: float) -> None:
        root = self.workload.trace_write(op, self.log, len(self.traced))
        self.traced.append(_Traced(op.shape, weight, front_seconds, root))


def measure_layers(factory: Factory, seed: int, seconds: float,
                   smoke: bool = False, out_dir: str = "") -> Outcome:
    """Traced: exact counts from a fixed pass on one instance, then timed
    cycles on a second one where a stratified tenth of the operations is
    replayed stage by stage under spans."""
    outcome = Outcome()
    counted, _ = _build(factory, seed, smoke, outcome)
    counts, per_shape, untraced_rate = count_pass(counted, outcome)
    detail = counted.describe()
    counted.close()
    del counted
    gc.collect()

    workload, _ = _build(factory, seed, smoke, outcome)
    log = SpanLog()
    trace = _Trace(workload, log)
    trace.warm()
    rates = []
    for cycle, ops in _blocks(workload, seconds):
        sample = _sample(workload, ops, cycle)
        busy = 0.0
        succeeded = 0
        for position, op in enumerate(ops):
            weight = sample.get(position)  # None: not replayed
            cache = workload.connections[op.target].service.cache
            misses = cache.snapshot()["misses"]
            elapsed, ok = _attempt(workload, op, outcome)
            busy += elapsed
            succeeded += ok
            if op.kind == "write":
                trace.writes.append(elapsed)
            if workload.stalled:
                trace.stalls.append((op.shape, elapsed))
            elif weight is None:
                continue
            elif op.kind == "read":
                # the replay plans a statement exactly when the front end did
                trace.read(op, weight, elapsed,
                           planned=cache.snapshot()["misses"] > misses)
            else:
                trace.write(op, weight, elapsed)
        rates.append(succeeded / busy)
        if cycle == 0:
            # counts come from the first cycle alone: its sample is a fixed
            # list, so the optimizer's effort counters repeat exactly
            trace.first_cycle_searches = [search for pipeline in trace.pipelines
                                          for search in pipeline.searches]
    started = perf_counter()
    for connection in workload.connections:
        connection.metrics()
    registry_seconds = perf_counter() - started
    attempted, failed, extra = workload.finish()
    outcome.attempted += attempted + len(trace.traced)
    outcome.failed += failed + trace.mismatches

    metrics = dict(counts)
    metrics.update(_span_metrics(log, trace))
    metrics.update(extra)
    metrics["telemetry.registry_us"] = (registry_seconds * 1e6, 1)
    shares, table = _shares(log, trace)
    metrics.update(shares)
    # front-end throughput with the tracer at work in the process, over the
    # same measure before any tracing object existed
    metrics["trace.overhead_ratio"] = (stats.median(rates) / untraced_rate,
                                       len(rates))
    if trace.writes:
        # a durable_mixed cycle holds 1 500 writes, so p99 has its samples
        writes = sorted(trace.writes)
        metrics["api.write_p50_ms"] = (stats.median(writes) * 1e3, len(writes))
        metrics["api.write_p99_ms"] = (stats.percentile(writes, 99.0) * 1e3,
                                       len(writes))
    outcome.metrics = metrics
    detail.update({"cycles": len(rates), "share_table": table,
                   "front_end_rate_untraced": untraced_rate,
                   "front_end_rate_traced_cycles": rates,
                   "datamodel_by_shape": {
                       shape: dict(values) for shape, values in per_shape.items()}})
    outcome.detail = detail
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        log.write(os.path.join(out_dir, f"trace-{workload.name}.jsonl"))
    workload.close()
    return outcome


_STAGE_METRICS = {
    "vql.parse": ("vql.parse_us", 1e6),
    "vql.analyze": ("vql.analyze_us", 1e6),
    "algebra.translate": ("algebra.translate_us", 1e6),
    "optimizer.search": ("optimizer.search_ms", 1e3),
    "physical.compile": ("physical.compile_us", 1e6),
    "physical.execute": ("physical.execute_us", 1e6),
    "datamodel.insert": ("datamodel.insert_us", 1e6),
    "datamodel.update": ("datamodel.update_us", 1e6),
    "datamodel.delete": ("datamodel.delete_us", 1e6),
    "storage.encode": ("storage.encode_us", 1e6),
    "storage.append": ("storage.wal_append_us", 1e6),
}


def _span_metrics(log: SpanLog, trace: _Trace) -> dict[str, tuple[float, int]]:
    """Median duration per stage, and the optimizer's effort counters."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for span in log.spans:
        by_name[span.name].append(span.seconds)
    metrics = {}
    for name, (metric, scale) in _STAGE_METRICS.items():
        samples = by_name.get(name)
        if samples:
            metrics[metric] = (stats.median(samples) * scale, len(samples))
    searches = trace.first_cycle_searches
    if searches:
        n = len(searches)
        metrics["optimizer.plans_explored"] = (
            sum(s.logical_plans_explored for s in searches) / n, n)
        metrics["optimizer.transformation_attempts"] = (
            sum(s.transformation_attempts for s in searches) / n, n)
        metrics["optimizer.physical_plans_costed"] = (
            sum(s.physical_plans_costed for s in searches) / n, n)
    if trace.api_overhead:
        metrics["api.overhead_us"] = (stats.median(trace.api_overhead) * 1e6,
                                      len(trace.api_overhead))
        metrics["service.overhead_us"] = (
            stats.median(trace.service_overhead) * 1e6, len(trace.service_overhead))
    roots = [traced.root for traced in trace.traced]
    own = self_times(log.spans)
    covered = [1.0 - own[root.id] / root.seconds for root in roots if root.seconds]
    if covered:
        metrics["trace.staged_coverage"] = (stats.median(covered), len(covered))
    return metrics


#: share metric -> the span layers it sums
_SHARE_LAYERS = {
    "share.vql_pct": ("vql",),
    "share.algebra_pct": ("algebra",),
    "share.optimizer_pct": ("optimizer",),
    "share.physical_pct": ("physical",),
    "share.datamodel_write_pct": ("datamodel",),
    "share.storage_pct": ("storage",),
    "share.api_service_pct": ("api+service",),
}


def _shares(log: SpanLog, trace: _Trace):
    """Where a statement's time goes, layer by layer.

    The staged spans give each layer's self time; what the front end took
    beyond their sum is the ``api`` + ``service`` layers' own work (router,
    statement LRU, fingerprint, cache lookup, binding, metrics, row
    stream).  Each traced statement counts with the weight of the
    operations it stands for.  Returns the share metrics for the whole
    workload and the per-shape table.
    """
    own = self_times(log.spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in log.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    overall: dict[str, float] = defaultdict(float)
    by_shape: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    front_end: dict[str, list[float]] = defaultdict(list)
    for traced in trace.traced:
        staged = 0.0
        for child in children[traced.root.id]:
            layer = layer_of(child.name)
            staged += child.seconds
            overall[layer] += own[child.id] * traced.weight
            by_shape[traced.shape][layer] += own[child.id] * traced.weight
        rest = max(traced.front_seconds - staged, 0.0) * traced.weight
        overall["api+service"] += rest
        by_shape[traced.shape]["api+service"] += rest
        front_end[traced.shape].append(traced.front_seconds)
    # an operation that paid for an auto-checkpoint waited on storage; all of
    # them are seen (weight 1) and none is replayed
    for shape, seconds in trace.stalls:
        overall["storage"] += seconds
        by_shape[shape]["storage"] += seconds
    whole = sum(overall.values()) or 1.0
    shares = {metric: (100.0 * sum(overall[layer] for layer in layers) / whole,
                       len(trace.traced))
              for metric, layers in _SHARE_LAYERS.items()}
    table = {}
    for shape, layers in by_shape.items():
        total = sum(layers.values()) or 1.0
        table[shape] = {"traced": len(front_end[shape]),
                        "front_end_median_us": 1e6 * stats.median(front_end[shape]),
                        **{layer: round(100.0 * seconds / total, 2)
                           for layer, seconds in sorted(layers.items())}}
    return shares, table
