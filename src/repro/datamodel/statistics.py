"""Work counters and optimizer statistics for the database layer.

Two families of statistics live here:

* :class:`DatabaseStatistics` — mutable *work counters* (property reads,
  method invocations, index lookups, abstract cost units).  Logical work is
  deterministic and therefore the primary quantity checked by tests;
  wall-clock time is reported by pytest-benchmark.

* the **optimizer statistics catalog** — per-class/per-property data
  distributions (:class:`ClassStatistics`, :class:`PropertyStatistics`,
  :class:`EquiDepthHistogram`) and per-method *measured* latencies
  (:class:`MethodStatistics`), collected by the ``ANALYZE`` statement and
  held in a :class:`StatisticsCatalog` owned by the database.  The cost
  model (:mod:`repro.optimizer.cost`) derives selectivities and method
  costs from this catalog instead of guessing flat defaults; the catalog is
  maintained *incrementally* under the database's
  :class:`~repro.datamodel.database.VersionClock`: the mutation paths note
  per-class churn so stale statistics stop being served, and ``ANALYZE``
  bumps the clock's ``stats`` counter so cached plans re-optimize.
"""

from __future__ import annotations

import bisect
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Optional

from repro.datamodel.oid import is_collection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datamodel.database import Database


@dataclass
class DatabaseStatistics:
    """Mutable counters describing the work performed by a database."""

    property_reads: int = 0
    property_writes: int = 0
    objects_created: int = 0
    objects_deleted: int = 0
    method_calls: Counter = field(default_factory=Counter)
    external_method_calls: Counter = field(default_factory=Counter)
    class_method_calls: Counter = field(default_factory=Counter)
    index_lookups: int = 0
    extension_scans: int = 0
    method_cost_units: float = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_property_read(self) -> None:
        self.property_reads += 1

    def record_property_write(self) -> None:
        self.property_writes += 1

    def record_object_created(self) -> None:
        self.objects_created += 1

    def record_object_deleted(self) -> None:
        self.objects_deleted += 1

    def record_method_call(self, class_name: str, method_name: str,
                           external: bool, class_level: bool,
                           cost: float) -> None:
        key = f"{class_name}.{method_name}"
        self.method_calls[key] += 1
        if external:
            self.external_method_calls[key] += 1
        if class_level:
            self.class_method_calls[key] += 1
        self.method_cost_units += cost

    def record_index_lookup(self) -> None:
        self.index_lookups += 1

    def record_extension_scan(self) -> None:
        self.extension_scans += 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def total_method_calls(self) -> int:
        return sum(self.method_calls.values())

    def total_external_calls(self) -> int:
        return sum(self.external_method_calls.values())

    def calls_of(self, class_name: str, method_name: str) -> int:
        return self.method_calls.get(f"{class_name}.{method_name}", 0)

    def snapshot(self) -> Mapping[str, float]:
        """A flat, copyable view used by the benchmark harness."""
        return {
            "property_reads": self.property_reads,
            "property_writes": self.property_writes,
            "objects_created": self.objects_created,
            "objects_deleted": self.objects_deleted,
            "method_calls": self.total_method_calls(),
            "external_method_calls": self.total_external_calls(),
            "index_lookups": self.index_lookups,
            "extension_scans": self.extension_scans,
            "method_cost_units": self.method_cost_units,
        }

    def reset(self) -> None:
        self.property_reads = 0
        self.property_writes = 0
        self.objects_created = 0
        self.objects_deleted = 0
        self.method_calls.clear()
        self.external_method_calls.clear()
        self.class_method_calls.clear()
        self.index_lookups = 0
        self.extension_scans = 0
        self.method_cost_units = 0.0

    def diff(self, earlier: Mapping[str, float]) -> dict[str, float]:
        """Difference between the current snapshot and an *earlier* one."""
        now = self.snapshot()
        return {key: now[key] - earlier.get(key, 0) for key in now}


# ----------------------------------------------------------------------
# optimizer statistics: histograms, per-property and per-method stats
# ----------------------------------------------------------------------

#: abstract cost units one property read is charged by the cost model
#: (mirrors ``CostModel.PROPERTY_ACCESS_COST``); method latency measured by
#: ANALYZE is calibrated against the measured property-read latency so that
#: ``calibrated cost = (method seconds / read seconds) × this constant``
PROPERTY_READ_COST_UNITS = 0.2

#: types equi-depth histograms are built over (mutually orderable scalars)
_ORDERABLE = (int, float, str)


def _hashable(value: Any) -> Any:
    """A hashable stand-in for *value* (for distinct counting)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over the non-null values of one property.

    ``boundaries`` has ``len(counts) + 1`` entries; bucket *i* covers the
    half-open interval ``[boundaries[i], boundaries[i+1])`` (the last bucket
    is closed).  Equi-depth means every bucket holds roughly the same number
    of rows, so heavily skewed distributions get fine boundaries exactly
    where the mass sits.
    """

    boundaries: tuple
    counts: tuple[int, ...]
    total: int

    @classmethod
    def build(cls, values: list, buckets: int = 16
              ) -> Optional["EquiDepthHistogram"]:
        """Build a histogram, or None when the values are not orderable."""
        orderable = [v for v in values
                     if isinstance(v, _ORDERABLE) and not isinstance(v, bool)]
        if len(orderable) < 2 or len({type(v) is str for v in orderable}) > 1:
            return None
        ordered = sorted(orderable)
        total = len(ordered)
        buckets = max(1, min(buckets, total))
        boundaries = [ordered[0]]
        counts = []
        consumed = 0
        for i in range(1, buckets + 1):
            upto = round(i * total / buckets)
            if upto <= consumed:
                continue
            counts.append(upto - consumed)
            boundaries.append(ordered[upto - 1])
            consumed = upto
        return cls(boundaries=tuple(boundaries), counts=tuple(counts),
                   total=total)

    def fraction_leq(self, value: Any) -> float:
        """Fraction of rows with value ``<=`` *value* (interpolated)."""
        boundaries = self.boundaries
        try:
            if value < boundaries[0]:
                return 0.0
            if value >= boundaries[-1]:
                return 1.0
        except TypeError:
            return 0.5
        bucket = max(bisect.bisect_right(boundaries, value) - 1, 0)
        below = sum(self.counts[:bucket]) / self.total
        low, high = boundaries[bucket], boundaries[bucket + 1]
        if isinstance(value, (int, float)) and isinstance(low, (int, float)) \
                and high != low:
            within = (value - low) / (high - low)
        else:
            within = 0.5
        return min(below + max(min(within, 1.0), 0.0)
                   * self.counts[bucket] / self.total, 1.0)

    def selectivity_cmp(self, op: str, value: Any) -> float:
        """Selectivity of ``property OP value`` for ``<``/``<=``/``>``/``>=``."""
        leq = self.fraction_leq(value)
        if op in ("<", "<="):
            return leq
        return max(1.0 - leq, 0.0)

    def selectivity_range(self, low: Any = None, high: Any = None) -> float:
        """Fraction of rows falling into ``[low, high]`` (open-ended bounds
        when None); boundary inclusiveness is below histogram resolution."""
        upper = 1.0 if high is None else self.fraction_leq(high)
        lower = 0.0 if low is None else self.fraction_leq(low)
        return max(upper - lower, 0.0)


@dataclass(frozen=True)
class PropertyStatistics:
    """Measured distribution of one property over one class extension."""

    name: str
    #: rows sampled (including nulls) and the non-null subset
    row_count: int
    non_null: int
    distinct: int
    null_fraction: float
    min_value: Any = None
    max_value: Any = None
    histogram: Optional[EquiDepthHistogram] = None
    #: the most frequent values and their counts (captures heavy skew that
    #: the uniform 1/distinct assumption misses)
    most_common: tuple[tuple[Any, int], ...] = ()
    #: average elements per row for set-valued properties, else None
    avg_fanout: Optional[float] = None

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows with ``property == value``."""
        if self.row_count <= 0:
            return 0.0
        if value is None:
            return self.null_fraction
        key = _hashable(value)
        mcv_total = 0
        for candidate, count in self.most_common:
            if candidate == key:
                return count / self.row_count
            mcv_total += count
        if self.min_value is not None and self.max_value is not None:
            try:
                if value < self.min_value or value > self.max_value:
                    return 0.5 / self.row_count
            except TypeError:
                pass
        remaining_rows = max(self.non_null - mcv_total, 0)
        remaining_distinct = max(self.distinct - len(self.most_common), 1)
        return remaining_rows / remaining_distinct / max(self.row_count, 1)

    def selectivity_unknown_eq(self) -> float:
        """Equality selectivity when the comparison value is unknown (bind
        parameters): the average bucket under uniform value choice."""
        if self.row_count <= 0 or self.distinct <= 0:
            return 0.0
        return self.non_null / self.distinct / max(self.row_count, 1)

    def selectivity_cmp(self, op: str, value: Any) -> Optional[float]:
        """Histogram selectivity of a range comparison, or None without a
        histogram (caller falls back to the documented default)."""
        if self.histogram is None:
            return None
        non_null_fraction = 1.0 - self.null_fraction
        return self.histogram.selectivity_cmp(op, value) * non_null_fraction

    def selectivity_range(self, low: Any = None, high: Any = None
                          ) -> Optional[float]:
        """Histogram selectivity of ``low <= property <= high``, or None."""
        if self.histogram is None:
            return None
        non_null_fraction = 1.0 - self.null_fraction
        return self.histogram.selectivity_range(low, high) * non_null_fraction


class ColumnIdentity(NamedTuple):
    """The column an equi-join key denotes, as join estimates and join
    feedback corrections know it: the property *path* read from a scanned
    reference (``()`` for the reference itself, ``("number",)``,
    ``("section", "document")``) and the *classes* it reads — the scanned
    class first, then the target of each hop before the last, so the last
    class owns the last hop, whose statistics price the column."""

    path: tuple[str, ...]
    classes: tuple[str, ...]

    @classmethod
    def of(cls, class_name: str, prop: Optional[str]) -> "ColumnIdentity":
        """A scanned class's own column: one of its properties, or (prop
        None) the scanned object itself."""
        return cls((prop,) if prop is not None else (), (class_name,))

    @property
    def scanned(self) -> str:
        return self.classes[0]

    @property
    def owner(self) -> str:
        return self.classes[-1]

    @property
    def prop(self) -> Optional[str]:
        return self.path[-1] if self.path else None


@dataclass
class CorrectionRecord:
    """One feedback correction learned from a measured execution.

    The adaptive re-optimization loop (see ``QueryService``) compares each
    operator's estimated output cardinality with the profiled actual; when
    the divergence exceeds its threshold, the *observed* selectivity is
    recorded here so the next planning pass uses measured numbers instead of
    the model's derivation.  ``key`` identifies the join column pair or the
    normalized per-class predicate the correction applies to."""

    kind: str  # "join" | "predicate"
    key: tuple
    observed: float
    estimated: float
    updates: int = 1


@dataclass(frozen=True)
class MethodStatistics:
    """Measured latency (and result fan-out) of one zero-argument method."""

    name: str
    qualified_name: str
    samples: int
    avg_seconds: float
    #: abstract cost units per call, calibrated against the measured
    #: property-read latency (comparable to ``MethodDef.cost_per_call``)
    cost_units: float
    #: average result-set size for set-returning methods, else None
    avg_result_cardinality: Optional[float] = None


@dataclass
class ClassStatistics:
    """Statistics of one class extension as of one ANALYZE run."""

    class_name: str
    #: deep extension size (instances of the class and its subclasses)
    row_count: int
    #: the data version the statistics were collected at
    data_version: int
    properties: dict[str, PropertyStatistics] = field(default_factory=dict)

    def property_statistics(self, prop: str) -> Optional[PropertyStatistics]:
        return self.properties.get(prop)


class StatisticsCatalog:
    """All optimizer statistics of one database.

    The catalog is populated by :meth:`analyze` (the ``ANALYZE`` statement)
    and consulted by the cost model.  Between ANALYZE runs it is maintained
    incrementally: the database's mutation paths call :meth:`note_mutation`
    (a cheap per-class counter), and :meth:`fresh` stops serving a class's
    statistics once churn since collection exceeds ``staleness_fraction`` of
    the rows it was collected over — the cost model then falls back to its
    documented defaults instead of trusting stale histograms.
    """

    #: corrections are only re-recorded when the new observation differs
    #: from the stored one by more than this ratio (prevents a plan that is
    #: already corrected from oscillating on measurement noise)
    MATERIAL_CHANGE_RATIO = 1.25
    #: bound on stored corrections per kind (feedback is an override cache,
    #: not an unbounded log)
    MAX_CORRECTIONS = 256

    def __init__(self, staleness_fraction: float = 0.25):
        self.staleness_fraction = staleness_fraction
        self._classes: dict[str, ClassStatistics] = {}
        self._methods: dict[str, MethodStatistics] = {}
        self._mutations: Counter = Counter()
        #: feedback corrections from the adaptive re-optimization loop;
        #: keyed by join class-pair / normalized predicate identity
        self._join_corrections: dict[tuple, CorrectionRecord] = {}
        self._predicate_corrections: dict[tuple, CorrectionRecord] = {}
        #: measured seconds of one property read (method-cost calibration
        #: baseline); 0.0 until the first timed ANALYZE
        self.property_read_seconds: float = 0.0
        #: bumped once per ANALYZE run (mirrored into ``VersionClock.stats``)
        self.version = 0

    # ------------------------------------------------------------------
    # incremental maintenance (hot paths: keep these trivial)
    # ------------------------------------------------------------------
    def note_mutation(self, class_name: str, count: int = 1) -> None:
        """Record *count* creates/updates/deletes against *class_name*."""
        self._mutations[class_name] += count

    def mutations_since_analyze(self, class_name: str) -> int:
        return self._mutations.get(class_name, 0)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def class_statistics(self, class_name: str) -> Optional[ClassStatistics]:
        """The collected statistics for *class_name*, fresh or stale."""
        return self._classes.get(class_name)

    def fresh(self, class_name: str) -> Optional[ClassStatistics]:
        """The statistics for *class_name*, or None when absent or stale."""
        stats = self._classes.get(class_name)
        if stats is None:
            return None
        churn = self._mutations.get(class_name, 0)
        if churn > max(self.staleness_fraction * max(stats.row_count, 1), 1):
            return None
        return stats

    # ------------------------------------------------------------------
    # feedback corrections (adaptive re-optimization)
    # ------------------------------------------------------------------
    @staticmethod
    def _clamp_selectivity(value: float) -> Optional[float]:
        """Clamp an observed selectivity into ``(0, 1]``; None when the
        observation is not a usable number."""
        try:
            value = float(value)
        except (TypeError, ValueError):
            return None
        if value != value or value <= 0.0:  # NaN or degenerate
            return None
        return min(value, 1.0)

    def _record_correction(self, store: dict, kind: str, key: tuple,
                           observed: float, estimated: float) -> bool:
        """Record an observed selectivity; True when it materially changed
        the stored value (callers only invalidate plans on material change)."""
        observed = self._clamp_selectivity(observed)
        if observed is None:
            return False
        previous = store.get(key)
        if previous is not None:
            ratio = (max(previous.observed, observed)
                     / max(min(previous.observed, observed), 1e-12))
            if ratio <= self.MATERIAL_CHANGE_RATIO:
                previous.updates += 1
                return False
        if previous is None and len(store) >= self.MAX_CORRECTIONS:
            return False
        updates = previous.updates + 1 if previous is not None else 1
        store[key] = CorrectionRecord(kind=kind, key=key, observed=observed,
                                      estimated=estimated, updates=updates)
        return True

    def record_join_correction(self, key: tuple, observed: float,
                               estimated: float) -> bool:
        """Record the measured selectivity of one join column pair."""
        return self._record_correction(self._join_corrections, "join", key,
                                       observed, estimated)

    def record_predicate_correction(self, key: tuple, observed: float,
                                    estimated: float) -> bool:
        """Record the measured selectivity of one per-class predicate."""
        return self._record_correction(self._predicate_corrections,
                                       "predicate", key, observed, estimated)

    def join_correction(self, key: tuple) -> Optional[float]:
        record = self._join_corrections.get(key)
        return record.observed if record is not None else None

    def predicate_correction(self, key: tuple) -> Optional[float]:
        record = self._predicate_corrections.get(key)
        return record.observed if record is not None else None

    def correction_count(self) -> int:
        return len(self._join_corrections) + len(self._predicate_corrections)

    def corrections(self) -> list[CorrectionRecord]:
        """All stored corrections (joins first), for EXPLAIN and tests."""
        return (sorted(self._join_corrections.values(),
                       key=lambda r: str(r.key))
                + sorted(self._predicate_corrections.values(),
                         key=lambda r: str(r.key)))

    def clear_corrections(self) -> None:
        self._join_corrections.clear()
        self._predicate_corrections.clear()

    def method_statistics(self, method_name: str) -> Optional[MethodStatistics]:
        """Measured statistics for *method_name* (bare name, like the cost
        model's schema-wide method resolution)."""
        return self._methods.get(method_name)

    def analyzed_classes(self) -> list[str]:
        return list(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    # ------------------------------------------------------------------
    # collection (the ANALYZE statement)
    # ------------------------------------------------------------------
    def analyze(self, database: "Database",
                class_name: Optional[str] = None,
                histogram_buckets: int = 16,
                sample_limit: int = 20_000,
                most_common: int = 5,
                method_samples: int = 5,
                time_methods: bool = True) -> list[ClassStatistics]:
        """Collect statistics for *class_name* (or every class).

        Property values are read straight off the stored objects — ANALYZE
        is metadata collection, so it does not charge the work counters
        query executions are measured by (the extension scans it performs
        are charged, like any scan).  Zero-argument methods are additionally
        *timed* on a small sample of receivers to calibrate their per-call
        cost against measured property-read latency.
        """
        names = ([class_name] if class_name is not None
                 else database.schema.class_names())
        if time_methods:
            # Re-measure the calibration baseline once per ANALYZE run, so
            # a one-off load spike during an earlier run cannot skew every
            # later calibration.
            self.property_read_seconds = 0.0
        collected: list[ClassStatistics] = []
        for name in names:
            stats = self._collect_class(database, name, histogram_buckets,
                                        sample_limit, most_common)
            self._classes[name] = stats
            self._mutations[name] = 0
            collected.append(stats)
            if time_methods:
                self._calibrate_methods(database, name, method_samples)
        # Fresh ground truth supersedes feedback learned against the old
        # distributions: drop every correction that touches a re-analyzed
        # class so the next plan trusts the newly collected statistics.
        analyzed = set(names)
        for store in (self._join_corrections, self._predicate_corrections):
            for key in [k for k in store
                        if self._correction_classes(k) & analyzed]:
                del store[key]
        self.version += 1
        return collected

    @staticmethod
    def _correction_classes(key: tuple) -> set:
        """Class names a correction's observation depends on.  Join keys
        carry one :class:`ColumnIdentity` per side (every class its path
        reads), predicate keys a single ``(class_name, detail)`` pair."""
        classes: set = set()
        for part in key:
            if isinstance(part, ColumnIdentity):
                classes.update(part.classes)
            elif is_collection(part) and part:
                classes.add(part[0])
        return classes

    def _collect_class(self, database: "Database", class_name: str,
                       histogram_buckets: int, sample_limit: int,
                       most_common: int) -> ClassStatistics:
        oids = database.extension(class_name)
        sample = oids[:sample_limit]
        objects = [database.get(oid) for oid in sample]
        stats = ClassStatistics(class_name=class_name, row_count=len(oids),
                                data_version=database.versions.data)
        for prop in self._class_properties(database, class_name):
            values = [obj.get_or_none(prop) for obj in objects]
            stats.properties[prop] = self._collect_property(
                prop, values, histogram_buckets, most_common)
        return stats

    @staticmethod
    def _class_properties(database: "Database",
                          class_name: str) -> Iterable[str]:
        """Property names of *class_name* including inherited ones."""
        names: list[str] = []
        current: Optional[str] = class_name
        while current is not None:
            class_def = database.schema.get_class(current)
            names.extend(p for p in class_def.properties if p not in names)
            current = class_def.superclass
        return names

    @staticmethod
    def _collect_property(prop: str, values: list, histogram_buckets: int,
                          most_common: int) -> PropertyStatistics:
        row_count = len(values)
        non_null = [v for v in values if v is not None]
        null_fraction = (1.0 - len(non_null) / row_count) if row_count else 0.0

        fanouts = [len(v) for v in non_null
                   if is_collection(v)]
        avg_fanout = (sum(fanouts) / len(fanouts)) if fanouts else None

        frequencies = Counter(_hashable(v) for v in non_null)
        mcv = tuple((value, count)
                    for value, count in frequencies.most_common(most_common)
                    if count > 1)

        orderable = [v for v in non_null
                     if isinstance(v, _ORDERABLE) and not isinstance(v, bool)]
        histogram = None
        min_value = max_value = None
        if orderable and len({type(v) is str for v in orderable}) == 1:
            try:
                min_value, max_value = min(orderable), max(orderable)
            except TypeError:  # mixed incomparable scalars
                min_value = max_value = None
            else:
                histogram = EquiDepthHistogram.build(orderable,
                                                     histogram_buckets)

        return PropertyStatistics(
            name=prop, row_count=row_count, non_null=len(non_null),
            distinct=len(frequencies), null_fraction=null_fraction,
            min_value=min_value, max_value=max_value, histogram=histogram,
            most_common=mcv, avg_fanout=avg_fanout)

    # ------------------------------------------------------------------
    # method-cost calibration (timed sampling)
    # ------------------------------------------------------------------
    def _calibrate_methods(self, database: "Database", class_name: str,
                           method_samples: int) -> None:
        class_def = database.schema.get_class(class_name)
        receivers = database.extension(class_name, deep=False)[:method_samples]
        if not receivers:
            return
        self._measure_read_baseline(database, class_def, receivers)
        context = database.context
        for method in class_def.instance_methods.values():
            if method.implementation is None or method.arity != 0:
                continue  # cannot sample methods that need arguments
            elapsed = 0.0
            cardinalities: list[int] = []
            samples = 0
            for oid in receivers:
                started = time.perf_counter()
                try:
                    # Invoke the implementation directly: calibration must
                    # not pollute the database's work counters, which the
                    # benchmarks diff around measured query executions.
                    result = method.implementation(context, oid)
                except Exception:
                    continue  # a failing sample never poisons the catalog
                elapsed += time.perf_counter() - started
                samples += 1
                if is_collection(result):
                    cardinalities.append(len(result))
            if samples == 0:
                continue
            avg_seconds = elapsed / samples
            unit = max(self.property_read_seconds, 1e-8)
            cost_units = max(avg_seconds / unit * PROPERTY_READ_COST_UNITS,
                             0.05)
            avg_card = (sum(cardinalities) / len(cardinalities)
                        if cardinalities else None)
            self._methods[method.name] = MethodStatistics(
                name=method.name,
                qualified_name=f"{class_name}.{method.name}",
                samples=samples, avg_seconds=avg_seconds,
                cost_units=cost_units, avg_result_cardinality=avg_card)

    def _measure_read_baseline(self, database: "Database", class_def,
                               receivers: list) -> None:
        """Time raw property reads once per ANALYZE as the cost unit."""
        if self.property_read_seconds > 0.0 or not class_def.properties:
            return
        prop = next(iter(class_def.properties))
        objects = [database.get(oid) for oid in receivers]
        rounds = max(1000 // max(len(objects), 1), 1)
        started = time.perf_counter()
        for _ in range(rounds):
            for obj in objects:
                obj.get_or_none(prop)
        reads = rounds * len(objects)
        self.property_read_seconds = max(
            (time.perf_counter() - started) / max(reads, 1), 1e-9)

    def describe(self) -> str:
        """Human-readable catalog summary (used by ANALYZE's result)."""
        lines = [f"StatisticsCatalog(v{self.version}, "
                 f"{len(self._classes)} classes, "
                 f"{len(self._methods)} timed methods, "
                 f"{self.correction_count()} corrections)"]
        for name, stats in sorted(self._classes.items()):
            churn = self._mutations.get(name, 0)
            lines.append(f"  {name}: rows={stats.row_count}, "
                         f"properties={len(stats.properties)}, "
                         f"churn={churn}")
        for record in self.corrections():
            lines.append(f"  correction[{record.kind}] {record.key}: "
                         f"estimated={record.estimated:.4g} -> "
                         f"observed={record.observed:.4g} "
                         f"(x{record.updates})")
        return "\n".join(lines)
