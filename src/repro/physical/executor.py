"""The compiled, batch-at-a-time execution engine: compile once, execute many.

:func:`prepare_plan` translates a physical plan *once* into a tree of
generator factories whose expressions are already compiled column closures
(:mod:`repro.physical.compiler`); each :meth:`PreparedExecutable.run` only
instantiates fresh iterators.  Operators pull **column batches**
(:class:`repro.physical.batch.Batch`: a row count plus ``ref -> list``
columns) from their inputs: leaf scans cut their OIDs into batches of at
most :data:`~repro.physical.batch.BATCH_SIZE` rows, filters select rows of
a batch, maps add a column, joins and flattening re-cut their fan-out to
the same bound — so Filter→Map→Project chains stream batch by batch
without materializing intermediate lists.  Row dicts are built only where
rows leave the engine (:meth:`PreparedExecutable.run` and ``open``).
:func:`execute_plan` is the one-shot spelling of the same engine —
``prepare_plan(...).run()`` — and the row-at-a-time reference interpreter
(:mod:`repro.physical.interpreter`) is the independent oracle both are
differentially tested against.

Bind parameters compile into reads from a :class:`BindingEnv`, a
thread-local cell the executable fills for the duration of one ``run`` —
many threads can execute the same prepared plan concurrently with different
bindings.  Everything that touches database *state* (extensions, index
lookups, probe-set construction) is evaluated per run, never at prepare
time, so a prepared plan stays correct across data changes; only DDL
(dropping an index a plan scans) can break it, which the plan cache's
version counters guard against.

The contract is the interpreter's: a list of rows — mappings from
references to values — with the algebra's set semantics (duplicate
elimination at projections, unions and set scans; the other operators
preserve distinctness of their inputs).  Row order, work counters and the
first failing row's error within an operator match the reference engine.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.algebra.expressions import Expression
from repro.datamodel.database import Database
from repro.errors import ExecutionError
from repro.physical.batch import Batch, concat, regroup, split
from repro.physical.compiler import ExpressionCompiler
from repro.physical.evaluator import hashable_values
from repro.physical.interpreter import (
    _eq_oids,
    _iterate_set,
    _range_oids,
    _require_index,
)
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    FlattenEval,
    HashJoin,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    MapEval,
    NaturalMergeJoin,
    NestedLoopJoin,
    PhysicalOperator,
    ProjectOp,
    SetProbeFilter,
    UnionOp,
)
from repro.telemetry.spans import child_span

__all__ = ["BindingEnv", "PreparedExecutable", "Row", "execute_plan",
           "prepare_plan"]

Row = dict[str, Any]
#: a generator factory: each call opens a fresh batch iterator
Source = Callable[[], Iterator[Batch]]


class BindingEnv:
    """Thread-local bind-parameter values for one prepared plan.

    The compiled closures capture :meth:`resolve`; :meth:`push`/
    :meth:`restore` bracket one execution, saving the previous cell so that
    a method implementation that re-enters the service on the same thread
    does not clobber the outer execution's bindings.
    """

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def push(self, bindings: Optional[Mapping[str, Any]]) -> Any:
        previous = getattr(self._local, "bindings", None)
        self._local.bindings = bindings
        return previous

    def restore(self, previous: Any) -> None:
        self._local.bindings = previous

    def resolve(self, key: str) -> Any:
        bindings = getattr(self._local, "bindings", None)
        if bindings is None or key not in bindings:
            display = f"?{key}" if key.isdigit() else f":{key}"
            raise ExecutionError(
                f"bind parameter {display} has no bound value")
        return bindings[key]


class PreparedExecutable:
    """A physical plan with all expressions compiled, ready to run.

    *profile* (a :class:`repro.physical.profile.PlanProfile`) enables the
    per-operator EXPLAIN ANALYZE counters.  A profiled executable shares its
    profile across runs (counters accumulate), so the service builds a fresh
    instance per ``EXPLAIN ANALYZE`` instead of profiling cached plans.
    """

    def __init__(self, plan: PhysicalOperator, database: Database,
                 profile=None):
        self.plan = plan
        self.database = database
        self.profile = profile
        self._env = BindingEnv()
        compiler = ExpressionCompiler(database,
                                      parameter_resolver=self._env.resolve,
                                      profile=profile)
        with child_span("compile", profiled=profile is not None):
            self._root = _build(plan, database, compiler, self._env)

    def run(self, bindings: Optional[Mapping[str, Any]] = None) -> list[Row]:
        """Execute the plan with *bindings* and return the result rows.

        The result is fully materialized before the bindings are released,
        so the returned list never depends on the (thread-local) environment.
        """
        rows: list[Row] = []
        with self.binding_scope(bindings):
            for batch in self._root():
                rows += batch.rows()
        return rows

    def open(self) -> Iterator[Row]:
        """A fresh, *lazy* row iterator over the plan (the streaming feed
        behind the statement API's cursor).

        The iterator performs no database work until it is advanced, and it
        is **unbracketed**: the caller must activate the bindings around
        every advance via :meth:`binding_scope`, e.g.::

            rows = executable.open()
            with executable.binding_scope({"n": 3}):
                first = next(rows)

        This keeps the thread-local binding cell scoped to the moments the
        plan actually evaluates, so interleaved ``run`` calls (or other
        streams) on the same thread cannot observe a foreign binding set.
        The plan advances one batch at a time: an advance that exhausts the
        current batch computes the next one, so a consumer that stops early
        has paid for at most one batch beyond the rows it took.
        """
        return _rows(self._root())

    @contextmanager
    def binding_scope(self, bindings: Optional[Mapping[str, Any]]):
        """Activate *bindings* on the calling thread for the ``with`` body."""
        previous = self._env.push(bindings)
        try:
            yield
        finally:
            self._env.restore(previous)


def _rows(batches: Iterator[Batch]) -> Iterator[Row]:
    """The rows of *batches*, built one batch at a time.  A generator, so
    closing it early closes the operator tree beneath it."""
    try:
        yield from chain.from_iterable(map(Batch.rows, batches))
    finally:
        batches.close()


def prepare_plan(plan: PhysicalOperator, database: Database,
                 profile=None) -> PreparedExecutable:
    """Compile *plan* once for repeated execution against *database*.

    With *profile* the executable runs instrumented (see
    :class:`PreparedExecutable`) — the service uses this to watch the first
    execution of a plan for estimate/actual divergence.
    """
    return PreparedExecutable(plan, database, profile=profile)


def execute_plan(plan: PhysicalOperator, database: Database,
                 profile=None) -> list[Row]:
    """Compile and execute *plan* once: ``prepare_plan(...).run()``.

    *profile* (a :class:`repro.physical.profile.PlanProfile`) enables the
    per-operator row/open/elapsed counters; work counters and results are
    unaffected.  A plan with unbound
    :class:`~repro.algebra.expressions.Parameter` leaves raises on
    evaluation, exactly like the interpreter.
    """
    executable = prepare_plan(plan, database, profile)
    with child_span("execute", engine="compiled") as span:
        rows = executable.run()
        if span is not None:
            span.annotate(rows=len(rows))
    return rows


# ----------------------------------------------------------------------
# builders: compile at build time, touch database state at run time
# ----------------------------------------------------------------------
def _build(plan: PhysicalOperator, database: Database,
           compiler: ExpressionCompiler,
           env: BindingEnv) -> Source:
    builder = _BUILDERS.get(type(plan))
    if builder is None:
        raise ExecutionError(f"unknown physical operator {plan!r}")
    source = builder(plan, database, compiler, env)
    profile = compiler.profile
    if profile is None:
        return source

    def profiled() -> Iterator[Batch]:
        return profile.wrap(plan, source())

    return profiled


# ----------------------------------------------------------------------
# batch helpers shared by the operators below
# ----------------------------------------------------------------------
def _selected(batch: Batch, keep: list[int]) -> Optional[Batch]:
    """*batch* restricted to the rows at *keep* (None when empty)."""
    if len(keep) == batch.length:
        return batch
    return batch.take(keep) if keep else None


def _joined(left: Batch, right: Batch,
            matches: Iterable[tuple[int, list[int]]]) -> Iterator[Batch]:
    """``{**left_row, **right_row}`` for every (left row, matching right
    rows) pair of *matches*, in order, cut into bounded batches."""
    for left_rows, right_rows in regroup(matches):
        yield Batch(len(left_rows), {**left.gather(left_rows),
                                     **right.gather(right_rows)})


def _extended(batch: Batch, ref: str,
              matches: Iterable[tuple[int, list]]) -> Iterator[Batch]:
    """``{**row, ref: value}`` for every (row, values) pair of *matches*,
    in order, cut into bounded batches."""
    for rows, values in regroup(matches):
        yield Batch(len(rows), {**batch.gather(rows), ref: values})


def _hash_table(keys: Iterable[Any]) -> dict[Any, list[int]]:
    """Row positions per hashable key, in row order (the build side)."""
    table: dict[Any, list[int]] = {}
    for row, key in enumerate(keys):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


def _probe(table: dict[Any, list[int]], keys: Iterable[Any]
           ) -> Iterator[tuple[int, list[int]]]:
    """(probe row, matching build rows) for every probe row with matches."""
    get = table.get
    for row, key in enumerate(keys):
        matches = get(key)
        if matches:
            yield row, matches


def _row_keys(batch: Batch) -> list[Any]:
    """One key per row equating rows exactly when ``make_hashable`` of
    their dicts is equal (the set-operator duplicate test)."""
    names = tuple(sorted(batch.columns))
    if not names:
        return [(names, ())] * batch.length
    hashed = [hashable_values(batch.columns[name]) for name in names]
    return [(names, values) for values in zip(*hashed)]


def _hashed_column(batch: Batch, ref: str) -> list[Any]:
    """``make_hashable(row.get(ref))`` for every row of *batch*."""
    column = batch.columns.get(ref)
    if column is None:
        return [None] * batch.length
    return hashable_values(column)


def _common_keys(batch: Batch, refs: tuple[str, ...]) -> Iterable[Any]:
    """The natural-join key of every row: its hashed values of *refs*."""
    return zip(*[_hashed_column(batch, ref) for ref in refs])


# ----------------------------------------------------------------------
# access paths.  Index resolution is written once per lookup kind: require
# the index, resolve the key/bounds, count the lookup, return OIDs in OID
# order — all at run time (the index handle is resolved per execution: DDL
# between runs is guarded by the plan cache's index version, but stay
# defensive).
# ----------------------------------------------------------------------
def _run_time_value(value: Any, compiler: ExpressionCompiler
                    ) -> Callable[[], Any]:
    """A scan key or bound: Expression values (bind parameters) compile
    once and resolve once per execution, plan-time values are captured."""
    if isinstance(value, Expression):
        return compiler.compile_scalar(value)
    return lambda: value


def _eq_lookup(plan: IndexEqScan, database: Database,
               compiler: ExpressionCompiler) -> Callable[[], list]:
    key_fn = _run_time_value(plan.key, compiler)

    def lookup() -> list:
        index = _require_index(plan, database)
        return _eq_oids(plan, database, index, key_fn())

    return lookup


def _range_lookup(plan: IndexRangeScan, database: Database,
                  compiler: ExpressionCompiler) -> Callable[[], list]:
    low_fn = _run_time_value(plan.low, compiler)
    high_fn = _run_time_value(plan.high, compiler)

    def lookup() -> list:
        index = _require_index(plan, database, kind="sorted")
        return _range_oids(plan, database, index, low_fn(), high_fn())

    return lookup


def _leaf_scan(ref: str, elements: Callable[[], list]) -> Source:
    """The elements *elements* returns at run time as a ``ref`` column, in
    batches of at most BATCH_SIZE rows (the body every sequential access
    path shares)."""
    def run() -> Iterator[Batch]:
        values = elements()
        yield from split(Batch(len(values), {ref: values}))

    return run


def _class_scan(plan: ClassScan, database: Database,
                compiler: ExpressionCompiler,
                env: BindingEnv) -> Source:
    class_name = plan.class_name
    return _leaf_scan(plan.ref, lambda: database.extension(class_name))


def _index_eq_scan(plan: IndexEqScan, database: Database,
                   compiler: ExpressionCompiler,
                   env: BindingEnv) -> Source:
    return _leaf_scan(plan.ref, _eq_lookup(plan, database, compiler))


def _index_range_scan(plan: IndexRangeScan, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    return _leaf_scan(plan.ref, _range_lookup(plan, database, compiler))


def _expression_set_scan(plan: ExpressionSetScan, database: Database,
                         compiler: ExpressionCompiler,
                         env: BindingEnv) -> Source:
    value_fn = compiler.compile_scalar(plan.expression)
    return _leaf_scan(plan.ref, lambda: _iterate_set(value_fn(), plan))


# ----------------------------------------------------------------------
# streaming unary operators
# ----------------------------------------------------------------------
def _filter(plan: Filter, database: Database,
            compiler: ExpressionCompiler,
            env: BindingEnv) -> Source:
    predicate = compiler.compile(plan.condition)
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Batch]:
        for batch in source():
            kept = _selected(batch, [row for row, value
                                     in enumerate(predicate(batch)) if value])
            if kept is not None:
                yield kept

    return run


def _set_probe_filter(plan: SetProbeFilter, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    value_fn = compiler.compile_scalar(plan.set_expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Batch]:
        # The probe set depends on database state (and possibly parameters):
        # build it per execution — always, matching the reference engine's
        # work counters even for empty inputs.
        members = set(hashable_values(_iterate_set(value_fn(), plan)))
        for batch in source():
            kept = _selected(batch, [row for row, key
                                     in enumerate(_hashed_column(batch, ref))
                                     if key in members])
            if kept is not None:
                yield kept

    return run


def _map_eval(plan: MapEval, database: Database,
              compiler: ExpressionCompiler,
              env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Batch]:
        for batch in source():
            yield Batch(batch.length,
                        {**batch.columns, ref: expression(batch)})

    return run


def _flatten_eval(plan: FlattenEval, database: Database,
                  compiler: ExpressionCompiler,
                  env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Batch]:
        for batch in source():
            yield from _extended(batch, ref, (
                (row, _iterate_set(value, plan, allow_none=True))
                for row, value in enumerate(expression(batch))))

    return run


def _project(plan: ProjectOp, database: Database,
             compiler: ExpressionCompiler,
             env: BindingEnv) -> Source:
    kept = plan.kept  # sorted by construction, so keys make a stable dedup key
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Batch]:
        seen: set[Any] = set()
        for batch in source():
            length = batch.length
            columns = batch.columns
            # a reference the rows do not bind projects to NULL
            projected = {name: columns[name] if name in columns
                         else [None] * length for name in kept}
            if len(kept) == 1:
                keys: Iterable[Any] = hashable_values(projected[kept[0]])
            elif kept:
                keys = zip(*map(hashable_values, projected.values()))
            else:
                keys = [()] * length
            fresh = []
            for row, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    fresh.append(row)
            if fresh:
                batch = Batch(length, projected)
                yield batch if len(fresh) == length else batch.take(fresh)

    return run


# ----------------------------------------------------------------------
# joins (build side materialized once per run, probe side streamed)
# ----------------------------------------------------------------------
def _nested_loop_join(plan: NestedLoopJoin, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    predicate = compiler.compile(plan.condition)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Batch]:
        right = concat(right_source())
        every_right_row = range(right.length)
        for left in left_source():
            if not right.length:
                continue
            for pairs in _joined(left, right, ((row, every_right_row)
                                               for row in range(left.length))):
                kept = _selected(pairs, [row for row, value
                                         in enumerate(predicate(pairs))
                                         if value])
                if kept is not None:
                    yield kept

    return run


def _hash_join(plan: HashJoin, database: Database,
               compiler: ExpressionCompiler,
               env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    right_key = compiler.compile(plan.right_key)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Batch]:
        right_batches = list(right_source())
        right = concat(right_batches)
        table = _hash_table(key for batch in right_batches
                            for key in hashable_values(right_key(batch)))
        for left in left_source():
            yield from _joined(left, right, _probe(
                table, hashable_values(left_key(left))))

    return run


def _index_nested_loop_join(plan: IndexNestedLoopJoin, database: Database,
                            compiler: ExpressionCompiler,
                            env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    left_source = _build(plan.left, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Batch]:
        index = _require_index(plan, database)
        for left in left_source():
            # OID-sorted probe result, matching IndexEqScan's order.
            yield from _extended(left, ref, (
                (row, _eq_oids(plan, database, index, key))
                for row, key in enumerate(left_key(left))))

    return run


def _natural_merge_join(plan: NaturalMergeJoin, database: Database,
                        compiler: ExpressionCompiler,
                        env: BindingEnv) -> Source:
    common = plan.common_refs()
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Batch]:
        right = concat(right_source())
        # Without common references the join degenerates to a cartesian
        # product, as in the logical algebra: every key is ().
        table = _hash_table(_common_keys(right, common) if common
                            else [()] * right.length)
        for left in left_source():
            keys = (_common_keys(left, common) if common
                    else [()] * left.length)
            yield from _joined(left, right, _probe(table, keys))

    return run


# ----------------------------------------------------------------------
# set operators (streaming dedup)
# ----------------------------------------------------------------------
def _union(plan: UnionOp, database: Database,
           compiler: ExpressionCompiler,
           env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Batch]:
        seen: set[Any] = set()
        for source in (left_source, right_source):
            for batch in source():
                fresh = []
                for row, key in enumerate(_row_keys(batch)):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(row)
                kept = _selected(batch, fresh)
                if kept is not None:
                    yield kept

    return run


def _diff(plan: DiffOp, database: Database,
          compiler: ExpressionCompiler,
          env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Batch]:
        right_keys = {key for batch in right_source()
                      for key in _row_keys(batch)}
        seen: set[Any] = set()
        for batch in left_source():
            fresh = []
            for row, key in enumerate(_row_keys(batch)):
                if key in seen:
                    continue
                seen.add(key)
                if key not in right_keys:
                    fresh.append(row)
            kept = _selected(batch, fresh)
            if kept is not None:
                yield kept

    return run


_BUILDERS = {
    ClassScan: _class_scan,
    IndexEqScan: _index_eq_scan,
    IndexRangeScan: _index_range_scan,
    ExpressionSetScan: _expression_set_scan,
    Filter: _filter,
    SetProbeFilter: _set_probe_filter,
    MapEval: _map_eval,
    FlattenEval: _flatten_eval,
    ProjectOp: _project,
    NestedLoopJoin: _nested_loop_join,
    IndexNestedLoopJoin: _index_nested_loop_join,
    HashJoin: _hash_join,
    NaturalMergeJoin: _natural_merge_join,
    UnionOp: _union,
    DiffOp: _diff,
}
