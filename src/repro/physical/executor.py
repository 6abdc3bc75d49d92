"""The compiled, pipelined execution engine: compile once, execute many.

:func:`prepare_plan` translates a physical plan *once* into a tree of
generator factories whose expressions are already compiled closures
(:mod:`repro.physical.compiler`); each :meth:`PreparedExecutable.run` only
instantiates fresh iterators.  Operators pull rows from their inputs
(Volcano-style pipelining), so Filter→Map→Project chains stream without
materializing intermediate lists.  :func:`execute_plan` is the one-shot
spelling of the same engine — ``prepare_plan(...).run()`` — and the
reference interpreter (:mod:`repro.physical.interpreter`) is the
independent oracle both are differentially tested against.

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
preserve distinctness of their inputs).  Row order, work counters and error
messages match the reference engine.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.algebra.expressions import Expression
from repro.datamodel.database import Database
from repro.datamodel.versioning import current_pin
from repro.errors import ExecutionError
from repro.physical.compiler import ExpressionCompiler
from repro.physical.evaluator import EMPTY_ROW, make_hashable
from repro.physical.interpreter import (
    _eq_oids,
    _iterate_set,
    _range_oids,
    _require_index,
)
from repro.physical.parallel import (
    merge_hash_join,
    run_filter_morsels,
    run_key_morsels,
    run_map_morsels,
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
    ParallelHashJoin,
    ParallelIndexEqScan,
    ParallelIndexRangeScan,
    ParallelMap,
    ParallelScan,
    PhysicalOperator,
    ProjectOp,
    SetProbeFilter,
    UnionOp,
)
from repro.telemetry.spans import child_span

__all__ = ["BindingEnv", "PreparedExecutable", "Row", "execute_plan",
           "prepare_plan"]

Row = dict[str, Any]
#: a generator factory: each call opens a fresh row iterator
Source = Callable[[], Iterator[Row]]


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

    def current(self) -> Optional[Mapping[str, Any]]:
        """The bindings active on the calling thread (for propagation into
        parallel worker threads)."""
        return getattr(self._local, "bindings", None)

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
        with self.binding_scope(bindings):
            return list(self._root())

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
        """
        return self._root()

    @contextmanager
    def binding_scope(self, bindings: Optional[Mapping[str, Any]]):
        """Activate *bindings* on the calling thread for the ``with`` body."""
        previous = self._env.push(bindings)
        try:
            yield
        finally:
            self._env.restore(previous)


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

    def profiled() -> Iterator[Row]:
        return profile.wrap(plan, source())

    return profiled


# ----------------------------------------------------------------------
# access paths.  Index resolution is written once per lookup kind and
# shared by the sequential and the parallel scan: require the index,
# resolve the key/bounds, count the lookup, return OIDs in OID order — all
# at run time (the index handle is resolved per execution: DDL between
# runs is guarded by the plan cache's index version, but stay defensive).
# Keys and bounds are resolved on the calling thread, before any morsel
# fans out: the BindingEnv is thread-local.
# ----------------------------------------------------------------------
def _run_time_value(value: Any, compiler: ExpressionCompiler
                    ) -> Callable[[Mapping[str, Any]], Any]:
    """A scan key or bound as a closure over the (empty) row: Expression
    values (bind parameters) compile once and resolve once per execution,
    plan-time values are captured."""
    if isinstance(value, Expression):
        return compiler.compile(value)
    return lambda row: value


def _eq_lookup(plan: IndexEqScan, database: Database,
               compiler: ExpressionCompiler) -> Callable[[], list]:
    key_fn = _run_time_value(plan.key, compiler)

    def lookup() -> list:
        index = _require_index(plan, database)
        return _eq_oids(plan, database, index, key_fn(EMPTY_ROW))

    return lookup


def _range_lookup(plan: IndexRangeScan, database: Database,
                  compiler: ExpressionCompiler) -> Callable[[], list]:
    low_fn = _run_time_value(plan.low, compiler)
    high_fn = _run_time_value(plan.high, compiler)

    def lookup() -> list:
        index = _require_index(plan, database, kind="sorted")
        return _range_oids(plan, database, index,
                           low_fn(EMPTY_ROW), high_fn(EMPTY_ROW))

    return lookup


def _leaf_scan(ref: str, elements: Callable[[], Any]) -> Source:
    """One ``{ref: element}`` row per element *elements* yields at run time
    (the body every sequential access path shares)."""
    def run() -> Iterator[Row]:
        for element in elements():
            yield {ref: element}

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
    value_fn = compiler.compile(plan.expression)
    return _leaf_scan(plan.ref,
                      lambda: _iterate_set(value_fn(EMPTY_ROW), plan))


# ----------------------------------------------------------------------
# streaming unary operators
# ----------------------------------------------------------------------
def _filter(plan: Filter, database: Database,
            compiler: ExpressionCompiler,
            env: BindingEnv) -> Source:
    predicate = compiler.compile_predicate(plan.condition)
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Row]:
        for row in source():
            if predicate(row):
                yield row

    return run


def _set_probe_filter(plan: SetProbeFilter, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    value_fn = compiler.compile(plan.set_expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        # The probe set depends on database state (and possibly parameters):
        # build it per execution — always, matching the reference engine's
        # work counters even for empty inputs.
        members = {make_hashable(v)
                   for v in _iterate_set(value_fn(EMPTY_ROW), plan)}
        for row in source():
            if make_hashable(row.get(ref)) in members:
                yield row

    return run


def _map_eval(plan: MapEval, database: Database,
              compiler: ExpressionCompiler,
              env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        for row in source():
            yield {**row, ref: expression(row)}

    return run


def _flatten_eval(plan: FlattenEval, database: Database,
                  compiler: ExpressionCompiler,
                  env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        for row in source():
            for element in _iterate_set(expression(row), plan, allow_none=True):
                yield {**row, ref: element}

    return run


def _project(plan: ProjectOp, database: Database,
             compiler: ExpressionCompiler,
             env: BindingEnv) -> Source:
    kept = plan.kept  # sorted by construction, so keys make a stable dedup key
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Row]:
        seen: set[Any] = set()
        for row in source():
            key = tuple(make_hashable(row.get(ref)) for ref in kept)
            if key not in seen:
                seen.add(key)
                yield {ref: row.get(ref) for ref in kept}

    return run


# ----------------------------------------------------------------------
# joins (build side materialized once per run, probe side streamed)
# ----------------------------------------------------------------------
def _nested_loop_join(plan: NestedLoopJoin, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    predicate = compiler.compile_predicate(plan.condition)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_rows = list(right_source())
        for left_row in left_source():
            for right_row in right_rows:
                combined = {**left_row, **right_row}
                if predicate(combined):
                    yield combined

    return run


def _hash_join(plan: HashJoin, database: Database,
               compiler: ExpressionCompiler,
               env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    right_key = compiler.compile(plan.right_key)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_source():
            table[make_hashable(right_key(right_row))].append(right_row)
        for left_row in left_source():
            matches = table.get(make_hashable(left_key(left_row)))
            if matches:
                for right_row in matches:
                    yield {**left_row, **right_row}

    return run


def _index_nested_loop_join(plan: IndexNestedLoopJoin, database: Database,
                            compiler: ExpressionCompiler,
                            env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    left_source = _build(plan.left, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        index = _require_index(plan, database)
        for left_row in left_source():
            # OID-sorted probe result, matching IndexEqScan's order.
            for oid in _eq_oids(plan, database, index, left_key(left_row)):
                yield {**left_row, ref: oid}

    return run


def _natural_merge_join(plan: NaturalMergeJoin, database: Database,
                        compiler: ExpressionCompiler,
                        env: BindingEnv) -> Source:
    common = plan.common_refs()
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_rows = list(right_source())
        if not common:
            # Degenerates to a cartesian product, as in the logical algebra.
            for left_row in left_source():
                for right_row in right_rows:
                    yield {**left_row, **right_row}
            return
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_rows:
            key = tuple(make_hashable(right_row.get(ref)) for ref in common)
            table[key].append(right_row)
        for left_row in left_source():
            key = tuple(make_hashable(left_row.get(ref)) for ref in common)
            matches = table.get(key)
            if matches:
                for right_row in matches:
                    yield {**left_row, **right_row}

    return run


# ----------------------------------------------------------------------
# set operators (streaming dedup)
# ----------------------------------------------------------------------
def _union(plan: UnionOp, database: Database,
           compiler: ExpressionCompiler,
           env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        seen: set[Any] = set()
        for source in (left_source, right_source):
            for row in source():
                key = make_hashable(row)
                if key not in seen:
                    seen.add(key)
                    yield row

    return run


def _diff(plan: DiffOp, database: Database,
          compiler: ExpressionCompiler,
          env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_keys = {make_hashable(row) for row in right_source()}
        seen: set[Any] = set()
        for row in left_source():
            key = make_hashable(row)
            if key in seen:
                continue
            seen.add(key)
            if key not in right_keys:
                yield row

    return run


# ----------------------------------------------------------------------
# parallel operators (morsel-driven, ordered merge; the morsel bodies live
# in repro.physical.parallel).  Every worker re-pushes the run thread's
# bindings and re-activates its snapshot pin, so compiled Parameter
# closures resolve, and version chains read, correctly off-thread.
# ----------------------------------------------------------------------
def _bound_worker(env: BindingEnv
                  ) -> Callable[[Callable[[list], list]], Callable[[list], list]]:
    """A worker wrapper propagating the submitting thread's bindings and
    snapshot pin, so every morsel observes the same snapshot (and resolves
    the same parameters) as the coordinating statement."""
    bindings = env.current()
    pin = current_pin()

    def wrap(work: Callable[[list], list]) -> Callable[[list], list]:
        def bound(morsel: list) -> list:
            previous = env.push(bindings)
            try:
                if pin is not None:
                    with pin.activate():
                        return work(morsel)
                return work(morsel)
            finally:
                env.restore(previous)

        return bound

    return wrap


def _parallel_oid_scan(plan: ParallelScan | ParallelIndexEqScan
                       | ParallelIndexRangeScan,
                       batches: Callable[[], Any],
                       compiler: ExpressionCompiler,
                       env: BindingEnv) -> Source:
    """The shared body of the three parallel scans: *batches* produces the
    OID batches at run time, the residual predicate runs over morsels."""
    predicate = (compiler.compile_predicate(plan.condition)
                 if plan.condition is not None else None)
    ref = plan.ref
    degree = plan.degree

    def run() -> Iterator[Row]:
        yield from run_filter_morsels(batches(), predicate, ref, degree,
                                      wrap=_bound_worker(env))

    return run


def _parallel_scan(plan: ParallelScan, database: Database,
                   compiler: ExpressionCompiler,
                   env: BindingEnv) -> Source:
    class_name = plan.class_name
    return _parallel_oid_scan(
        plan, lambda: database.extension_partitions(class_name),
        compiler, env)


def _parallel_index_eq_scan(plan: ParallelIndexEqScan, database: Database,
                            compiler: ExpressionCompiler,
                            env: BindingEnv) -> Source:
    lookup = _eq_lookup(plan, database, compiler)
    return _parallel_oid_scan(plan, lambda: [lookup()], compiler, env)


def _parallel_index_range_scan(plan: ParallelIndexRangeScan,
                               database: Database,
                               compiler: ExpressionCompiler,
                               env: BindingEnv) -> Source:
    lookup = _range_lookup(plan, database, compiler)
    return _parallel_oid_scan(plan, lambda: [lookup()], compiler, env)


def _parallel_map(plan: ParallelMap, database: Database,
                  compiler: ExpressionCompiler,
                  env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref
    degree = plan.degree

    def run() -> Iterator[Row]:
        rows = list(source())
        yield from run_map_morsels(rows, expression, ref, degree,
                                   wrap=_bound_worker(env))

    return run


def _parallel_hash_join(plan: ParallelHashJoin, database: Database,
                        compiler: ExpressionCompiler,
                        env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    right_key = compiler.compile(plan.right_key)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)
    degree = plan.degree

    def run() -> Iterator[Row]:
        wrap = _bound_worker(env)
        # Build side first, then probe side: the sequential HashJoin's work
        # ordering, so statistics interleave the same way.
        right_rows = list(right_source())
        right_keys = run_key_morsels(right_rows, right_key, degree, wrap=wrap)
        left_rows = list(left_source())
        left_keys = run_key_morsels(left_rows, left_key, degree, wrap=wrap)
        yield from merge_hash_join(left_rows, left_keys,
                                   right_rows, right_keys)

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
    ParallelScan: _parallel_scan,
    ParallelIndexEqScan: _parallel_index_eq_scan,
    ParallelIndexRangeScan: _parallel_index_range_scan,
    ParallelMap: _parallel_map,
    ParallelHashJoin: _parallel_hash_join,
}
