"""Statistics-driven cost model for physical plans.

Algebraic optimization relies on equivalences *and* cost functions
(Section 2.3); the paper stresses that — unlike attributes — methods do not
have uniform access cost.  The model therefore charges per-tuple
scan/probe/projection work with small constants, per-invocation method
costs, and one-time costs for set-valued expressions a plan evaluates once
(e.g. ``Paragraph→retrieve_by_string`` in an :class:`ExpressionSetScan`).

Estimates are drawn from three tiers, best available wins:

1. **Measured statistics** — after ``ANALYZE``, the database's
   :class:`~repro.datamodel.statistics.StatisticsCatalog` supplies
   per-property equi-depth histograms, most-common values, distinct and
   null counts (predicate/join selectivities), measured set-valued
   fan-outs, and *timed* per-method cost calibration.  Stale statistics
   (churn past the catalog's staleness threshold) are not consulted.
2. **Live database state** — exact class-extension sizes, index distinct
   keys, and sampled set-valued fan-outs, whenever a database is attached.
3. **Documented defaults** — the flat constants below
   (``DEFAULT_SELECTIVITY``, ``EQUALITY_SELECTIVITY``,
   ``RANGE_SELECTIVITY``, schema ``cost_per_call`` annotations, ...),
   used only when neither measurement is available.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Expression,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
    conjuncts,
    free_vars,
    rename_vars,
    walk,
)
from repro.datamodel.database import Database
from repro.datamodel.oid import is_collection
from repro.datamodel.statistics import ColumnIdentity, PropertyStatistics
from repro.datamodel.schema import MethodDef, Schema
from repro.datamodel.types import SetType
from repro.errors import ReproError
from repro.datamodel.indexes import HashIndex
from repro.optimizer.inversion import INVERSION_MARK
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
    walk_physical,
)
from repro.vql.analyzer import class_of_type

__all__ = ["CostEstimate", "CostModel"]

#: sentinel for comparison values unknown at planning time (bind parameters)
_UNKNOWN_VALUE = object()


def _plan_time_value(operand: object) -> object:
    """What planning knows of a comparison operand, index key or range
    bound: a constant's value, an auto-parameter's costing hint (priced
    exactly like the literal it replaced), a plain plan-time value as is —
    else ``_UNKNOWN_VALUE``."""
    if isinstance(operand, Const):
        return operand.value
    if isinstance(operand, Parameter) and operand.hint is not None:
        return operand.hint
    if isinstance(operand, Expression):
        return _UNKNOWN_VALUE
    return operand

#: comparison operators flipped so the property lands on the left side
_FLIPPED_COMPARISON = {"==": "==", "!=": "!=",
                       "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class CostEstimate:
    """Estimated total cost and output cardinality of a plan."""

    cost: float
    cardinality: float

    def __str__(self) -> str:
        return f"cost={self.cost:.1f}, card={self.cardinality:.1f}"


class CostModel:
    """Cost and cardinality estimation for physical plans."""

    # per-tuple constants (abstract cost units)
    TUPLE_SCAN_COST = 1.0
    TUPLE_EMIT_COST = 0.1
    PROBE_COST = 0.05
    HASH_BUILD_COST = 0.1
    PROJECT_COST = 0.05
    COMPARISON_COST = 0.05
    PROPERTY_ACCESS_COST = 0.2
    #: one positioning step in a user-defined index (cheaper than any
    #: method-encapsulated lookup such as ``select_by_index``)
    INDEX_LOOKUP_COST = 2.0
    RANGE_SELECTIVITY = 0.3
    # defaults when no statistics are available
    DEFAULT_EXTENSION_SIZE = 1000.0
    DEFAULT_METHOD_COST = 1.0
    DEFAULT_METHOD_RESULT_CARD = 10.0
    DEFAULT_FANOUT = 5.0
    DEFAULT_SELECTIVITY = 0.1
    EQUALITY_SELECTIVITY = 0.05
    METHOD_PREDICATE_SELECTIVITY = 0.1
    #: number of objects sampled when measuring property fan-outs
    FANOUT_SAMPLE_SIZE = 200
    #: bound on the cached reference scopes (keys are candidate plan subtrees)
    REF_SCOPE_CACHE_LIMIT = 4096

    def __init__(self, schema: Schema, database: Optional[Database] = None):
        self.schema = schema
        self.database = database
        #: the ANALYZE-maintained statistics catalog (None without a
        #: database; consulted per estimate so a refresh is picked up live)
        self.catalog = getattr(database, "stats_catalog", None)
        self._fanout_cache: dict[tuple[str, str], float] = {}
        self._method_cache: dict[str, Optional[MethodDef]] = {}
        self._ref_scope_cache: dict[
            PhysicalOperator,
            tuple[dict[str, str], dict[str, Expression]]] = {}

    # ------------------------------------------------------------------
    # physical plan estimation
    # ------------------------------------------------------------------
    def estimate(self, plan: PhysicalOperator) -> CostEstimate:
        """Estimate the cost and cardinality of a physical plan."""
        if isinstance(plan, ClassScan):
            cardinality = self.extension_size(plan.class_name)
            return CostEstimate(cardinality * self.TUPLE_SCAN_COST, cardinality)

        if isinstance(plan, IndexEqScan):
            cardinality = self._index_eq_cardinality(plan)
            return CostEstimate(
                self.INDEX_LOOKUP_COST + cardinality * self.TUPLE_EMIT_COST,
                cardinality)

        if isinstance(plan, IndexRangeScan):
            cardinality = self._index_range_cardinality(plan)
            return CostEstimate(
                self.INDEX_LOOKUP_COST + cardinality * self.TUPLE_EMIT_COST,
                cardinality)

        if isinstance(plan, ExpressionSetScan):
            cardinality = self.expression_cardinality(plan.expression)
            cost = (self.expression_cost(plan.expression)
                    + cardinality * self.TUPLE_EMIT_COST)
            return CostEstimate(cost, cardinality)

        if isinstance(plan, Filter):
            inner = self.estimate(plan.input)
            per_tuple = self.expression_cost(plan.condition)
            selectivity = self.condition_selectivity(plan.condition,
                                                     inner.cardinality, plan)
            return CostEstimate(inner.cost + inner.cardinality * per_tuple,
                                max(inner.cardinality * selectivity, 0.0))

        if isinstance(plan, SetProbeFilter):
            inner = self.estimate(plan.input)
            set_card = self.expression_cardinality(plan.set_expression)
            build = (self.expression_cost(plan.set_expression)
                     + set_card * self.HASH_BUILD_COST)
            probe = inner.cardinality * self.PROBE_COST
            selectivity = min(1.0, set_card / max(inner.cardinality, 1.0))
            return CostEstimate(inner.cost + build + probe,
                                inner.cardinality * selectivity)

        if isinstance(plan, NestedLoopJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            pairs = left.cardinality * right.cardinality
            per_pair = self.expression_cost(plan.condition)
            selectivity = self.condition_selectivity(plan.condition, pairs, plan)
            return CostEstimate(left.cost + right.cost + pairs * max(per_pair, self.COMPARISON_COST),
                                pairs * selectivity)

        if isinstance(plan, IndexNestedLoopJoin):
            left = self.estimate(plan.left)
            inner_size = self.extension_size(plan.class_name)
            selectivity = self.join_selectivity(
                self.join_key_identity(plan.left_key, plan.left),
                ColumnIdentity.of(plan.class_name, plan.prop),
                left.cardinality, inner_size)
            cardinality = left.cardinality * inner_size * selectivity
            key_cost = self.expression_cost(plan.left_key)
            probes = left.cardinality * (key_cost + self.INDEX_LOOKUP_COST)
            return CostEstimate(
                left.cost + probes + cardinality * self.TUPLE_EMIT_COST,
                cardinality)

        if isinstance(plan, HashJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            key_cost = (self.expression_cost(plan.left_key)
                        + self.expression_cost(plan.right_key)) / 2.0
            build = right.cardinality * (key_cost + self.HASH_BUILD_COST)
            probe = left.cardinality * (key_cost + self.PROBE_COST)
            join_selectivity = self._equi_join_selectivity(
                plan, left.cardinality, right.cardinality)
            cardinality = left.cardinality * right.cardinality * join_selectivity
            return CostEstimate(left.cost + right.cost + build + probe, cardinality)

        if isinstance(plan, NaturalMergeJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            build = right.cardinality * self.HASH_BUILD_COST
            probe = left.cardinality * self.PROBE_COST
            join_selectivity = 1.0 / max(left.cardinality, right.cardinality, 1.0)
            cardinality = left.cardinality * right.cardinality * join_selectivity
            if not plan.common_refs():
                cardinality = left.cardinality * right.cardinality
            return CostEstimate(left.cost + right.cost + build + probe, cardinality)

        if isinstance(plan, MapEval):
            inner = self.estimate(plan.input)
            per_tuple = self.expression_cost(plan.expression)
            return CostEstimate(inner.cost + inner.cardinality * per_tuple,
                                inner.cardinality)

        if isinstance(plan, FlattenEval):
            inner = self.estimate(plan.input)
            per_tuple = self.expression_cost(plan.expression)
            fanout = self.expression_fanout(plan.expression,
                                            self._source_classes(plan.input))
            cardinality = inner.cardinality * fanout
            cost = (inner.cost + inner.cardinality * per_tuple
                    + cardinality * self.TUPLE_EMIT_COST)
            return CostEstimate(cost, cardinality)

        if isinstance(plan, ProjectOp):
            inner = self.estimate(plan.input)
            return CostEstimate(inner.cost + inner.cardinality * self.PROJECT_COST,
                                self._distinct_rows(plan, inner.cardinality))

        if isinstance(plan, UnionOp):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            total = left.cardinality + right.cardinality
            return CostEstimate(left.cost + right.cost + total * self.PROBE_COST,
                                total)

        if isinstance(plan, DiffOp):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            cost = (left.cost + right.cost
                    + (left.cardinality + right.cardinality) * self.PROBE_COST)
            return CostEstimate(cost, left.cardinality)

        raise TypeError(
            f"no cost estimate for physical operator {type(plan).__name__}")

    def estimate_subtrees(self, plan: PhysicalOperator
                          ) -> dict[int, CostEstimate]:
        """The estimate of every operator of *plan*, keyed by ``id(node)``.

        :meth:`estimate` recomputes a node's children on every call, so
        asking it node by node is quadratic in the plan's depth; here every
        operator is estimated exactly once.  The memo lives on a private
        shallow copy of the model (sharing its caches) whose ``estimate``
        the recursive calls resolve to, so concurrent estimations on the
        shared model are unaffected.
        """
        memo: dict[int, CostEstimate] = {}
        model = copy.copy(self)
        estimate = type(self).estimate

        def memoized(node: PhysicalOperator) -> CostEstimate:
            known = memo.get(id(node))
            if known is None:
                known = memo[id(node)] = estimate(model, node)
            return known

        model.estimate = memoized  # type: ignore[method-assign]
        for node in walk_physical(plan):  # root first: children hit the memo
            memoized(node)
        return memo

    # ------------------------------------------------------------------
    # statistics primitives
    # ------------------------------------------------------------------
    def _index_eq_cardinality(self, plan: IndexEqScan) -> float:
        """Expected matches of an equality index lookup.

        Preference order: histogram/most-common-value statistics for the
        concrete key (captures skew), the index's average bucket size
        (uniform assumption), then the flat equality default."""
        size = self.extension_size(plan.class_name)
        stats = self.property_statistics(plan.class_name, plan.prop)
        if stats is not None:
            key = _plan_time_value(plan.key)
            if key is _UNKNOWN_VALUE:
                # Bind-parameter keys: value unknown, use the average bucket.
                selectivity = stats.selectivity_unknown_eq()
            else:
                selectivity = stats.selectivity_eq(key)
            return max(size * selectivity, 1.0)
        cardinality = max(size * self.EQUALITY_SELECTIVITY, 1.0)
        index = (self.database.indexes.get(plan.class_name, plan.prop)
                 if self.database is not None else None)
        if isinstance(index, HashIndex) and index.distinct_keys() > 0:
            cardinality = max(len(index) / index.distinct_keys(), 1.0)
        return cardinality

    def _index_range_cardinality(self, plan: IndexRangeScan) -> float:
        """Expected matches of a range index lookup.

        An interval between two plan-time values (or costing hints) is read
        off the histogram when statistics are fresh.  Otherwise each bounded
        side contributes what :meth:`condition_selectivity` gives the
        equivalent filter conjunct — the histogram for a plan-time value,
        the flat default for a bind parameter (or without statistics) — so
        the index plan and the filter plan of one predicate carry the same
        cardinality."""
        size = self.extension_size(plan.class_name)
        stats = self.property_statistics(plan.class_name, plan.prop)
        low, high = _plan_time_value(plan.low), _plan_time_value(plan.high)
        if (stats is not None and low is not _UNKNOWN_VALUE
                and high is not _UNKNOWN_VALUE):
            selectivity = stats.selectivity_range(low, high)
            if selectivity is not None:
                return max(size * selectivity, 1.0)
        selectivity = 1.0
        for op, bound in ((">=", low), ("<=", high)):
            if bound is None:
                continue
            side = None
            if stats is not None and bound is not _UNKNOWN_VALUE:
                side = stats.selectivity_cmp(op, bound)
            selectivity *= (self.RANGE_SELECTIVITY if side is None
                            else min(max(side, 0.0), 1.0))
        return max(size * selectivity, 1.0)

    def property_statistics(self, class_name: Optional[str],
                            prop: str) -> Optional[PropertyStatistics]:
        """Fresh ANALYZE statistics for ``class_name.prop``, or None."""
        if class_name is None or self.catalog is None:
            return None
        class_stats = self.catalog.fresh(class_name)
        if class_stats is None:
            return None
        return class_stats.property_statistics(prop)

    def _ref_class_map(self, plan: PhysicalOperator) -> dict[str, str]:
        """Map each reference produced by a scan below *plan* to its class.

        This is what lets :meth:`condition_selectivity` resolve
        ``a.prop == const`` against the statistics of the class *a* ranges
        over."""
        return self._ref_scope(plan)[0]

    def _ref_scope(self, plan: PhysicalOperator
                   ) -> tuple[dict[str, str], dict[str, Expression]]:
        """What the references below *plan* stand for: the class of each
        scanned reference, and the expression of each reference a map
        introduces (so a column computed below a join or a projection
        resolves to the path it was computed from).  Flatten references
        stay unresolved (their conditions fall back to the documented
        defaults)."""
        cached = self._ref_scope_cache.get(plan)
        if cached is not None:
            return cached
        classes: dict[str, str] = {}
        definitions: dict[str, Expression] = {}
        for node in walk_physical(plan):
            if isinstance(node, (ClassScan, IndexEqScan, IndexRangeScan,
                                 IndexNestedLoopJoin)):
                classes.setdefault(node.ref, node.class_name)
            elif isinstance(node, MapEval):
                definitions.setdefault(node.ref, node.expression)
        # The cache keys whole candidate subtrees; one long-lived cost model
        # (the service's) estimates unboundedly many shapes, so cap it — a
        # reset only costs re-walking small plan trees.
        if len(self._ref_scope_cache) >= self.REF_SCOPE_CACHE_LIMIT:
            self._ref_scope_cache.clear()
        scope = self._ref_scope_cache[plan] = (classes, definitions)
        return scope

    def extension_size(self, class_name: str) -> float:
        if self.database is not None:
            return float(max(self.database.extension_size(class_name), 1))
        return self.DEFAULT_EXTENSION_SIZE

    def method_definition(self, method_name: str) -> Optional[MethodDef]:
        """Find a method definition by name anywhere in the schema."""
        if method_name in self._method_cache:
            return self._method_cache[method_name]
        found: Optional[MethodDef] = None
        for class_def in self.schema.classes.values():
            if method_name in class_def.instance_methods:
                found = class_def.instance_methods[method_name]
                break
            if method_name in class_def.class_methods:
                found = class_def.class_methods[method_name]
                break
        self._method_cache[method_name] = found
        return found

    def method_cost(self, method_name: str) -> float:
        """Cost units per invocation: measured (ANALYZE-calibrated) when
        available, the schema's ``cost_per_call`` annotation otherwise."""
        if self.catalog is not None:
            measured = self.catalog.method_statistics(method_name)
            if measured is not None:
                return measured.cost_units
        method = self.method_definition(method_name)
        return method.cost_per_call if method is not None else self.DEFAULT_METHOD_COST

    def method_result_cardinality(self, method_name: str) -> float:
        """Result-set size per call: measured average first, then the
        schema's cardinality hint, then the documented default."""
        if self.catalog is not None:
            measured = self.catalog.method_statistics(method_name)
            if measured is not None and measured.avg_result_cardinality:
                return max(measured.avg_result_cardinality, 1.0)
        method = self.method_definition(method_name)
        if method is None:
            return self.DEFAULT_METHOD_RESULT_CARD
        if method.result_cardinality_hint is not None:
            return float(method.result_cardinality_hint)
        if isinstance(method.return_type, SetType):
            return self.DEFAULT_METHOD_RESULT_CARD
        return 1.0

    def property_fanout(self, class_name: str, prop: str) -> float:
        """Average number of elements of a set-valued property: ANALYZE
        statistics first, live sampling otherwise."""
        stats = self.property_statistics(class_name, prop)
        if stats is not None and stats.avg_fanout is not None:
            return max(stats.avg_fanout, 1.0)
        key = (class_name, prop)
        if key in self._fanout_cache:
            return self._fanout_cache[key]
        fanout = self.DEFAULT_FANOUT
        if self.database is not None and self.schema.has_property(class_name, prop):
            oids = self.database.extension(class_name)[:self.FANOUT_SAMPLE_SIZE]
            sizes: list[int] = []
            for oid in oids:
                value = self.database.get(oid).get_or_none(prop)
                if is_collection(value):
                    sizes.append(len(value))
            if sizes:
                fanout = max(sum(sizes) / len(sizes), 1.0)
        self._fanout_cache[key] = fanout
        return fanout

    # ------------------------------------------------------------------
    # expression estimation
    # ------------------------------------------------------------------
    def expression_cost(self, expression: Expression) -> float:
        """Cost of evaluating *expression* once (per input tuple)."""
        cost = 0.0
        checked: Optional[set[int]] = None
        for node in walk(expression):
            if isinstance(node, MethodCall):
                cost += self.method_cost(node.method)
            elif isinstance(node, ClassMethodCall):
                cost += self.method_cost(node.method)
            elif isinstance(node, PropertyAccess):
                cost += self.PROPERTY_ACCESS_COST
            elif isinstance(node, (BinaryOp, UnaryOp)):
                cost += self.COMPARISON_COST
                if (isinstance(node, BinaryOp)
                        and isinstance(node.right, ClassExtent)
                        and node.op in ("IS-IN", "INTERSECT")):
                    # a class check per object, not an extension scan
                    checked = checked or set()
                    checked.add(id(node.right))
            elif isinstance(node, ClassExtent):
                if checked is None or id(node) not in checked:
                    cost += self.extension_size(node.class_name) * self.TUPLE_EMIT_COST
        return cost

    def expression_cardinality(self, expression: Expression) -> float:
        """Estimated number of elements of a set-valued expression."""
        cardinality, _ = self._cardinality_and_class(expression)
        return cardinality

    def expression_fanout(self, expression: Expression,
                          classes: Optional[dict[str, str]] = None) -> float:
        """Estimated elements produced per input tuple when flattening;
        *classes* gives the class of references the expression reads."""
        cardinality, _ = self._cardinality_and_class(expression, classes)
        return max(cardinality, 1.0)

    def _source_classes(self, plan: PhysicalOperator) -> dict[str, str]:
        """The class of each reference a scan below *plan* introduces,
        expression-set scans included (a flattening reads their objects'
        properties, whose fan-outs are the class's)."""
        classes = dict(self._ref_scope(plan)[0])
        for node in walk_physical(plan):
            if isinstance(node, ExpressionSetScan) and node.ref not in classes:
                class_name = self._cardinality_and_class(node.expression)[1]
                if class_name is not None:
                    classes[node.ref] = class_name
        return classes

    def _cardinality_and_class(self, expression: Expression,
                               classes: Optional[dict[str, str]] = None
                               ) -> tuple[float, Optional[str]]:
        if isinstance(expression, Const):
            value = expression.value
            if is_collection(value):
                return float(max(len(value), 1)), None
            return 1.0, None
        if isinstance(expression, Var):
            return 1.0, (classes or {}).get(expression.name)
        if isinstance(expression, ClassExtent):
            return self.extension_size(expression.class_name), expression.class_name
        if isinstance(expression, ClassMethodCall):
            method = self.method_definition(expression.method)
            class_name = None
            if method is not None:
                class_name = class_of_type(method.return_type)
            return self.method_result_cardinality(expression.method), class_name
        if isinstance(expression, MethodCall):
            base_card, _ = self._cardinality_and_class(expression.receiver,
                                                       classes)
            method = self.method_definition(expression.method)
            class_name = class_of_type(method.return_type) if method else None
            per_receiver = self.method_result_cardinality(expression.method)
            return max(base_card, 1.0) * per_receiver, class_name
        if isinstance(expression, PropertyAccess):
            base_card, base_class = self._cardinality_and_class(
                expression.base, classes)
            if base_class is None:
                return max(base_card, 1.0) * self.DEFAULT_FANOUT, None
            try:
                prop_def = self.schema.resolve_property(base_class, expression.prop)
            except ReproError:
                return max(base_card, 1.0), None
            target = prop_def.target_class
            if isinstance(prop_def.vml_type, SetType):
                fanout = self.property_fanout(base_class, expression.prop)
                return max(base_card, 1.0) * fanout, target
            return max(base_card, 1.0), target
        if isinstance(expression, BinaryOp):
            left, left_class = self._cardinality_and_class(expression.left,
                                                           classes)
            right, right_class = self._cardinality_and_class(expression.right,
                                                             classes)
            if expression.op == "INTERSECT":
                return min(left, right), left_class or right_class
            if expression.op == "UNION":
                return left + right, left_class or right_class
            if expression.op == "DIFF":
                return left, left_class
            return 1.0, None
        if isinstance(expression, SetConstructor):
            return float(max(len(expression.elements), 1)), None
        return 1.0, None  # tuples, unary operators: one value

    # ------------------------------------------------------------------
    # join selectivity (shared by the strategy estimates and the join
    # enumerator in repro.optimizer.joingraph)
    # ------------------------------------------------------------------
    def join_key_identity(self, key: Expression, source: PhysicalOperator
                          ) -> Optional[ColumnIdentity]:
        """The column an equi-join key over *source* denotes, or None for
        computed keys; see :meth:`column_identity`."""
        classes, definitions = self._ref_scope(source)
        return self.column_identity(key, classes, definitions)

    def column_identity(self, key: Expression, classes: dict[str, str],
                        definitions: Optional[dict[str, Expression]] = None
                        ) -> Optional[ColumnIdentity]:
        """The column a key expression denotes: a scanned reference itself
        (identity join), a property of one, or a property path such as
        ``q.section.document`` — priced by its last hop's column
        ``Section.document``, and with a feedback-correction key of its own
        (it reads the classes ``Paragraph`` and ``Section``).  A reference
        in *definitions* (introduced by a map) resolves to its expression.
        None for computed keys, unresolved references and paths through a
        set-valued or non-object hop."""
        path = self._resolve_path(key, definitions or {})
        if path is None:
            return None
        ref, props = path
        class_name = classes.get(ref)
        if class_name is None:
            return None
        hops = [class_name]
        for prop in props[:-1]:
            try:
                prop_def = self.schema.resolve_property(hops[-1], prop)
            except ReproError:
                return None
            if (prop_def.target_class is None
                    or isinstance(prop_def.vml_type, SetType)):
                return None
            hops.append(prop_def.target_class)
        return ColumnIdentity(props, tuple(hops))

    @staticmethod
    def _resolve_path(expression: Expression,
                      definitions: dict[str, Expression]
                      ) -> Optional[tuple[str, tuple[str, ...]]]:
        """``(reference, property names)`` of a property path rooted at a
        reference, following map-introduced references to their
        expressions; None for anything else."""
        props: list[str] = []
        while True:
            if isinstance(expression, PropertyAccess):
                props.append(expression.prop)
                expression = expression.base
            elif isinstance(expression, Var) and expression.name in definitions:
                expression = definitions[expression.name]
            elif isinstance(expression, Var):
                return expression.name, tuple(reversed(props))
            else:
                return None

    @staticmethod
    def join_correction_key(left_identity: ColumnIdentity,
                            right_identity: ColumnIdentity) -> tuple:
        """Order-independent catalog key for one join column pair."""
        return tuple(sorted((left_identity, right_identity)))

    def join_selectivity(self,
                         left_identity: Optional[ColumnIdentity],
                         right_identity: Optional[ColumnIdentity],
                         left_cardinality: float,
                         right_cardinality: float) -> float:
        """Selectivity of an equi-join between two key columns.

        Preference order: a feedback correction recorded for the class
        pair, NDV containment (``1 / max(ndv)``) refined by both sides'
        most-common values when available (hot-key skew), then the legacy
        ``1 / max(card)`` flat assumption when statistics are absent."""
        if (left_identity is not None and right_identity is not None
                and self.catalog is not None
                and self.catalog.correction_count()):
            override = self.catalog.join_correction(
                self.join_correction_key(left_identity, right_identity))
            if override is not None:
                return override
        left_ndv, left_stats = self._identity_ndv(left_identity)
        right_ndv, right_stats = self._identity_ndv(right_identity)
        if left_ndv is not None or right_ndv is not None:
            if (left_stats is not None and right_stats is not None
                    and left_stats.most_common and right_stats.most_common):
                refined = self._mcv_join_selectivity(left_stats, right_stats)
                if refined is not None:
                    return refined
            ndv = max(left_ndv or 1.0, right_ndv or 1.0, 1.0)
            return min(1.0 / ndv, 1.0)
        return 1.0 / max(left_cardinality, right_cardinality, 1.0)

    def _identity_ndv(self, identity: Optional[ColumnIdentity]
                      ) -> tuple[Optional[float],
                                 Optional[PropertyStatistics]]:
        """Distinct-value count of one key column (with its property
        statistics when the key is a property), from fresh statistics."""
        if identity is None or self.catalog is None:
            return None, None
        prop = identity.prop
        class_stats = self.catalog.fresh(identity.owner)
        if class_stats is None:
            return None, None
        if prop is None:
            # The key is the scanned object itself: every row is distinct.
            return float(max(class_stats.row_count, 1)), None
        stats = class_stats.property_statistics(prop)
        if stats is None or stats.distinct <= 0:
            return None, None
        return float(stats.distinct), stats

    @staticmethod
    def _mcv_join_selectivity(left: PropertyStatistics,
                              right: PropertyStatistics) -> Optional[float]:
        """Join selectivity from both sides' most-common values: exact mass
        on the matched hot keys, NDV containment on the residual tail."""
        if left.row_count <= 0 or right.row_count <= 0:
            return None
        right_freq = {value: count / right.row_count
                      for value, count in right.most_common}
        matched = 0.0
        for value, count in left.most_common:
            frequency = right_freq.get(value)
            if frequency:
                matched += (count / left.row_count) * frequency
        covered_left = sum(c for _, c in left.most_common) / left.row_count
        covered_right = sum(c for _, c in right.most_common) / right.row_count
        residual_ndv = max(left.distinct - len(left.most_common),
                           right.distinct - len(right.most_common), 1)
        residual = (max(1.0 - covered_left, 0.0)
                    * max(1.0 - covered_right, 0.0) / residual_ndv)
        return min(max(matched + residual, 1e-9), 1.0)

    def _equi_join_selectivity(self, plan: HashJoin, left_cardinality: float,
                               right_cardinality: float) -> float:
        """Join selectivity of a hash join's key pair."""
        return self.join_selectivity(
            self.join_key_identity(plan.left_key, plan.left),
            self.join_key_identity(plan.right_key, plan.right),
            left_cardinality, right_cardinality)

    # ------------------------------------------------------------------
    # distinct rows (projection with duplicate elimination)
    # ------------------------------------------------------------------
    def _distinct_rows(self, plan: ProjectOp, input_rows: float) -> float:
        """Rows a projection keeps: at most its input rows, and at most the
        product of the kept columns' distinct-value counts.  A column bound
        to a constant or parameter below counts 1, a map's tuple value the
        product of its fields' counts, a property (path) its last hop's
        NDV from fresh statistics.  A column with no count known leaves
        the input rows."""
        classes, definitions = self._ref_scope(plan.input)
        if not all(name in definitions for name in plan.kept):
            return input_rows  # an object column: distinct as its rows
        bound = self._equality_bound(plan.input)
        distinct = 1.0
        for name in plan.kept:
            ndv = self._column_ndv(Var(name), classes, definitions, bound)
            if ndv is None:
                return input_rows
            distinct *= ndv
            if distinct >= input_rows:
                return input_rows
        return distinct

    def _column_ndv(self, expression: Expression, classes: dict[str, str],
                    definitions: dict[str, Expression],
                    bound: set[Expression]) -> Optional[float]:
        if expression in bound or isinstance(expression, (Const, Parameter)):
            return 1.0
        if isinstance(expression, Var) and expression.name in definitions:
            return self._column_ndv(definitions[expression.name], classes,
                                    definitions, bound)
        if isinstance(expression, TupleConstructor):
            distinct = 1.0
            for _, field in expression.fields:
                ndv = self._column_ndv(field, classes, definitions, bound)
                if ndv is None:
                    return None
                distinct *= ndv
            return distinct
        if isinstance(expression, PropertyAccess):
            ndv, _ = self._identity_ndv(
                self.column_identity(expression, classes, definitions))
            return ndv
        return None

    @staticmethod
    def _equality_bound(plan: PhysicalOperator) -> set[Expression]:
        """The expressions every output row of *plan* has equal to a
        constant or parameter: index equality keys and ``path == value``
        filter conjuncts below it (not inside a union or difference, whose
        other input is not bound by them)."""
        bound: set[Expression] = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, (UnionOp, DiffOp)):
                continue
            if isinstance(node, IndexEqScan):
                bound.add(PropertyAccess(Var(node.ref), node.prop))
            elif isinstance(node, Filter):
                for part in conjuncts(node.condition):
                    if isinstance(part, BinaryOp) and part.op == "==":
                        for side, value in ((part.left, part.right),
                                            (part.right, part.left)):
                            if isinstance(value, (Const, Parameter)):
                                bound.add(side)
            stack.extend(node.inputs())
        return bound

    # ------------------------------------------------------------------
    # predicate corrections (adaptive feedback)
    # ------------------------------------------------------------------
    @staticmethod
    def predicate_correction_key(class_name: str, ref: str,
                                 condition: Expression) -> tuple:
        """Catalog key of a single-reference predicate: the class plus the
        condition with its reference canonicalized (so the same predicate
        matches across plans that name the range variable differently)."""
        canonical = rename_vars(condition, {ref: "$self"})
        return ((class_name, str(canonical)),)

    def predicate_identity(self, condition: Expression,
                           source: Optional[PhysicalOperator]
                           ) -> Optional[tuple]:
        """The correction key of *condition* when it constrains exactly one
        scanned reference of *source*, else None."""
        if source is None:
            return None
        refs = free_vars(condition)
        if len(refs) != 1:
            return None
        (ref,) = tuple(refs)
        class_name = self._ref_class_map(source).get(ref)
        if class_name is None:
            return None
        return self.predicate_correction_key(class_name, ref, condition)

    def _predicate_override(self, condition: Expression,
                            source: Optional[PhysicalOperator]
                            ) -> Optional[float]:
        if self.catalog is None or not self.catalog.correction_count():
            return None
        key = self.predicate_identity(condition, source)
        if key is None:
            return None
        return self.catalog.predicate_correction(key)

    # ------------------------------------------------------------------
    # selectivity
    # ------------------------------------------------------------------
    def condition_selectivity(self, condition: Expression,
                              input_cardinality: float,
                              source: Optional[PhysicalOperator] = None
                              ) -> float:
        """Fraction of tuples estimated to satisfy *condition*.

        *source* is the physical subtree the condition filters (when known):
        property comparisons against constants are then estimated from the
        ANALYZE statistics of the class each reference scans, falling back
        to the documented flat defaults when statistics are absent or stale.
        """
        if isinstance(condition, Const):
            return 1.0 if condition.value else 0.0
        override = self._predicate_override(condition, source)
        if override is not None:
            return override
        if isinstance(condition, BinaryOp):
            op = condition.op
            if op == "AND":
                return (self.condition_selectivity(condition.left,
                                                   input_cardinality, source)
                        * self.condition_selectivity(condition.right,
                                                     input_cardinality, source))
            if op == "OR":
                left = self.condition_selectivity(condition.left,
                                                  input_cardinality, source)
                right = self.condition_selectivity(condition.right,
                                                   input_cardinality, source)
                return min(1.0, left + right - left * right)
            if op == "==" and any(
                    isinstance(side, Var) and side.name.startswith(
                        INVERSION_MARK)
                    for side in (condition.left, condition.right)):
                # the membership form's check against the owner it ranges
                # over, estimated to pass every row: exact for a maintained
                # inverse link, and for a derived set (largeParagraphs)
                # only while the set agrees with the path it inverts
                return 1.0
            if op in ("==", "!=", "<", "<=", ">", ">="):
                return self._comparison_selectivity(condition, op, source)
            if op == "IS-IN":
                member_card = self.expression_cardinality(condition.right)
                return min(1.0, member_card / max(input_cardinality, 1.0))
        if isinstance(condition, UnaryOp) and condition.op == "NOT":
            return 1.0 - self.condition_selectivity(condition.operand,
                                                    input_cardinality, source)
        if isinstance(condition, (MethodCall, ClassMethodCall)):
            return self.METHOD_PREDICATE_SELECTIVITY
        return self.DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, condition: BinaryOp, op: str,
                                source: Optional[PhysicalOperator]) -> float:
        """Selectivity of one comparison conjunct, statistics-driven when
        the shape is ``ref.prop OP const`` over a scanned class."""
        match = self._stats_for_comparison(condition, source)
        if match is not None:
            stats, value, oriented_op = match
            if oriented_op == "==":
                if value is _UNKNOWN_VALUE:
                    return stats.selectivity_unknown_eq()
                return min(stats.selectivity_eq(value), 1.0)
            if oriented_op == "!=":
                if value is _UNKNOWN_VALUE:
                    return 1.0 - stats.selectivity_unknown_eq()
                return max(1.0 - stats.selectivity_eq(value), 0.0)
            if value is not _UNKNOWN_VALUE:
                estimated = stats.selectivity_cmp(oriented_op, value)
                if estimated is not None:
                    return min(max(estimated, 0.0), 1.0)
        if op == "==" and source is not None:
            # Equality between two scanned columns: an equi-join conjunct
            # inside a nested-loop condition — estimate it with the same
            # join selectivity the keyed join strategies use, so the cost
            # model ranks strategies on cost, not on divergent cardinality.
            left_identity = self.join_key_identity(condition.left, source)
            right_identity = self.join_key_identity(condition.right, source)
            if left_identity is not None and right_identity is not None:
                return self.join_selectivity(
                    left_identity, right_identity,
                    self.extension_size(left_identity.scanned),
                    self.extension_size(right_identity.scanned))
        # documented flat defaults
        if op == "==":
            return self.EQUALITY_SELECTIVITY
        if op == "!=":
            return 1.0 - self.EQUALITY_SELECTIVITY
        return self.RANGE_SELECTIVITY

    def _stats_for_comparison(self, condition: BinaryOp,
                              source: Optional[PhysicalOperator]
                              ) -> Optional[tuple[PropertyStatistics, object,
                                                  str]]:
        """Resolve ``ref.prop OP const`` (either orientation) to that
        property's fresh statistics, the comparison value (an
        auto-parameter's costing hint; ``_UNKNOWN_VALUE`` for other bind
        parameters) and the property-on-the-left operator."""
        if source is None or self.catalog is None:
            return None
        ref_classes = self._ref_class_map(source)
        if not ref_classes:
            return None
        orientations = (
            (condition.left, condition.right, condition.op),
            (condition.right, condition.left,
             _FLIPPED_COMPARISON.get(condition.op, condition.op)),
        )
        for prop_side, value_side, oriented_op in orientations:
            if not (isinstance(prop_side, PropertyAccess)
                    and isinstance(prop_side.base, Var)):
                continue
            class_name = ref_classes.get(prop_side.base.name)
            stats = self.property_statistics(class_name, prop_side.prop)
            if stats is None:
                continue
            if isinstance(value_side, (Const, Parameter)):
                return stats, _plan_time_value(value_side), oriented_op
        return None
