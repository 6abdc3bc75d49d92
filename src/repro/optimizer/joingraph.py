"""Join-graph extraction and cost-based join-order enumeration.

The rule search in :mod:`repro.optimizer.search` explores access paths and
join *strategies*, but its transformation closure has no join-associativity
rule — joins execute in parse order.  This module closes that gap the
classical way: it extracts the **join graph** from a normalized logical plan
(one node per class-extension range, one edge per two-reference conjunct),
estimates per-relation cardinalities and per-edge selectivities from the
statistics catalog (NDV containment with most-common-value skew correction,
plus any feedback corrections — see :meth:`CostModel.join_selectivity`),
enumerates a join order — Selinger-style dynamic programming over left-deep
trees for up to :data:`DP_RELATION_LIMIT` relations, greedy smallest-result
beyond — and emits the chosen order as a rebuilt logical plan.  The search
then costs that *seeded* plan alongside the parse-order closure, so the
enumerator only ever adds alternatives: if its order is not actually
cheaper under the full cost model, the original plan wins unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    Expression,
    conjuncts,
    free_vars,
    make_conjunction,
)
from repro.algebra.operators import (
    Flat,
    Get,
    Join,
    LogicalOperator,
    Map,
    Project,
    Select,
)
from repro.datamodel.statistics import ColumnIdentity
from repro.optimizer.cost import CostModel
from repro.physical.plans import ClassScan

__all__ = ["DP_RELATION_LIMIT", "JoinRelation", "JoinEdge", "JoinOrder",
           "enumerate_join_order"]

#: Selinger DP covers up to this many relations (left-deep subsets); larger
#: graphs fall back to the greedy smallest-intermediate-result heuristic
DP_RELATION_LIMIT = 6


@dataclass
class JoinRelation:
    """One base relation of the join graph: a class-extension range with
    the single-reference predicates pushed down onto it."""

    ref: str
    class_name: str
    get: Get
    predicates: list[Expression] = field(default_factory=list)
    #: estimated rows after the local predicates
    cardinality: float = 1.0

    def plan(self) -> LogicalOperator:
        condition = make_conjunction(self.predicates)
        return self.get if condition is None else Select(condition, self.get)


@dataclass
class JoinEdge:
    """One two-reference conjunct connecting two relations."""

    left_ref: str
    right_ref: str
    condition: Expression
    selectivity: float
    #: equi-join key columns when the conjunct is a simple equality between
    #: scanned columns — what makes hash / index-nested-loop applicable
    equi: bool = False

    def connects(self, refs: frozenset) -> Optional[str]:
        """The endpoint outside *refs* when exactly one endpoint is inside."""
        inside = (self.left_ref in refs) + (self.right_ref in refs)
        if inside != 1:
            return None
        return self.right_ref if self.left_ref in refs else self.left_ref


@dataclass
class JoinOrder:
    """The enumerator's verdict for one query."""

    order: tuple[str, ...]
    seeded_plan: LogicalOperator
    estimated_cardinality: float
    estimated_cost: float
    #: per-join-step strategy hints (informational; the rule search makes
    #: the final strategy choice by costing the physical alternatives)
    strategies: tuple[str, ...]
    #: True when the Selinger DP ran; False for the greedy fallback
    used_dp: bool

    def describe(self) -> str:
        steps = " ⋈ ".join(self.order)
        mode = "dp" if self.used_dp else "greedy"
        return f"{steps} [{mode}]"


def enumerate_join_order(plan: LogicalOperator, cost_model: CostModel
                         ) -> Optional[JoinOrder]:
    """Enumerate a join order for *plan*, or None when the plan has no
    reorderable join region of at least three class extensions (two-way
    joins are already covered by the join-commutativity rule)."""
    extracted = _extract(plan)
    if extracted is None:
        return None
    rebuild, relations, pool = extracted
    if len(relations) < 3:
        return None

    relation_refs = {relation.ref for relation in relations}
    by_ref = {relation.ref: relation for relation in relations}
    edges: list[JoinEdge] = []
    residual: list[Expression] = []
    for conjunct in pool:
        refs = free_vars(conjunct)
        if not refs <= relation_refs:
            return None  # references something the join region doesn't bind
        if len(refs) == 1:
            (ref,) = tuple(refs)
            by_ref[ref].predicates.append(conjunct)
        elif len(refs) == 2:
            edges.append(_make_edge(conjunct, refs, by_ref, cost_model))
        else:
            residual.append(conjunct)

    for relation in relations:
        base = cost_model.extension_size(relation.class_name)
        selectivity = 1.0
        # A stand-in scan lets condition_selectivity resolve ref→class for
        # the relation's local predicates against the statistics catalog.
        source = ClassScan(relation.ref, relation.class_name)
        for predicate in relation.predicates:
            selectivity *= cost_model.condition_selectivity(
                predicate, base, source)
        relation.cardinality = max(base * selectivity, 0.01)

    if len(relations) <= DP_RELATION_LIMIT:
        order, cost, cardinality = _selinger_dp(relations, edges)
        used_dp = True
    else:
        order, cost, cardinality = _greedy(relations, edges)
        used_dp = False

    seeded = rebuild(_build_join_tree(order, by_ref, edges, residual))
    strategies = _strategies(order, by_ref, edges, cost_model)
    return JoinOrder(order=tuple(order), seeded_plan=seeded,
                     estimated_cardinality=cardinality, estimated_cost=cost,
                     strategies=strategies, used_dp=used_dp)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def _extract(plan: LogicalOperator):
    """Split *plan* into (rebuild-wrappers, relations, conjunct pool).

    Wrappers (Project/Map/Flat above the topmost join) are order-neutral:
    they consume the join region's full reference set, which reordering
    preserves.  Inside the join region only Join, Select and Get may
    appear — a Flat or ExpressionSource leaf means a dependent range whose
    order is constrained, so the enumerator stands down.
    """
    wrappers: list[LogicalOperator] = []
    node = plan
    while isinstance(node, (Project, Map, Flat)):
        wrappers.append(node)
        node = node.input

    relations: list[JoinRelation] = []
    pool: list[Expression] = []

    def collect(region: LogicalOperator) -> bool:
        if isinstance(region, Join):
            pool.extend(conjuncts(region.condition))
            return collect(region.left) and collect(region.right)
        if isinstance(region, Select):
            pool.extend(conjuncts(region.condition))
            return collect(region.input)
        if isinstance(region, Get):
            relations.append(JoinRelation(ref=region.ref,
                                          class_name=region.class_name,
                                          get=region))
            return True
        return False

    if not collect(node):
        return None
    if len({relation.ref for relation in relations}) != len(relations):
        return None

    def rebuild(core: LogicalOperator) -> LogicalOperator:
        for wrapper in reversed(wrappers):
            core = wrapper.with_inputs((core,))
        return core

    return rebuild, relations, pool


def _key_identity(key: Expression, by_ref: dict[str, JoinRelation],
                  cost_model: CostModel) -> Optional[ColumnIdentity]:
    """The column an equi-join key over the base relations denotes (see
    :meth:`CostModel.column_identity`)."""
    return cost_model.column_identity(
        key, {ref: relation.class_name for ref, relation in by_ref.items()})


def _make_edge(conjunct: Expression, refs: set[str],
               by_ref: dict[str, JoinRelation],
               cost_model: CostModel) -> JoinEdge:
    left_ref, right_ref = sorted(refs)
    selectivity = cost_model.DEFAULT_SELECTIVITY
    equi = False
    if isinstance(conjunct, BinaryOp) and conjunct.op == "==":
        first = free_vars(conjunct.left)
        second = free_vars(conjunct.right)
        if len(first) == 1 and len(second) == 1 and first != second:
            left_identity = _key_identity(conjunct.left, by_ref, cost_model)
            right_identity = _key_identity(conjunct.right, by_ref, cost_model)
            equi = True
            selectivity = cost_model.join_selectivity(
                left_identity, right_identity,
                cost_model.extension_size(by_ref[min(refs)].class_name),
                cost_model.extension_size(by_ref[max(refs)].class_name))
    return JoinEdge(left_ref=left_ref, right_ref=right_ref,
                    condition=conjunct, selectivity=selectivity, equi=equi)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def _join_selectivity(joined: frozenset, ref: str,
                      edges: list[JoinEdge]) -> tuple[float, bool]:
    """(combined selectivity, connected?) of joining *ref* to *joined*."""
    selectivity = 1.0
    connected = False
    for edge in edges:
        other = edge.connects(joined)
        if other == ref:
            selectivity *= edge.selectivity
            connected = True
    return selectivity, connected


def _selinger_dp(relations: list[JoinRelation], edges: list[JoinEdge]
                 ) -> tuple[list[str], float, float]:
    """Left-deep dynamic programming: best (cost, cardinality, order) per
    relation subset, expanding connected relations before cross products.

    The cost metric is the classical sum of intermediate result sizes
    (`C_out`), which is what join ordering actually controls — per-strategy
    constants are left to the physical cost model that ranks the seeded
    plan against the parse order afterwards.
    """
    best: dict[frozenset, tuple[float, float, list[str]]] = {}
    for relation in relations:
        best[frozenset((relation.ref,))] = (
            relation.cardinality, relation.cardinality, [relation.ref])
    by_ref = {relation.ref: relation for relation in relations}

    for size in range(2, len(relations) + 1):
        for combo in combinations(relations, size):
            subset = frozenset(relation.ref for relation in combo)
            candidates: list[tuple[float, float, list[str], bool]] = []
            for ref in subset:
                # every smaller subset has its best order already
                rest = subset - {ref}
                cost, cardinality, order = best[rest]
                selectivity, connected = _join_selectivity(rest, ref, edges)
                out = cardinality * by_ref[ref].cardinality * selectivity
                candidates.append((cost + out, out, order + [ref], connected))
            connected_only = [c for c in candidates if c[3]]
            pool = connected_only or candidates
            cost, out, order, _ = min(pool, key=lambda c: (c[0], c[2]))
            best[subset] = (cost, out, order)

    cost, cardinality, order = best[frozenset(by_ref)]
    return order, cost, cardinality


def _greedy(relations: list[JoinRelation], edges: list[JoinEdge]
            ) -> tuple[list[str], float, float]:
    """Smallest-intermediate-result greedy ordering for large join graphs."""
    by_ref = {relation.ref: relation for relation in relations}
    order = [min(relations, key=lambda r: (r.cardinality, r.ref)).ref]
    joined = frozenset(order)
    cardinality = by_ref[order[0]].cardinality
    cost = cardinality
    while len(order) < len(relations):
        candidates = []
        for ref in sorted(set(by_ref) - joined):
            selectivity, connected = _join_selectivity(joined, ref, edges)
            out = cardinality * by_ref[ref].cardinality * selectivity
            candidates.append((not connected, out, ref))
        _, out, ref = min(candidates)
        order.append(ref)
        joined = joined | {ref}
        cardinality = out
        cost += out
    return order, cost, cardinality


# ----------------------------------------------------------------------
# plan emission
# ----------------------------------------------------------------------
def _build_join_tree(order: list[str], by_ref: dict[str, JoinRelation],
                     edges: list[JoinEdge], residual: list[Expression]
                     ) -> LogicalOperator:
    """Rebuild a left-deep join chain in *order*, attaching every pooled
    conjunct at the earliest join where all its references are bound."""
    pending: list[Expression] = [edge.condition for edge in edges] + residual
    current = by_ref[order[0]].plan()
    available = {order[0]}
    for ref in order[1:]:
        available.add(ref)
        ready = [c for c in pending if free_vars(c) <= available]
        pending = [c for c in pending if not free_vars(c) <= available]
        condition = make_conjunction(ready)
        current = Join(condition if condition is not None else Const(True),
                       current, by_ref[ref].plan())
    return current


def _strategies(order: tuple[str, ...] | list[str],
                by_ref: dict[str, JoinRelation], edges: list[JoinEdge],
                cost_model: CostModel) -> tuple[str, ...]:
    """Per-step strategy hints for EXPLAIN: which physical join the rule
    search is expected to pick for each edge of the chosen order."""
    database = cost_model.database
    hints: list[str] = []
    joined: frozenset = frozenset((order[0],))
    for ref in order[1:]:
        relation = by_ref[ref]
        step = [edge for edge in edges if edge.connects(joined) == ref]
        equi = [edge for edge in step if edge.equi]
        if not step:
            hint = "cross"
        elif not equi:
            hint = "nested-loop"
        else:
            hint = "hash"
            if database is not None and not relation.predicates:
                for edge in equi:
                    inner_key = (edge.condition.right
                                 if edge.right_ref == ref
                                 else edge.condition.left)
                    identity = _key_identity(inner_key, by_ref, cost_model)
                    if (identity is not None and len(identity.path) == 1
                            and identity.scanned == relation.class_name
                            and database.indexes.get(
                                identity.scanned, identity.prop) is not None):
                        hint = "index-nested-loop"
                        break
        hints.append(f"{ref}:{hint}")
        joined = joined | {ref}
    return tuple(hints)
