"""Rule- and cost-based search.

The search follows the Volcano optimizer generator's discipline
(Section 6.1): exhaustive application of transformation rules on the logical
level, followed by cost-based selection among the physical alternatives
produced by implementation rules, with pruning of implementations that are
already more expensive than the best complete plan found so far.

Two deliberate simplifications with respect to Volcano's memo structure are
documented here and in DESIGN.md:

* logical alternatives are kept as whole operator *trees* (deduplicated
  structurally) rather than as groups of expressions — for the query sizes of
  the paper's setting the closure is small and the result is the same
  exhaustive exploration;
* physical optimization memoizes the best physical plan per logical subtree,
  which recovers the sharing a memo provides across alternatives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.operators import LogicalOperator
from repro.algebra.printer import format_inline
from repro.algebra.translate import TranslationResult, translate_query
from repro.algebra.visitors import positions_with_nodes, replace_at
from repro.datamodel.database import Database
from repro.datamodel.schema import Schema
from repro.errors import OptimizerError
from repro.optimizer.cost import CostEstimate, CostModel
from repro.optimizer.joingraph import JoinOrder, enumerate_join_order
from repro.optimizer.rules import RuleContext, RuleSet
from repro.optimizer.statistics import OptimizerStatistics
from repro.optimizer.trace import OptimizationTrace
from repro.physical.naive import naive_implementation
from repro.physical.plans import PhysicalOperator
from repro.telemetry.spans import annotate_current, child_span

__all__ = ["OptimizerOptions", "OptimizationResult", "Optimizer",
           "plan_query"]


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs bounding the search effort."""

    #: upper bound on the number of distinct logical plans to explore
    max_logical_plans: int = 4000
    #: upper bound on transformation applications (attempted rewrites)
    max_transformations: int = 200_000
    #: record a trace of rule applications
    enable_trace: bool = True


@dataclass
class OptimizationResult:
    """The outcome of optimizing one logical plan."""

    best_plan: PhysicalOperator
    best_cost: CostEstimate
    best_logical: LogicalOperator
    original_logical: LogicalOperator
    statistics: OptimizerStatistics
    trace: OptimizationTrace
    logical_alternatives: list[LogicalOperator] = field(default_factory=list)
    #: the join enumerator's verdict (None when the plan has no reorderable
    #: join region of three or more relations)
    join_order: Optional[JoinOrder] = None
    #: feedback corrections present in the statistics catalog at plan time
    stats_corrections: int = 0

    def explain(self) -> str:
        """Multi-line description of the chosen plan and its cost."""
        from repro.algebra.printer import format_tree  # local to avoid cycle noise
        lines = [
            "original logical plan:",
            _indent(format_tree(self.original_logical)),
            "chosen logical form:",
            _indent(format_tree(self.best_logical)),
            "physical plan:",
            _indent(_format_physical(self.best_plan)),
            f"estimated {self.best_cost}",
        ]
        if self.join_order is not None:
            lines.append(f"join order: {self.join_order.describe()}")
            lines.append("join strategies: "
                         + ", ".join(self.join_order.strategies))
        lines.append(f"statistics corrections applied: {self.stats_corrections}")
        lines.append(str(self.statistics))
        return "\n".join(lines)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def _format_physical(plan: PhysicalOperator, depth: int = 0) -> str:
    lines = ["  " * depth + plan.describe()]
    for child in plan.inputs():
        lines.append(_format_physical(child, depth + 1))
    return "\n".join(lines)


class Optimizer:
    """A rule- and cost-based optimizer instance for one schema.

    Instances are produced by the
    :class:`~repro.optimizer.generator.OptimizerGenerator`, which combines
    the predefined rules with the schema-specific rules derived from semantic
    knowledge — the reproduction of "generating an individual optimizer
    module for each schema" (Section 7).
    """

    def __init__(self, schema: Schema, rule_set: RuleSet,
                 database: Optional[Database] = None,
                 cost_model: Optional[CostModel] = None,
                 options: Optional[OptimizerOptions] = None):
        self.schema = schema
        self.rule_set = rule_set
        self.database = database
        self.cost_model = cost_model or CostModel(schema, database)
        self.options = options or OptimizerOptions()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(self, logical_plan: LogicalOperator) -> OptimizationResult:
        """Optimize *logical_plan* and return the cheapest physical plan."""
        statistics = OptimizerStatistics()
        trace = OptimizationTrace(enabled=self.options.enable_trace)
        context = RuleContext(self.schema, self.database)
        started = time.perf_counter()

        join_order = self._enumerate_join_order(logical_plan)
        roots = [logical_plan]
        if join_order is not None and join_order.seeded_plan != logical_plan:
            # The seeded order is an additional exploration root: the rule
            # closure and cost comparison treat it exactly like the parse
            # order, so a bad enumeration can never make plans worse.
            roots.append(join_order.seeded_plan)

        alternatives = self._explore(roots, context, statistics, trace)
        statistics.logical_plans_explored = len(alternatives)

        best_plan: Optional[PhysicalOperator] = None
        best_cost: Optional[CostEstimate] = None
        best_logical: Optional[LogicalOperator] = None
        memo: dict[LogicalOperator, tuple[PhysicalOperator, CostEstimate]] = {}

        for alternative in alternatives:
            try:
                plan, cost = self._best_physical(alternative, context, memo,
                                                 statistics)
            except OptimizerError:
                continue
            if best_cost is None or cost.cost < best_cost.cost:
                best_plan, best_cost, best_logical = plan, cost, alternative

        statistics.optimization_seconds = time.perf_counter() - started
        if best_plan is None or best_cost is None or best_logical is None:
            raise OptimizerError(
                "no physical plan could be produced — the rule set lacks "
                "implementation rules for at least one operator")

        trace.record_decision(
            format_inline(logical_plan), format_inline(best_logical),
            detail=f"{best_cost}")
        # Link this optimization into the statement's trace span (when one
        # is active): search-effort statistics plus the OptimizationTrace
        # length, so a span tree points back at the Section-7 demonstrator.
        annotate_current(
            logical_plans=statistics.logical_plans_explored,
            transformations=statistics.transformations_applied,
            physical_plans_costed=statistics.physical_plans_costed,
            trace_events=len(trace),
            best_cost=best_cost.cost)
        return OptimizationResult(
            best_plan=best_plan,
            best_cost=best_cost,
            best_logical=best_logical,
            original_logical=logical_plan,
            statistics=statistics,
            trace=trace,
            logical_alternatives=list(alternatives),
            join_order=join_order,
            stats_corrections=(self.cost_model.catalog.correction_count()
                               if self.cost_model.catalog is not None else 0))

    def _enumerate_join_order(self, logical_plan: LogicalOperator
                              ) -> Optional[JoinOrder]:
        """Run the join-graph enumerator, or None when no database is
        attached or the plan is not reorderable."""
        if self.database is None:
            return None
        return enumerate_join_order(logical_plan, self.cost_model)

    # ------------------------------------------------------------------
    # logical exploration
    # ------------------------------------------------------------------
    def _explore(self, roots: list[LogicalOperator], context: RuleContext,
                 statistics: OptimizerStatistics,
                 trace: OptimizationTrace) -> list[LogicalOperator]:
        """Exhaustive closure of the transformation rules over whole plans.

        Rules flagged ``apply_once`` (the paper's ``⇒!`` marker on condition
        implications) are applied at most once along any derivation path:
        the set of already-fired once-rules is tracked per derived plan and
        dropped once the plan has been drained from the worklist (a plan is
        processed at most once, so keeping its entry would only grow the
        dict with every derived plan).
        """
        seen: set[LogicalOperator] = set()
        ordered: list[LogicalOperator] = []
        worklist: list[LogicalOperator] = []
        once_history: dict[LogicalOperator, frozenset[str]] = {}
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            ordered.append(root)
            worklist.append(root)
            once_history[root] = frozenset()
        options = self.options

        while worklist:
            plan = worklist.pop()
            plan_history = once_history.pop(plan, frozenset())
            for path, node in positions_with_nodes(plan):
                for rule in self.rule_set.transformations:
                    if rule.apply_once and rule.name in plan_history:
                        continue
                    if rule.shape and not rule.fits(node):
                        continue
                    if statistics.transformation_attempts >= options.max_transformations:
                        statistics.exploration_truncated = True
                        return ordered
                    statistics.transformation_attempts += 1
                    try:
                        rewrites = list(rule.apply(node, context))
                    except OptimizerError:
                        rewrites = []  # the rule declines this node
                    for rewritten in rewrites:
                        if rewritten == node:
                            continue
                        new_plan = replace_at(plan, path, rewritten)
                        if new_plan in seen:
                            continue
                        statistics.transformations_applied += 1
                        statistics.record_rule(rule.name)
                        trace.record_transformation(
                            rule.name, format_inline(node), format_inline(rewritten))
                        if len(seen) >= options.max_logical_plans:
                            statistics.exploration_truncated = True
                            return ordered
                        seen.add(new_plan)
                        ordered.append(new_plan)
                        worklist.append(new_plan)
                        new_history = plan_history
                        if rule.apply_once:
                            new_history = plan_history | {rule.name}
                        once_history[new_plan] = new_history
        return ordered

    # ------------------------------------------------------------------
    # physical optimization
    # ------------------------------------------------------------------
    def _best_physical(self, plan: LogicalOperator, context: RuleContext,
                       memo: dict[LogicalOperator,
                                  tuple[PhysicalOperator, CostEstimate]],
                       statistics: OptimizerStatistics
                       ) -> tuple[PhysicalOperator, CostEstimate]:
        """Best physical plan for one logical operator tree (memoized)."""
        cached = memo.get(plan)
        if cached is not None:
            return cached

        child_results = [self._best_physical(child, context, memo,
                                             statistics)
                         for child in plan.inputs()]
        child_plans = tuple(result[0] for result in child_results)

        best: Optional[tuple[PhysicalOperator, CostEstimate]] = None
        for rule in self.rule_set.implementations:
            try:
                alternatives = list(rule.implement(plan, child_plans, context))
            except OptimizerError:
                alternatives = []  # the rule declines this operator
            for physical in alternatives:
                statistics.implementation_alternatives += 1
                cost = self.cost_model.estimate(physical)
                statistics.physical_plans_costed += 1
                if best is None or cost.cost < best[1].cost:
                    best = (physical, cost)
                    statistics.record_rule(rule.name)

        if best is None:
            raise OptimizerError(
                f"no implementation rule applies to {plan.describe()}")
        memo[plan] = best
        return best


def plan_query(analyzed, optimizer: Optimizer, optimize: bool = True,
               **span_attributes) -> tuple[TranslationResult,
                                           Optional[OptimizationResult],
                                           PhysicalOperator]:
    """Translate an analyzed query and choose its physical plan — the one
    planning step every statement entry point (session, service, EXPLAIN)
    shares.

    With ``optimize=False`` the canonical logical plan is lowered one-to-one
    (the paper's "straightforward evaluation") and the optimization result
    is None.  *span_attributes* annotate the ``optimize`` trace span.
    """
    translation = translate_query(analyzed)
    if not optimize:
        return translation, None, naive_implementation(translation.plan)
    with child_span("optimize", **span_attributes):
        optimization = optimizer.optimize(translation.plan)
    return translation, optimization, optimization.best_plan
