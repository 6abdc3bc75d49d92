"""Predefined (schema-independent) transformation and implementation rules.

Section 6.1: "For query transformation based on the restricted algebra, a
predefined set of transformation rules is provided.  These are on the one
hand many well-known rules from relational query optimization, e.g.
associativity and commutativity of join or interchangeability of selection
and join."  This module provides that predefined rule set for our general
algebra, plus the implementation rules mapping logical operators to the
physical algorithms of :mod:`repro.physical.plans`.

Index access paths take *bind-time* keys and bounds: ``a.prop OP :p``
matches like ``a.prop OP const`` and the :class:`Parameter` travels into
the scan, which resolves it per execution — so a cached, parameterized
statement gets the access path its literal twin gets.  Values only known
at execution cannot be compared while a rule runs: constant bounds on one
side of a range still merge into the tightest one, but a side holds at most
one bound, and every further conjunct on it stays in the residual filter.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    Expression,
    Parameter,
    PropertyAccess,
    TupleConstructor,
    Var,
    conjuncts,
    free_vars,
    make_conjunction,
)
from repro.algebra.operators import (
    Diff,
    ExpressionSource,
    Flat,
    Get,
    Join,
    LogicalOperator,
    Map,
    NaturalJoin,
    Project,
    Select,
    Union,
    walk_operators,
)
from repro.optimizer.rules import (
    CallableImplementationRule,
    CallableTransformationRule,
    RuleContext,
    RuleSet,
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

__all__ = ["standard_rules", "standard_transformations", "standard_implementations"]

_BUILTIN = frozenset({"builtin"})

#: first character of the columns :func:`_eager_distinct` introduces — not
#: one VQL identifiers can start with, so they never clash with a range
#: variable, and the rule recognizes its own output by it
EAGER_COLUMN_MARK = "#"


# ----------------------------------------------------------------------
# transformation rules
# ----------------------------------------------------------------------
def _select_split(plan: LogicalOperator, _ctx: RuleContext
                  ) -> Optional[Iterable[LogicalOperator]]:
    """select<c1 AND c2>(S) ⇔ select<c1>(select<c2>(S)) — both groupings."""
    if not isinstance(plan, Select):
        return None
    parts = conjuncts(plan.condition)
    if len(parts) < 2:
        return None
    alternatives = []
    for index in range(len(parts)):
        outer = parts[index]
        rest = parts[:index] + parts[index + 1:]
        inner_condition = make_conjunction(rest)
        assert inner_condition is not None
        alternatives.append(Select(outer, Select(inner_condition, plan.input)))
    return alternatives


def _select_merge(plan: LogicalOperator, _ctx: RuleContext
                  ) -> Optional[Iterable[LogicalOperator]]:
    """select<c1>(select<c2>(S)) → select<c1 AND c2>(S)."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Select):
        return None
    merged = BinaryOp("AND", plan.condition, plan.input.condition)
    return [Select(merged, plan.input.input)]


def _select_commute(plan: LogicalOperator, _ctx: RuleContext
                    ) -> Optional[Iterable[LogicalOperator]]:
    """select<c1>(select<c2>(S)) → select<c2>(select<c1>(S))."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Select):
        return None
    inner = plan.input
    return [Select(inner.condition, Select(plan.condition, inner.input))]


def _select_true_elimination(plan: LogicalOperator, _ctx: RuleContext
                             ) -> Optional[Iterable[LogicalOperator]]:
    """select<TRUE>(S) → S."""
    if isinstance(plan, Select) and plan.condition == Const(True):
        return [plan.input]
    return None


def _select_pushdown_join(plan: LogicalOperator, _ctx: RuleContext
                          ) -> Optional[Iterable[LogicalOperator]]:
    """Push a selection below a join when it only refers to one side."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Join):
        return None
    join = plan.input
    condition_refs = free_vars(plan.condition)
    alternatives: list[LogicalOperator] = []
    if condition_refs <= set(join.left.refs()):
        alternatives.append(
            Join(join.condition, Select(plan.condition, join.left), join.right))
    if condition_refs <= set(join.right.refs()):
        alternatives.append(
            Join(join.condition, join.left, Select(plan.condition, join.right)))
    return alternatives or None


def _select_into_join(plan: LogicalOperator, _ctx: RuleContext
                      ) -> Optional[Iterable[LogicalOperator]]:
    """select<c>(join<true>(A, B)) → join<c>(A, B) when c spans both sides."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Join):
        return None
    join = plan.input
    if join.condition != Const(True):
        return None
    condition_refs = free_vars(plan.condition)
    left_refs = set(join.left.refs())
    right_refs = set(join.right.refs())
    if condition_refs & left_refs and condition_refs & right_refs:
        return [Join(plan.condition, join.left, join.right)]
    return None


def _join_condition_to_select(plan: LogicalOperator, _ctx: RuleContext
                              ) -> Optional[Iterable[LogicalOperator]]:
    """join<c>(A, B) → select<c>(join<true>(A, B)) — the inverse direction,
    needed so that semantic rules that rewrite selection conditions can reach
    conditions that entered the plan as join predicates.  A join on eager
    columns (:func:`_eager_distinct`) holds nothing for them to rewrite."""
    if not isinstance(plan, Join) or plan.condition == Const(True):
        return None
    if _reads_eager_column(plan.condition):
        return None
    return [Select(plan.condition, Join(Const(True), plan.left, plan.right))]


def _join_commute(plan: LogicalOperator, _ctx: RuleContext
                  ) -> Optional[Iterable[LogicalOperator]]:
    """join<c>(A, B) → join<c>(B, A)."""
    if not isinstance(plan, Join):
        return None
    return [Join(plan.condition, plan.right, plan.left)]


def _select_pushdown_unary(plan: LogicalOperator, _ctx: RuleContext
                           ) -> Optional[Iterable[LogicalOperator]]:
    """Push a selection below map/flat when it does not use the new ref."""
    if not isinstance(plan, Select):
        return None
    inner = plan.input
    condition_refs = free_vars(plan.condition)
    if isinstance(inner, Map) and inner.ref not in condition_refs:
        return [Map(inner.ref, inner.expression, Select(plan.condition, inner.input))]
    if isinstance(inner, Flat) and inner.ref not in condition_refs:
        return [Flat(inner.ref, inner.expression, Select(plan.condition, inner.input))]
    return None


def _select_pullup_unary(plan: LogicalOperator, _ctx: RuleContext
                         ) -> Optional[Iterable[LogicalOperator]]:
    """The inverse of pushing a selection below map/flat.  A selection stays
    below the maps of an eager distinct, which would otherwise compute
    their columns for rows it drops."""
    if isinstance(plan, Map) and isinstance(plan.input, Select):
        if plan.ref.startswith(EAGER_COLUMN_MARK):
            return None
        inner = plan.input
        return [Select(inner.condition, Map(plan.ref, plan.expression, inner.input))]
    if isinstance(plan, Flat) and isinstance(plan.input, Select):
        inner = plan.input
        return [Select(inner.condition, Flat(plan.ref, plan.expression, inner.input))]
    return None


def _reads_eager_column(expression: Expression) -> bool:
    return any(ref.startswith(EAGER_COLUMN_MARK)
               for ref in free_vars(expression))


def _holds_join(plan: LogicalOperator) -> bool:
    return any(isinstance(node, (Join, NaturalJoin))
               for node in walk_operators(plan))


def _eager_path(expression: Expression) -> bool:
    """A reference or a property path rooted at one — what the eager
    distinct may evaluate below a join (no method runs on dropped rows)."""
    while isinstance(expression, PropertyAccess):
        expression = expression.base
    return isinstance(expression, Var)


def _dereferenced(expression: Expression) -> set[Expression]:
    """The objects a property path reads a property of: ``p`` and
    ``p.section`` for ``p.section.document``; none for a bare reference."""
    objects: set[Expression] = set()
    while isinstance(expression, PropertyAccess):
        expression = expression.base
        objects.add(expression)
    return objects


def _eager_distinct(plan: LogicalOperator, _ctx: RuleContext
                    ) -> Optional[Iterable[LogicalOperator]]:
    """project<r>(map<r, [f1: e1, ...]>(join<lk == rk>(L, R))) →
    project<r>(map<r, [f1: c1, ...]>(join<kl == kr>(L', R'))) with
    L' = project<kl, cl...>(map<cl, el>...(map<kl, lk>(L))), R' likewise.

    ``ACCESS`` has set semantics, so each join input may be reduced to its
    distinct (join key, used columns) before the join (Yan & Larson's eager
    aggregation with a distinct as the aggregate).  Every ei and both keys
    must be references or property paths reading one side: a method must
    never run on rows the join would drop, and a field mixing both sides
    has no side to be computed on.  A field may read a property only of a
    reference its side scans from a class or of an object its side's key
    already reads: ``p.number`` and, under the key ``p.section.document``,
    ``p.section.number``, but not ``p.section.number`` under the key
    ``p.section``.  A reference to a deleted object raises when it is read,
    and the key is all the join reads of the rows it drops.  Both inputs
    must be join-free: a reduced input holding a join would copy that
    join's whole search space into the closure.  So the rule's own output
    does not match either — its join reads eager columns, and its reduced
    inputs end in no join."""
    if not (isinstance(plan, Project) and isinstance(plan.input, Map)):
        return None
    outer = plan.input
    join = outer.input
    if plan.kept != (outer.ref,) or not isinstance(join, Join):
        return None
    if _holds_join(join.left) or _holds_join(join.right):
        return None
    keys = _split_equi_condition(join)
    if keys is None:
        return None
    left_key, right_key = keys
    if not (_eager_path(left_key) and _eager_path(right_key)):
        return None
    if _reads_eager_column(join.condition):
        return None
    expression = outer.expression
    fields = (expression.children() if isinstance(expression, TupleConstructor)
              else (expression,))
    left_refs, right_refs = set(join.left.refs()), set(join.right.refs())
    sides = ([left_key], [right_key])
    readable = tuple({Var(node.ref) for node in walk_operators(side_plan)
                      if isinstance(node, Get)} | _dereferenced(key)
                     for side_plan, key in ((join.left, left_key),
                                            (join.right, right_key)))
    for field in fields:
        used = free_vars(field)
        if not used:
            continue  # a constant stays in the outer tuple
        if not _eager_path(field):
            return None
        if used <= left_refs:
            index = 0
        elif used <= right_refs:
            index = 1
        else:
            return None
        if not _dereferenced(field) <= readable[index]:
            return None
        if field not in sides[index]:
            sides[index].append(field)
    columns = {column: Var(EAGER_COLUMN_MARK + str(column))
               for side in sides for column in side}
    reduced = []
    for side, input_plan in zip(sides, (join.left, join.right)):
        for column in side:
            input_plan = Map(columns[column].name, column, input_plan)
        reduced.append(Project(tuple(columns[c].name for c in side),
                               input_plan))
    outer_expression = (expression.rebuild([columns.get(f, f) for f in fields])
                        if isinstance(expression, TupleConstructor)
                        else columns.get(expression, expression))
    condition = BinaryOp("==", columns[left_key], columns[right_key])
    return [Project(plan.kept,
                    Map(outer.ref, outer_expression,
                        Join(condition, reduced[0], reduced[1])))]


def standard_transformations() -> list[CallableTransformationRule]:
    """The predefined transformation rules."""
    specs = [
        ("select-split", "split a conjunctive selection", _select_split),
        ("select-merge", "merge stacked selections", _select_merge),
        ("select-commute", "commute stacked selections", _select_commute),
        ("select-true-elim", "drop select<TRUE>", _select_true_elimination),
        ("select-pushdown-join", "push selection below a join", _select_pushdown_join),
        ("select-into-join", "turn selection over cross join into θ-join",
         _select_into_join),
        ("join-condition-to-select", "pull a join condition into a selection",
         _join_condition_to_select),
        ("join-commute", "commute join inputs", _join_commute),
        ("select-pushdown-map-flat", "push selection below map/flat",
         _select_pushdown_unary),
        ("select-pullup-map-flat", "pull selection above map/flat",
         _select_pullup_unary),
    ]
    return [*(CallableTransformationRule(name=name, description=description,
                                         tags=_BUILTIN, function=function)
              for name, description, function in specs),
            CallableTransformationRule(
                name="eager-distinct",
                description="reduce each equi-join input to its distinct "
                            "key and used columns",
                tags=_BUILTIN, shape=(Project, Map, Join),
                function=_eager_distinct)]


# ----------------------------------------------------------------------
# implementation rules
# ----------------------------------------------------------------------
def _implement_get(plan: LogicalOperator, _children: tuple[PhysicalOperator, ...],
                   _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Get):
        return [ClassScan(plan.ref, plan.class_name)]
    return None


def _implement_source(plan: LogicalOperator, _children: tuple[PhysicalOperator, ...],
                      _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, ExpressionSource):
        return [ExpressionSetScan(plan.ref, plan.expression)]
    return None


def _implement_select_filter(plan: LogicalOperator,
                             children: tuple[PhysicalOperator, ...],
                             _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Select):
        return [Filter(plan.condition, children[0])]
    return None


def _membership_condition(condition: Expression) -> Optional[tuple[str, Expression]]:
    """Decompose ``a IS-IN E`` with reference-free E into (a, E)."""
    if (isinstance(condition, BinaryOp) and condition.op == "IS-IN"
            and isinstance(condition.left, Var)
            and not free_vars(condition.right)):
        return condition.left.name, condition.right
    return None


def _implement_select_probe(plan: LogicalOperator,
                            children: tuple[PhysicalOperator, ...],
                            _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    """select<a IS-IN E>(S) → set_probe when E does not depend on S."""
    if not isinstance(plan, Select):
        return None
    decomposed = _membership_condition(plan.condition)
    if decomposed is None:
        return None
    ref, expression = decomposed
    if ref not in plan.input.refs():
        return None
    return [SetProbeFilter(ref, expression, children[0])]


def _implement_select_membership_scan(plan: LogicalOperator,
                                      _children: tuple[PhysicalOperator, ...],
                                      ctx: RuleContext
                                      ) -> Optional[Iterable[PhysicalOperator]]:
    """select<a IS-IN E>(get<a, C>) → expr_set_scan<a, E>.

    Sound because E's elements are instances of C (checked via type
    inference), so intersecting with the full extension is the identity.
    """
    if not isinstance(plan, Select) or not isinstance(plan.input, Get):
        return None
    decomposed = _membership_condition(plan.condition)
    if decomposed is None:
        return None
    ref, expression = decomposed
    leaf = plan.input
    if ref != leaf.ref:
        return None
    element_class = ctx.expression_class(expression, leaf)
    if element_class is None:
        return None
    if element_class != leaf.class_name and not _is_subclass(
            ctx, element_class, leaf.class_name):
        return None
    return [ExpressionSetScan(ref, expression)]


def _is_subclass(ctx: RuleContext, class_name: str, ancestor: str) -> bool:
    current: Optional[str] = class_name
    while current is not None:
        if current == ancestor:
            return True
        current = ctx.schema.get_class(current).superclass
    return False


# -- index access paths -------------------------------------------------
_FLIPPED_COMPARISON = {"==": "==", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _property_comparison(conjunct: Expression, ref: str,
                         allow_parameter: bool = False
                         ) -> Optional[tuple[str, str, object]]:
    """Match ``ref.prop OP const`` (either orientation) in a conjunct.

    Returns ``(prop, op, value)`` with the comparison oriented so that the
    property is on the left, or ``None``.  With *allow_parameter* a bind
    parameter also matches and is returned as the :class:`Parameter`
    expression itself: the index scans resolve it at execution time.
    """
    if not isinstance(conjunct, BinaryOp):
        return None
    if conjunct.op not in _FLIPPED_COMPARISON:
        return None
    orientations = (
        (conjunct.left, conjunct.right, conjunct.op),
        (conjunct.right, conjunct.left, _FLIPPED_COMPARISON[conjunct.op]),
    )
    for prop_side, const_side, op in orientations:
        if (isinstance(prop_side, PropertyAccess)
                and isinstance(prop_side.base, Var)
                and prop_side.base.name == ref):
            if isinstance(const_side, Const) and const_side.value is not None:
                return prop_side.prop, op, const_side.value
            if allow_parameter and isinstance(const_side, Parameter):
                return prop_side.prop, op, const_side
    return None


def _match_index_eq(plan: LogicalOperator, ctx: RuleContext
                    ) -> Optional[tuple[Get, str, object, Optional[Expression]]]:
    """Match ``select<a.prop == const AND rest>(get<a, C>)`` against a
    registered index, returning ``(get, prop, key, residual)``."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Get):
        return None
    if ctx.database is None:
        return None
    get = plan.input
    parts = conjuncts(plan.condition)
    for position, part in enumerate(parts):
        match = _property_comparison(part, get.ref, allow_parameter=True)
        if match is None:
            continue
        prop, op, value = match
        if op != "==":
            continue
        if ctx.database.indexes.get(get.class_name, prop) is None:
            continue
        residual = make_conjunction(parts[:position] + parts[position + 1:])
        return get, prop, value, residual
    return None


def _implement_select_index_eq(plan: LogicalOperator,
                               _children: tuple[PhysicalOperator, ...],
                               ctx: RuleContext
                               ) -> Optional[Iterable[PhysicalOperator]]:
    """select<a.prop == const AND rest>(get<a, C>) → filter<rest>(index_eq_scan)
    when an index on ``C.prop`` is registered with the database."""
    match = _match_index_eq(plan, ctx)
    if match is None:
        return None
    get, prop, value, residual = match
    scan: PhysicalOperator = IndexEqScan(get.ref, get.class_name, prop, value)
    return [scan if residual is None else Filter(residual, scan)]


def _match_index_range(plan: LogicalOperator, ctx: RuleContext
                       ) -> Optional[tuple[Get, str, object, object, bool, bool,
                                           Optional[Expression]]]:
    """Match a selection over a sorted-indexed property, merging the range
    conjuncts on the same property into one interval.  Returns ``(get, prop,
    low, high, include_low, include_high, residual)``.

    Constant bounds on one side merge into the tightest.  A bind parameter
    cannot be ranked against anything before execution, so a side takes the
    first bound it meets and, once a parameter is involved, leaves every
    later conjunct on that side to the residual filter — whichever bound
    the scan got, the result is the same."""
    if not isinstance(plan, Select) or not isinstance(plan.input, Get):
        return None
    if ctx.database is None:
        return None
    get = plan.input
    parts = conjuncts(plan.condition)

    # Pick the first property with a sorted index and at least one bound.
    target_prop: Optional[str] = None
    for part in parts:
        match = _property_comparison(part, get.ref, allow_parameter=True)
        if match is None or match[1] == "==":
            continue
        index = ctx.database.indexes.get(get.class_name, match[0])
        if index is not None and index.kind == "sorted":
            target_prop = match[0]
            break
    if target_prop is None:
        return None

    low = high = None
    include_low = include_high = True
    residual: list[Expression] = []
    for part in parts:
        match = _property_comparison(part, get.ref, allow_parameter=True)
        if match is None or match[0] != target_prop or match[1] == "==":
            residual.append(part)
            continue
        _, op, value = match
        bound_inclusive = op in ("<=", ">=")
        lower = op in (">", ">=")
        current = low if lower else high
        if current is not None and (isinstance(current, Expression)
                                    or isinstance(value, Expression)):
            residual.append(part)
            continue
        try:
            if lower:
                if low is None or value > low or (value == low and not bound_inclusive):
                    low, include_low = value, bound_inclusive
            else:
                if high is None or value < high or (value == high and not bound_inclusive):
                    high, include_high = value, bound_inclusive
        except TypeError:
            # Bounds of incomparable types: evaluate this conjunct per row.
            residual.append(part)
    if low is None and high is None:
        return None
    return (get, target_prop, low, high, include_low, include_high,
            make_conjunction(residual))


def _implement_select_index_range(plan: LogicalOperator,
                                  _children: tuple[PhysicalOperator, ...],
                                  ctx: RuleContext
                                  ) -> Optional[Iterable[PhysicalOperator]]:
    """select<a.prop < bound AND ...>(get<a, C>) → index_range_scan over a
    sorted index (*bound* a constant or a bind parameter), merging the range
    conjuncts on the same property into one interval and keeping the
    remaining conjuncts as a residual filter."""
    match = _match_index_range(plan, ctx)
    if match is None:
        return None
    get, prop, low, high, include_low, include_high, rest = match
    scan: PhysicalOperator = IndexRangeScan(
        get.ref, get.class_name, prop, low, high, include_low, include_high)
    return [scan if rest is None else Filter(rest, scan)]


def _split_equi_condition(plan: Join) -> Optional[tuple[Expression, Expression]]:
    """For an equality join condition, return (left_key, right_key)."""
    condition = plan.condition
    if not isinstance(condition, BinaryOp) or condition.op != "==":
        return None
    left_refs = set(plan.left.refs())
    right_refs = set(plan.right.refs())
    first_refs = free_vars(condition.left)
    second_refs = free_vars(condition.right)
    if first_refs and second_refs:
        if first_refs <= left_refs and second_refs <= right_refs:
            return condition.left, condition.right
        if first_refs <= right_refs and second_refs <= left_refs:
            return condition.right, condition.left
    return None


def _implement_join_nested_loop(plan: LogicalOperator,
                                children: tuple[PhysicalOperator, ...],
                                _ctx: RuleContext
                                ) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Join):
        return [NestedLoopJoin(plan.condition, children[0], children[1])]
    return None


def _implement_join_hash(plan: LogicalOperator,
                         children: tuple[PhysicalOperator, ...],
                         _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if not isinstance(plan, Join):
        return None
    keys = _split_equi_condition(plan)
    if keys is None:
        return None
    left_key, right_key = keys
    return [HashJoin(left_key, right_key, children[0], children[1])]


def _implement_join_index_nested(plan: LogicalOperator,
                                 children: tuple[PhysicalOperator, ...],
                                 ctx: RuleContext
                                 ) -> Optional[Iterable[PhysicalOperator]]:
    """Equi-join whose inner side is a bare class extension with an index on
    the join property → per-outer-row index probe (the inner child plan is
    discarded: the index replaces the scan)."""
    if ctx.database is None or not isinstance(plan, Join):
        return None
    keys = _split_equi_condition(plan)
    if keys is None:
        return None
    left_key, right_key = keys
    inner = plan.right
    if not isinstance(inner, Get):
        return None
    if not (isinstance(right_key, PropertyAccess)
            and isinstance(right_key.base, Var)
            and right_key.base.name == inner.ref):
        return None
    prop = right_key.prop
    if ctx.database.indexes.get(inner.class_name, prop) is None:
        return None
    return [IndexNestedLoopJoin(left_key, inner.ref, inner.class_name,
                                prop, children[0])]


def _implement_natural_join(plan: LogicalOperator,
                            children: tuple[PhysicalOperator, ...],
                            _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, NaturalJoin):
        return [NaturalMergeJoin(children[0], children[1])]
    return None


def _implement_map(plan: LogicalOperator, children: tuple[PhysicalOperator, ...],
                   _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Map):
        return [MapEval(plan.ref, plan.expression, children[0])]
    return None


def _implement_flat(plan: LogicalOperator, children: tuple[PhysicalOperator, ...],
                    _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Flat):
        return [FlattenEval(plan.ref, plan.expression, children[0])]
    return None


def _implement_project(plan: LogicalOperator, children: tuple[PhysicalOperator, ...],
                       _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Project):
        return [ProjectOp(plan.kept, children[0])]
    return None


def _implement_union(plan: LogicalOperator, children: tuple[PhysicalOperator, ...],
                     _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Union):
        return [UnionOp(children[0], children[1])]
    return None


def _implement_diff(plan: LogicalOperator, children: tuple[PhysicalOperator, ...],
                    _ctx: RuleContext) -> Optional[Iterable[PhysicalOperator]]:
    if isinstance(plan, Diff):
        return [DiffOp(children[0], children[1])]
    return None


def standard_implementations() -> list[CallableImplementationRule]:
    """The predefined implementation rules."""
    specs = [
        ("impl-get-scan", "class extension scan", _implement_get),
        ("impl-expression-source", "materialize a set-valued expression",
         _implement_source),
        ("impl-select-filter", "per-tuple filter", _implement_select_filter),
        ("impl-select-probe", "precompute a membership set and probe",
         _implement_select_probe),
        ("impl-select-membership-scan",
         "replace scan + membership test by scanning the member set",
         _implement_select_membership_scan),
        ("impl-select-index-eq",
         "equality filter over an indexed property becomes an index lookup",
         _implement_select_index_eq),
        ("impl-select-index-range",
         "range filter over a sorted-indexed property becomes an index range scan",
         _implement_select_index_range),
        ("impl-join-nested-loop", "nested loop join", _implement_join_nested_loop),
        ("impl-join-hash", "hash join on equality keys", _implement_join_hash),
        ("impl-join-index-nested",
         "per-outer-row index probe of an indexed inner class",
         _implement_join_index_nested),
        ("impl-natural-join", "natural join", _implement_natural_join),
        ("impl-map", "per-tuple expression evaluation", _implement_map),
        ("impl-flat", "per-tuple flattening", _implement_flat),
        ("impl-project", "projection with duplicate elimination", _implement_project),
        ("impl-union", "set union", _implement_union),
        ("impl-diff", "set difference", _implement_diff),
    ]
    return [CallableImplementationRule(name=name, description=description,
                                       tags=_BUILTIN, function=function)
            for name, description, function in specs]


def standard_rules() -> RuleSet:
    """The complete predefined rule set (transformations + implementations)."""
    return RuleSet("standard",
                   transformations=standard_transformations(),
                   implementations=standard_implementations())
