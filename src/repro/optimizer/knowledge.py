"""Schema-specific semantic knowledge about methods (Section 4.2).

The schema designer states knowledge in four forms; each compiles into
optimizer rules:

* :class:`ExpressionEquivalence` — ``x IN C: expr1(x) == expr2(x)`` →
  bidirectional transformation rules rewriting operator parameters;
* :class:`ConditionEquivalence` — ``x IN C: cond1(x) ⇔ cond2(x)`` → the same
  mechanism restricted to boolean expressions (typical source: inverse
  links);
* :class:`ConditionImplication` — ``x IN C: cond1(x) ⇒ cond2(x)`` → an
  apply-once rule adding the implied (cheaper) restriction;
* :class:`QueryMethodEquivalence` — ``methcall == ACCESS … FROM … WHERE …``
  → an implementation rule mapping the query's algebraic form onto a direct
  invocation of the (externally implemented) method;
* :class:`SourceEquivalence` — ``x IN C: FROM y IN expr1(x) ≡ FROM y IN
  expr2(x)`` → an implementation rule flattening a dependent range's
  source through the other expression;
* :class:`RangeInversion` — the range-inversion rules of
  :mod:`repro.optimizer.inversion`, which turn a navigation into a range
  over the navigated-to objects' own source.

All expressions may be given as VQL text or as already-parsed expression
nodes.  Free variables other than the bound variable act as parameters and
may optionally be constrained to a class (``parameter_classes``), as in the
paper's equivalence E3 where ``D`` must be a set of documents.

:class:`SchemaKnowledge` aggregates the individual pieces and compiles the
complete schema-specific rule set; it can also derive condition equivalences
automatically from the schema's declared inverse links, which the paper
mentions as a typical source of this knowledge, and path equivalences from
the bodies of internal methods built by the factories of
:mod:`repro.datamodel.methods` (a path method *is* its path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union as TypingUnion

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    Expression,
    MethodCall,
    PropertyAccess,
    Var,
    conjuncts,
    free_vars,
    make_conjunction,
    rename_vars,
    walk,
)
from repro.algebra.operators import (
    ExpressionSource,
    Flat,
    Get,
    Join,
    LogicalOperator,
    Map,
    Select,
)
from repro.datamodel.schema import InverseLink, MethodKind, Schema
from repro.datamodel.types import ANY, ObjectType, SetType
from repro.errors import ReproError, RuleDerivationError
from repro.optimizer.inversion import (
    indexed_comparison,
    invert_dependent_range,
    invert_membership,
)
from repro.optimizer.patterns import (
    Binding,
    instantiate,
    match_expression,
    pattern_from_template,
    rewrite_matches,
)
from repro.optimizer.rules import (
    CallableImplementationRule,
    CallableTransformationRule,
    RuleContext,
    RuleSet,
)
from repro.physical.plans import (
    ExpressionSetScan,
    FlattenEval,
    PhysicalOperator,
    SetProbeFilter,
)
from repro.vql.analyzer import analyze_query, resolve_class_references
from repro.vql.parser import parse_expression, parse_query

__all__ = [
    "ExpressionEquivalence",
    "ConditionEquivalence",
    "ConditionImplication",
    "QueryMethodEquivalence",
    "SourceEquivalence",
    "RangeInversion",
    "SchemaKnowledge",
    "equivalences_from_inverse_link",
    "equivalences_from_method_bodies",
]

ExpressionLike = TypingUnion[str, Expression]


def _as_expression(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    return parse_expression(value)


def _with_parameter(plan: LogicalOperator, new_expression: Expression
                    ) -> Optional[LogicalOperator]:
    """Return a copy of *plan* with its single expression parameter replaced."""
    if isinstance(plan, Select):
        return Select(new_expression, plan.input)
    if isinstance(plan, Join):
        return Join(new_expression, plan.left, plan.right)
    if isinstance(plan, Map):
        return Map(plan.ref, new_expression, plan.input)
    if isinstance(plan, Flat):
        return Flat(plan.ref, new_expression, plan.input)
    if isinstance(plan, ExpressionSource):
        return ExpressionSource(plan.ref, new_expression)
    return None


def _binding_guard(context: RuleContext, plan: LogicalOperator,
                   variable: str, class_name: str,
                   parameter_classes: Mapping[str, str]):
    """Build a guard callable checking class constraints of a binding."""

    def guard(_occurrence: Expression, binding: Binding) -> bool:
        bound = binding.get(variable)
        if bound is None:
            return False
        if not context.expression_class(bound, plan) == class_name and \
                not _conforms(context, bound, plan, class_name):
            return False
        for parameter, required in parameter_classes.items():
            value = binding.get(parameter)
            if value is None:
                return False
            if not _conforms(context, value, plan, required):
                return False
        return True

    return guard


def _conforms(context: RuleContext, expression: Expression,
              plan: LogicalOperator, class_name: str) -> bool:
    actual = context.expression_class(expression, plan)
    if actual is None:
        return False
    current: Optional[str] = actual
    while current is not None:
        if current == class_name:
            return True
        current = context.schema.get_class(current).superclass
    return False


@dataclass
class ExpressionEquivalence:
    """``x IN C: expr1(x) == expr2(x)`` — equivalent expressions.

    Typical source: path methods, e.g. E1:
    ``p IN Paragraph: p->document() == p.section.document``.
    """

    class_name: str
    variable: str
    left: ExpressionLike
    right: ExpressionLike
    name: str = ""
    parameter_classes: dict[str, str] = field(default_factory=dict)

    kind = "expression-equivalence"
    tag = "semantic:expression"

    def __post_init__(self) -> None:
        self.left = _as_expression(self.left)
        self.right = _as_expression(self.right)
        if not self.name:
            self.name = f"expr-equiv[{self.left} == {self.right}]"
        self._validate()

    def _validate(self) -> None:
        for side in (self.left, self.right):
            if self.variable not in free_vars(side):
                raise RuleDerivationError(
                    f"{self.kind} {self.name!r}: expression {side} does not "
                    f"mention the bound variable {self.variable!r}")

    def pattern_expressions(self) -> tuple[Expression, ...]:
        """The expressions this declaration's rules match and instantiate."""
        return (self.left, self.right)

    def derive_rules(self, schema: Schema) -> RuleSet:
        """Compile into bidirectional parameter-rewriting rules."""
        rules = RuleSet(self.name)
        # Resolve bare class names (``Document->select_by_index(s)``) so that
        # they do not end up as pattern variables.
        left = resolve_class_references(self.left, schema, set())
        right = resolve_class_references(self.right, schema, set())
        variables = {name: None for name in (free_vars(left) | free_vars(right))}
        left_pattern = pattern_from_template(left, variables)
        right_pattern = pattern_from_template(right, variables)
        left_vars = free_vars(left) & set(variables)
        right_vars = free_vars(right) & set(variables)
        directions = []
        # A direction is only usable when every variable of the template is
        # bound by the pattern side.
        if right_vars <= left_vars:
            directions.append((f"{self.name} [->]", left_pattern, right_pattern))
        if left_vars <= right_vars:
            directions.append((f"{self.name} [<-]", right_pattern, left_pattern))
        for rule_name, pattern, template in directions:
            rules.add(CallableTransformationRule(
                name=rule_name,
                description=f"{self.kind}: {self.left} == {self.right}",
                tags=frozenset({"semantic", self.tag}),
                function=self._make_rewriter(pattern, template)))
        return rules

    def _make_rewriter(self, pattern: Expression, template: Expression):
        variable = self.variable
        class_name = self.class_name
        parameter_classes = dict(self.parameter_classes)

        def rewrite(plan: LogicalOperator, context: RuleContext
                    ) -> Optional[Iterable[LogicalOperator]]:
            parameters = plan.parameters()
            if len(parameters) != 1:
                return None
            guard = _binding_guard(context, plan, variable, class_name,
                                   parameter_classes)
            alternatives = []
            for new_parameter in rewrite_matches(parameters[0], pattern,
                                                 template, guard):
                replacement = _with_parameter(plan, new_parameter)
                if replacement is not None:
                    alternatives.append(replacement)
            return alternatives

        return rewrite


@dataclass
class ConditionEquivalence(ExpressionEquivalence):
    """``x IN C: cond1(x) ⇔ cond2(x)`` — equivalent boolean conditions.

    Typical source: inverse links, e.g. E3:
    ``p IN Paragraph: p.section.document IS-IN D ⇔ p.section IS-IN D.sections``.
    """

    kind = "condition-equivalence"
    tag = "semantic:condition"

    def _validate(self) -> None:
        super()._validate()
        # At least one side must be syntactically boolean.  The other side
        # may be a method call whose boolean return type is only known to
        # the schema (e.g. ``p->sameDocument(q)``).
        if not (self.left.is_boolean() or self.right.is_boolean()):
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: neither {self.left} nor "
                f"{self.right} is a boolean expression")


@dataclass
class SourceEquivalence(ExpressionEquivalence):
    """``x IN C: FROM y IN expr1(x) ≡ FROM y IN expr2(x)`` — two sources of
    a dependent range that yield the same objects.

    Typical source: a collecting method, e.g. ``Document.paragraphs()``
    and ``d.sections.paragraphs``.  They differ only where the path is
    NULL, for which the method returns the empty set, and a range over
    either is then empty — so the rule applies only to the whole source of
    a ``flat`` (a dependent range), nowhere else.  It is an implementation
    rule: the flattening may evaluate the right-hand side instead of the
    left, priced by the cost model, without adding logical plans to the
    search.
    """

    kind = "source-equivalence"

    def derive_rules(self, schema: Schema) -> RuleSet:
        rules = RuleSet(self.name)
        left = resolve_class_references(self.left, schema, set())
        right = resolve_class_references(self.right, schema, set())
        variables = {name: None for name in (free_vars(left) | free_vars(right))}
        pattern = pattern_from_template(left, variables)
        template = pattern_from_template(right, variables)
        variable = self.variable
        class_name = self.class_name
        parameter_classes = dict(self.parameter_classes)

        def implement(plan: LogicalOperator,
                      children: tuple[PhysicalOperator, ...],
                      context: RuleContext
                      ) -> Optional[Iterable[PhysicalOperator]]:
            if not isinstance(plan, Flat):
                return None
            binding = match_expression(pattern, plan.expression)
            guard = _binding_guard(context, plan.input, variable, class_name,
                                   parameter_classes)
            if binding is None or not guard(plan.expression, binding):
                return None
            return [FlattenEval(plan.ref, instantiate(template, binding),
                                children[0])]

        rules.add(CallableImplementationRule(
            name=self.name,
            description=f"{self.kind}: FROM {self.left} == FROM {self.right}",
            tags=frozenset({"semantic", self.tag}),
            function=implement))
        return rules


@dataclass
class RangeInversion:
    """The range-inversion rules (:mod:`repro.optimizer.inversion`).

    The dependent-range form relies on the schema's inverse links, which
    the database maintains at every write; the membership form is purely
    algebraic.  Both add alternatives that the cost model prices.  The
    dependent-range form is offered only where the inverted range has an
    access path of its own — the method one of *knowledge*'s query↔method
    equivalences (E5) names, or user-defined indexes on every conjunct —
    since a range over the whole target class reads as much as the
    navigation it replaces.
    """

    knowledge: Optional["SchemaKnowledge"] = None
    name: str = "range-inversion"

    kind = "range-inversion"
    tag = "semantic:inversion"

    def pattern_expressions(self) -> tuple[Expression, ...]:
        return ()

    def derive_rules(self, schema: Schema) -> RuleSet:
        rules = RuleSet(self.name)
        tags = frozenset({"semantic", self.tag})
        matchers = ([item.select_matcher(schema)
                     for item in self.knowledge.query_method_equivalences]
                    if self.knowledge is not None else [])

        def access_path(condition: Expression, target: Get,
                        context: RuleContext) -> Optional[LogicalOperator]:
            selection = Select(condition, target)
            for match in matchers:
                matched = match(selection, context)
                if matched is not None and matched[0] == target.ref:
                    return ExpressionSource(*matched)
            if all(indexed_comparison(part, target, context)
                   for part in conjuncts(condition)):
                return selection
            return None

        rules.add(CallableTransformationRule(
            name=f"{self.name} [dependent range]",
            description="select<c(p)>(flat<p, d.a.b>(get<d, C>)) => "
                        "flat<d, p.b'.a' INTERSECT C>(source of p meeting c)",
            tags=tags, shape=(Select, Flat, Get),
            function=lambda plan, context: invert_dependent_range(
                plan, context, access_path)))
        rules.add(CallableTransformationRule(
            name=f"{self.name} [membership]",
            description="select<p IS-IN p.x.S>(get<p, P>) => "
                        "project<p>(select<p.x == y>(flat<p, y.S INTERSECT P>"
                        "(get<y, Y>)))",
            tags=tags, shape=(Select, Get), function=invert_membership))
        return rules


@dataclass
class ConditionImplication:
    """``x IN C: cond1(x) ⇒ cond2(x)`` — implied (redundant) condition.

    Compiles into an apply-once rule that conjoins the implied condition to a
    selection already containing the antecedent, the algebraic counterpart of
    the paper's ``select<cond1>(?A) ⇒! natural_join(select<cond1>(?A),
    select<cond2>(?A))`` (over equal reference sets the natural join is an
    intersection, so adding the conjunct is equivalent).
    """

    class_name: str
    variable: str
    antecedent: ExpressionLike
    consequent: ExpressionLike
    name: str = ""
    parameter_classes: dict[str, str] = field(default_factory=dict)

    kind = "condition-implication"
    tag = "semantic:implication"

    def __post_init__(self) -> None:
        self.antecedent = _as_expression(self.antecedent)
        self.consequent = _as_expression(self.consequent)
        if not self.name:
            self.name = f"implication[{self.antecedent} => {self.consequent}]"
        if self.variable not in free_vars(self.antecedent):
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: antecedent does not mention "
                f"{self.variable!r}")
        if self.variable not in free_vars(self.consequent):
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: consequent does not mention "
                f"{self.variable!r}")

    def pattern_expressions(self) -> tuple[Expression, ...]:
        """The expressions this declaration's rule matches and adds."""
        return (self.antecedent, self.consequent)

    def derive_rules(self, schema: Schema) -> RuleSet:
        rules = RuleSet(self.name)
        antecedent = resolve_class_references(self.antecedent, schema, set())
        consequent = resolve_class_references(self.consequent, schema, set())
        variables = {name: None for name in
                     (free_vars(antecedent) | free_vars(consequent))}
        antecedent_pattern = pattern_from_template(antecedent, variables)
        consequent_template = pattern_from_template(consequent, variables)
        variable = self.variable
        class_name = self.class_name
        parameter_classes = dict(self.parameter_classes)

        def rewrite(plan: LogicalOperator, context: RuleContext
                    ) -> Optional[Iterable[LogicalOperator]]:
            if not isinstance(plan, Select):
                return None
            guard = _binding_guard(context, plan, variable, class_name,
                                   parameter_classes)
            existing = conjuncts(plan.condition)
            alternatives = []
            for conjunct in existing:
                binding = match_expression(antecedent_pattern, conjunct)
                if binding is None or not guard(conjunct, binding):
                    continue
                implied = instantiate(consequent_template, binding)
                if implied in existing:
                    continue  # apply-once guard: already added
                new_condition = make_conjunction([*existing, implied])
                assert new_condition is not None
                alternatives.append(Select(new_condition, plan.input))
            return alternatives

        rules.add(CallableTransformationRule(
            name=self.name,
            description=f"{self.kind}: {self.antecedent} => {self.consequent}",
            tags=frozenset({"semantic", self.tag}),
            apply_once=True,
            function=rewrite))
        return rules


@dataclass
class QueryMethodEquivalence:
    """``methcall == ACCESS … FROM … WHERE …`` — a method implements a query.

    E5: ``Paragraph->retrieve_by_string(s) ==
    ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)``.

    Derivation (Section 4.2, "Equivalences Between Queries and Method
    Calls"): the query is translated to its algebraic form and an
    implementation rule ``Aquery → methcall`` is generated, applicable in one
    direction only.  Two physical shapes are produced:

    * the *scan replacement*: ``select<W>(get<a, C>)`` becomes an
      :class:`ExpressionSetScan` of the method call;
    * the *probe*: ``select<W>(P)`` for arbitrary ``P`` becomes a
      :class:`SetProbeFilter` probing the method-call result, sound because
      the method returns exactly the instances of ``C`` satisfying ``W``.

    A logical-level transformation to :class:`ExpressionSource` is derived as
    well so the rewritten form is visible to further transformations (and to
    the optimization trace, mirroring the paper's plan PQ).
    """

    query: TypingUnion[str, object]
    method_call: ExpressionLike
    name: str = ""

    kind = "query-method-equivalence"
    tag = "semantic:query-method"

    def __post_init__(self) -> None:
        self.method_call = _as_expression(self.method_call)
        if not self.name:
            self.name = f"query-method[{self.method_call}]"

    def _parsed_query(self):
        return parse_query(self.query) if isinstance(self.query, str) \
            else self.query

    def pattern_expressions(self) -> tuple[Expression, ...]:
        """The query's clauses (the pattern) and the method call."""
        query = self._parsed_query()
        where = () if query.where is None else (query.where,)
        return (query.access, *(decl.source for decl in query.ranges),
                *where, self.method_call)

    def derive_rules(self, schema: Schema) -> RuleSet:
        rules = RuleSet(self.name)
        _match_select = self.select_matcher(schema)

        def transform(plan: LogicalOperator, context: RuleContext
                      ) -> Optional[Iterable[LogicalOperator]]:
            matched = _match_select(plan, context)
            if matched is None:
                return None
            ref, method_call = matched
            if isinstance(plan, Select) and isinstance(plan.input, Get) \
                    and plan.input.ref == ref:
                return [ExpressionSource(ref, method_call)]
            return None

        def implement(plan: LogicalOperator,
                      children: tuple[PhysicalOperator, ...],
                      context: RuleContext
                      ) -> Optional[Iterable[PhysicalOperator]]:
            matched = _match_select(plan, context)
            if matched is None:
                return None
            ref, method_call = matched
            alternatives: list[PhysicalOperator] = [
                SetProbeFilter(ref, method_call, children[0])]
            if isinstance(plan, Select) and isinstance(plan.input, Get) \
                    and plan.input.ref == ref:
                alternatives.append(ExpressionSetScan(ref, method_call))
            return alternatives

        class_name = _match_select.class_name
        rules.add(CallableTransformationRule(
            name=f"{self.name} [logical]",
            description=f"{self.kind}: σ over {class_name} == {self.method_call}",
            tags=frozenset({"semantic", self.tag}),
            function=transform))
        rules.add(CallableImplementationRule(
            name=f"{self.name} [impl]",
            description=f"{self.kind}: σ over {class_name} == {self.method_call}",
            tags=frozenset({"semantic", self.tag}),
            function=implement))
        return rules

    def select_matcher(self, schema: Schema):
        """``match(plan, context)``: for ``select<W>(P)`` whose condition
        is this equivalence's query condition over a reference of its class,
        ``(reference, method call)`` with the call's parameters bound from
        the match; None otherwise."""
        analyzed, class_name = self._analyzed(schema)
        range_variable = analyzed.query.ranges[0].variable
        method_call = resolve_class_references(self.method_call, schema, set())
        unbound = (free_vars(method_call)
                   - free_vars(analyzed.query.where) - {range_variable})
        if unbound:
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: method-call parameter(s) "
                f"{', '.join(sorted(unbound))} do not occur in the query")
        parameters = ((free_vars(analyzed.query.where)
                       | free_vars(method_call)) - {range_variable})
        variables = {name: None for name in parameters | {range_variable}}
        condition_pattern = pattern_from_template(analyzed.query.where, variables)
        method_template = pattern_from_template(method_call, variables)

        def _match_select(plan: LogicalOperator, context: RuleContext
                          ) -> Optional[tuple[str, Expression]]:
            """Match ``select<W>(P)``; return (ref, instantiated method call)."""
            if not isinstance(plan, Select):
                return None
            binding = match_expression(condition_pattern, plan.condition)
            if binding is None:
                return None
            bound_receiver = binding.get(range_variable)
            if not isinstance(bound_receiver, Var):
                return None
            ref = bound_receiver.name
            if ref not in plan.input.refs():
                return None
            if not context.conforms_to_class(plan.input, ref, class_name):
                return None
            method_call = instantiate(method_template, binding)
            if free_vars(method_call):
                return None  # parameters must be reference-free
            return ref, method_call

        _match_select.class_name = class_name
        return _match_select

    def _analyzed(self, schema: Schema):
        """The analyzed query and the class it ranges over (validated)."""
        query = self._parsed_query()
        # Free variables of the query that are not range variables are the
        # equivalence's parameters; pre-bind them so the analyzer accepts the
        # parametrized query.
        range_variables = {decl.variable for decl in query.ranges}
        parameter_names = set()
        if query.where is not None:
            parameter_names = {
                name for name in free_vars(query.where)
                if name not in range_variables and not schema.has_class(name)}
        analyzed = analyze_query(query, schema,
                                 parameters={name: ANY for name in parameter_names})
        ranges = analyzed.query.ranges
        if len(ranges) != 1 or not ranges[0].is_class_range():
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: the query must range over a "
                "single class extension")
        if analyzed.query.where is None:
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: the query must have a WHERE clause")
        range_variable = ranges[0].variable
        access = analyzed.query.access
        if access != Var(range_variable):
            raise RuleDerivationError(
                f"{self.kind} {self.name!r}: the query must return the range "
                f"variable itself (ACCESS {range_variable})")
        class_name = ranges[0].source.class_name
        return analyzed, class_name


def equivalences_from_inverse_link(link: InverseLink) -> list[ConditionEquivalence]:
    """Derive the two condition equivalences implied by an inverse link.

    For ``Section.document`` ↔ ``Document.sections`` the forward direction is
    the paper's E3-shaped rule
    ``s.document IS-IN D ⇔ s IS-IN D.sections`` with ``D`` a set of
    documents; the reverse direction (from the many-side) is the E4-shaped
    rule.  Only single-valued source sides generate a rule (the value of a
    set-valued side is not a single object, so the left-hand condition would
    not type-check).
    """
    equivalences: list[ConditionEquivalence] = []
    for direction in (link, link.reversed()):
        if direction.source_cardinality != "one":
            continue
        variable = "x"
        collection = "Ys"
        left = BinaryOp(
            "IS-IN",
            PropertyAccess(Var(variable), direction.source_property),
            Var(collection))
        right = BinaryOp(
            "IS-IN",
            Var(variable),
            PropertyAccess(Var(collection), direction.target_property))
        equivalences.append(ConditionEquivalence(
            class_name=direction.source_class,
            variable=variable,
            left=left,
            right=right,
            name=(f"inverse-link[{direction.source_class}."
                  f"{direction.source_property}]"),
            parameter_classes={collection: direction.target_class}))
    return equivalences


def _reference_path(schema: Schema, class_name: str,
                    props: Sequence[str]) -> Optional[str]:
    """The class a path of single-valued reference hops from *class_name*
    reaches, or None when a hop is unknown, set-valued or not a reference."""
    for prop in props:
        try:
            prop_def = schema.resolve_property(class_name, prop)
        except ReproError:
            return None
        if prop_def.target_class is None or isinstance(prop_def.vml_type,
                                                       SetType):
            return None
        class_name = prop_def.target_class
    return class_name


def _path_expression(base: Expression, props: Sequence[str]) -> Expression:
    for prop in props:
        base = PropertyAccess(base, prop)
    return base


def equivalences_from_method_bodies(schema: Schema) -> list:
    """Derive the equivalence each factory-built internal method declares.

    * ``path_method(a, b)`` on class C: ``x->m() == x.a.b`` (an
      :class:`ExpressionEquivalence`; every hop but the last must be a
      single-valued reference, where a path method and a path agree);
    * ``collect_over_property(via, collect)``: a range over ``x->m()``
      equals a range over ``x.via.collect`` (a :class:`SourceEquivalence`;
      *collect* must be set-valued);
    * ``same_path_target_method(n)``: ``x->m(y) ⇔ x->n() == y->n()`` (a
      :class:`ConditionEquivalence`, ``y`` of the parameter's class).
    """
    items: list = []
    for class_name, class_def in schema.classes.items():
        for method in class_def.instance_methods.values():
            body = getattr(method.implementation, "body", None)
            if body is None or method.kind != MethodKind.INTERNAL:
                continue
            form, spec = body
            name = f"method-body[{class_name}.{method.name}]"
            call = MethodCall(Var("x"), method.name)
            if form == "path" and method.arity == 0:
                if _reference_path(schema, class_name, spec[:-1]) is None:
                    continue
                items.append(ExpressionEquivalence(
                    class_name, "x", call, _path_expression(Var("x"), spec),
                    name=name))
            elif form == "collect" and method.arity == 0:
                via, collect = spec
                try:
                    via_def = schema.resolve_property(class_name, via)
                    collect_def = (schema.resolve_property(
                        via_def.target_class, collect)
                        if via_def.target_class is not None else None)
                except ReproError:
                    continue
                if collect_def is None or not isinstance(collect_def.vml_type,
                                                         SetType):
                    continue
                items.append(SourceEquivalence(
                    class_name, "x", call,
                    _path_expression(Var("x"), (via, collect)), name=name))
            elif form == "same" and method.arity == 1:
                parameter_type = method.params[0][1]
                if not (isinstance(parameter_type, ObjectType)
                        and parameter_type.class_name is not None):
                    continue
                items.append(ConditionEquivalence(
                    class_name, "x",
                    MethodCall(Var("x"), method.name, (Var("y"),)),
                    BinaryOp("==", MethodCall(Var("x"), spec),
                             MethodCall(Var("y"), spec)),
                    name=name,
                    parameter_classes={"y": parameter_type.class_name}))
    return items


def _canonical(item) -> tuple:
    """A declaration's class and sides with its variables renamed by first
    appearance — equal for two declarations of the same equivalence."""
    sides = (item.left, item.right)
    order = [item.variable]
    for side in sides:
        for node in walk(side):
            if isinstance(node, Var) and node.name not in order:
                order.append(node.name)
    renaming = {name: f"${index}" for index, name in enumerate(order)}
    left, right = (rename_vars(side, renaming) for side in sides)
    return (item.class_name, frozenset({left, right}))


class SchemaKnowledge:
    """The collection of semantic knowledge attached to one schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.expression_equivalences: list[ExpressionEquivalence] = []
        self.condition_equivalences: list[ConditionEquivalence] = []
        self.condition_implications: list[ConditionImplication] = []
        self.query_method_equivalences: list[QueryMethodEquivalence] = []
        self.range_inversions: list[RangeInversion] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, item) -> "SchemaKnowledge":
        """Register one piece of knowledge (dispatches on its type)."""
        if isinstance(item, ConditionEquivalence):
            self.condition_equivalences.append(item)
        elif isinstance(item, ExpressionEquivalence):
            self.expression_equivalences.append(item)
        elif isinstance(item, ConditionImplication):
            self.condition_implications.append(item)
        elif isinstance(item, QueryMethodEquivalence):
            self.query_method_equivalences.append(item)
        elif isinstance(item, RangeInversion):
            self.range_inversions.append(item)
        else:
            raise TypeError(f"not a knowledge item: {item!r}")
        return self

    def add_all(self, items: Sequence) -> "SchemaKnowledge":
        for item in items:
            self.add(item)
        return self

    def derive_from_inverse_links(self) -> "SchemaKnowledge":
        """Add condition equivalences for every declared inverse link."""
        for link in self.schema.inverse_links:
            self.add_all(equivalences_from_inverse_link(link))
        return self

    def derive_from_method_bodies(self) -> "SchemaKnowledge":
        """Add the equivalence every factory-built internal method declares
        (:func:`equivalences_from_method_bodies`), skipping one already
        registered under another name (E1 is ``Paragraph.document()``'s)."""
        known = {_canonical(item) for item in self.expression_equivalences
                 + self.condition_equivalences}
        for item in equivalences_from_method_bodies(self.schema):
            if _canonical(item) not in known:
                self.add(item)
        return self

    def derive_range_inversions(self) -> "SchemaKnowledge":
        """Add the range-inversion rules (:class:`RangeInversion`); they
        read this knowledge's query↔method equivalences when derived."""
        return self.add(RangeInversion(knowledge=self))

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def items(self) -> list:
        return [*self.expression_equivalences, *self.condition_equivalences,
                *self.condition_implications, *self.query_method_equivalences,
                *self.range_inversions]

    def derive_rule_set(self) -> RuleSet:
        """Compile all knowledge into one schema-specific rule set."""
        rules = RuleSet(f"semantic[{self.schema.name}]")
        for item in self.items():
            rules.extend(item.derive_rules(self.schema))
        return rules

    def pattern_constants(self) -> frozenset:
        """The values of the literal constants in the declarations'
        patterns — I1's ``wordCount() > 40``, U2's ``gpa >= 3.5``.  A rule
        matches these literally (``40`` also matches ``40.0``, as Python
        equality does), so the plan cache keeps a statement's equal literal
        a literal instead of a bind parameter
        (:func:`repro.service.fingerprint.generalize`)."""
        return frozenset(node.value for item in self.items()
                         for expression in item.pattern_expressions()
                         for node in walk(expression)
                         if isinstance(node, Const))

    def __len__(self) -> int:
        return len(self.items())

    def describe(self) -> str:
        lines = [f"Semantic knowledge for schema {self.schema.name!r}:"]
        for item in self.items():
            lines.append(f"  [{item.kind}] {item.name}")
        return "\n".join(lines)
