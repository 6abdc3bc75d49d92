"""Semantic analysis of parsed VQL queries.

The analyzer resolves identifiers against the schema and type-checks the
query:

* a range source that is a bare identifier naming a class becomes a
  :class:`~repro.algebra.expressions.ClassExtent`;
* a method call whose receiver is a bare class name becomes a
  :class:`~repro.algebra.expressions.ClassMethodCall` (class/OWNTYPE method);
* every property access and method call is checked against the schema and
  the static type of every range variable is inferred, including dependent
  ranges (``p IN d->paragraphs()``).

The result is an :class:`AnalyzedQuery` carrying the rewritten query and the
typing environment, which the algebra translator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

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
    make_conjunction,
    parameters_used,
)
from repro.datamodel.schema import PropertyDef, Schema
from repro.datamodel.types import (
    ANY,
    BOOL,
    INT,
    REAL,
    STRING,
    ObjectType,
    SetType,
    TupleType,
    VMLType,
    infer_type,
)
from repro.errors import MethodResolutionError, SchemaError, VQLAnalysisError
from repro.vql.ast import (
    AnalyzeStatement,
    BeginStatement,
    CommitStatement,
    CreateClassStatement,
    CreateIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ExplainStatement,
    InsertStatement,
    Query,
    RangeDeclaration,
    RollbackStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)

__all__ = ["AnalyzedQuery", "Analyzer", "analyze_query", "infer_expression_type",
           "resolve_class_references", "class_of_type",
           "AnalyzedStatement", "analyze_statement"]


@dataclass
class AnalyzedQuery:
    """A type-checked query plus its typing environment."""

    query: Query
    variable_types: dict[str, VMLType] = field(default_factory=dict)
    #: bind-parameter keys in first-occurrence order (ACCESS, FROM, WHERE);
    #: positional parameters carry their decimal position as key
    parameters: tuple[str, ...] = ()

    def variable_class(self, variable: str) -> Optional[str]:
        """The class a range variable ranges over, if it is object-valued."""
        return class_of_type(self.variable_types.get(variable, ANY))


def class_of_type(vml_type: VMLType) -> Optional[str]:
    """Extract the class name from an object type or a set of object type."""
    if isinstance(vml_type, ObjectType):
        return vml_type.class_name
    if isinstance(vml_type, SetType) and isinstance(vml_type.element, ObjectType):
        return vml_type.element.class_name
    return None


def analyze_query(query: Query, schema: Schema,
                  parameters: Optional[Mapping[str, VMLType]] = None
                  ) -> AnalyzedQuery:
    """Convenience wrapper around :class:`Analyzer`.

    *parameters* pre-binds free variables (with their types) that are not
    range variables; this is how parametrized queries — such as the query
    side of a query↔method-call equivalence — are analyzed.
    """
    return Analyzer(schema, parameters=parameters).analyze(query)


def _distinct_conjuncts(condition: Expression) -> Expression:
    """*condition* without repeated top-level conjuncts (the first of equal
    ones stays).  AND is idempotent — NULL included, since a conjunct that
    is NULL fails the row either way — so this changes no answer, and k
    copies of a conjunct plan like one instead of multiplying the search.
    A condition without repeats is returned as it is."""
    parts = conjuncts(condition)
    distinct = list(dict.fromkeys(parts))
    if len(distinct) == len(parts):
        return condition
    return make_conjunction(distinct)


def resolve_class_references(expr: Expression, schema: Schema,
                             bound_variables: set[str]) -> Expression:
    """Rewrite bare class-name identifiers into class-level nodes.

    ``Var("Document")`` becomes ``ClassExtent("Document")`` and
    ``MethodCall(Var("Document"), m, args)`` becomes
    ``ClassMethodCall("Document", m, args)`` whenever ``Document`` names a
    schema class that is not shadowed by a range variable.
    """
    if isinstance(expr, Var):
        if expr.name not in bound_variables and schema.has_class(expr.name):
            return ClassExtent(expr.name)
        return expr
    if isinstance(expr, MethodCall):
        receiver = resolve_class_references(expr.receiver, schema, bound_variables)
        args = tuple(resolve_class_references(a, schema, bound_variables)
                     for a in expr.args)
        if isinstance(receiver, ClassExtent):
            return ClassMethodCall(receiver.class_name, expr.method, args)
        return MethodCall(receiver, expr.method, args)
    children = expr.children()
    if not children:
        return expr
    new_children = [resolve_class_references(child, schema, bound_variables)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def infer_expression_type(expr: Expression, env: Mapping[str, VMLType],
                          schema: Schema) -> VMLType:
    """Infer the static VML type of *expr* under the typing environment.

    The inference follows the paper's conventions: property access lifted
    over a set yields the (flattened) union of the member values, so a
    set-typed base with a set-typed property still yields one level of set.
    """
    if isinstance(expr, Const):
        return infer_type(expr.value)
    if isinstance(expr, Parameter):
        # The optimizer treats bind parameters as opaque typed constants; the
        # static type is unknown until a value is bound.
        return ANY
    if isinstance(expr, Var):
        if expr.name not in env:
            raise VQLAnalysisError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, ClassExtent):
        if not schema.has_class(expr.class_name):
            raise VQLAnalysisError(f"unknown class {expr.class_name!r}")
        return SetType(ObjectType(expr.class_name))
    if isinstance(expr, PropertyAccess):
        base_type = infer_expression_type(expr.base, env, schema)
        return _property_result_type(base_type, expr.prop, schema)
    if isinstance(expr, MethodCall):
        return _method_result_type(expr, env, schema)
    if isinstance(expr, ClassMethodCall):
        return _class_method_result_type(expr, env, schema)
    if isinstance(expr, BinaryOp):
        return _binary_result_type(expr, env, schema)
    if isinstance(expr, UnaryOp):
        operand_type = infer_expression_type(expr.operand, env, schema)
        return BOOL if expr.op == "NOT" else operand_type
    if isinstance(expr, TupleConstructor):
        components = tuple(
            (name, infer_expression_type(value, env, schema))
            for name, value in expr.fields)
        return TupleType(components)
    if isinstance(expr, SetConstructor):
        if not expr.elements:
            return SetType(ANY)
        element_types = {infer_expression_type(e, env, schema)
                         for e in expr.elements}
        if len(element_types) == 1:
            return SetType(element_types.pop())
        return SetType(ANY)
    return ANY


def _property_result_type(base_type: VMLType, prop: str,
                          schema: Schema) -> VMLType:
    lifted = False
    target = base_type
    if isinstance(target, SetType):
        lifted = True
        target = target.element
    class_name = target.class_name if isinstance(target, ObjectType) else None
    if class_name is None:
        return ANY
    try:
        prop_def = schema.resolve_property(class_name, prop)
    except SchemaError as exc:
        raise VQLAnalysisError(str(exc)) from exc
    result = prop_def.vml_type
    if lifted:
        # Lifting over a set flattens one level: D.sections is a set of
        # sections even though each document stores a set.
        if isinstance(result, SetType):
            return result
        return SetType(result)
    return result


def _method_result_type(expr: MethodCall, env: Mapping[str, VMLType],
                        schema: Schema) -> VMLType:
    receiver_type = infer_expression_type(expr.receiver, env, schema)
    lifted = isinstance(receiver_type, SetType)
    target = receiver_type.element if lifted else receiver_type
    class_name = target.class_name if isinstance(target, ObjectType) else None
    if class_name is None:
        return ANY
    try:
        method = schema.resolve_instance_method(class_name, expr.method)
    except MethodResolutionError as exc:
        raise VQLAnalysisError(str(exc)) from exc
    if len(expr.args) != method.arity:
        raise VQLAnalysisError(
            f"method {class_name}.{expr.method} expects {method.arity} "
            f"argument(s), got {len(expr.args)}")
    result = method.return_type
    if lifted:
        if isinstance(result, SetType):
            return result
        return SetType(result)
    return result


def _class_method_result_type(expr: ClassMethodCall, env: Mapping[str, VMLType],
                              schema: Schema) -> VMLType:
    if not schema.has_class(expr.class_name):
        raise VQLAnalysisError(f"unknown class {expr.class_name!r}")
    try:
        method = schema.resolve_class_method(expr.class_name, expr.method)
    except MethodResolutionError as exc:
        raise VQLAnalysisError(str(exc)) from exc
    if len(expr.args) != method.arity:
        raise VQLAnalysisError(
            f"class method {expr.class_name}.{expr.method} expects "
            f"{method.arity} argument(s), got {len(expr.args)}")
    return method.return_type


def _binary_result_type(expr: BinaryOp, env: Mapping[str, VMLType],
                        schema: Schema) -> VMLType:
    left = infer_expression_type(expr.left, env, schema)
    right = infer_expression_type(expr.right, env, schema)
    if expr.op in ("AND", "OR") or expr.op in ("==", "!=", "<", "<=", ">", ">=",
                                               "IS-IN", "IS-SUBSET"):
        return BOOL
    if expr.op in ("INTERSECT", "UNION", "DIFF"):
        return left if isinstance(left, SetType) else right
    if expr.op in ("+", "-", "*", "/"):
        if left == REAL or right == REAL or expr.op == "/":
            return REAL
        if left == INT and right == INT:
            return INT
        if left == STRING and expr.op == "+":
            return STRING
        return ANY
    return ANY


class Analyzer:
    """Performs resolution and type checking of one query at a time."""

    def __init__(self, schema: Schema,
                 parameters: Optional[Mapping[str, VMLType]] = None):
        self.schema = schema
        self.parameters = dict(parameters) if parameters else {}

    def analyze(self, query: Query) -> AnalyzedQuery:
        variable_types: dict[str, VMLType] = dict(self.parameters)
        resolved_ranges: list[RangeDeclaration] = []

        for declaration in query.ranges:
            if declaration.variable in variable_types:
                raise VQLAnalysisError(
                    f"range variable {declaration.variable!r} declared twice")
            source = resolve_class_references(
                declaration.source, self.schema, set(variable_types))
            unbound = [name for name in _free_variable_names(source)
                       if name not in variable_types]
            if unbound:
                raise VQLAnalysisError(
                    f"range source for {declaration.variable!r} uses unbound "
                    f"variable(s) {', '.join(sorted(unbound))}")
            source_type = infer_expression_type(source, variable_types, self.schema)
            variable_types[declaration.variable] = self._element_type(
                declaration.variable, source_type)
            resolved_ranges.append(
                RangeDeclaration(declaration.variable, source))

        bound = set(variable_types)
        access = resolve_class_references(query.access, self.schema, bound)
        where = None
        if query.where is not None:
            where = _distinct_conjuncts(
                resolve_class_references(query.where, self.schema, bound))

        # Type-check the clauses (raises on unknown members / arity errors).
        infer_expression_type(access, variable_types, self.schema)
        if where is not None:
            where_type = infer_expression_type(where, variable_types, self.schema)
            if where_type not in (BOOL, ANY):
                raise VQLAnalysisError(
                    f"WHERE clause must be boolean, got {where_type}")

        parameter_keys: list[str] = []
        for clause in (access, *(decl.source for decl in resolved_ranges),
                       *([] if where is None else [where])):
            for key in parameters_used(clause):
                if key not in parameter_keys:
                    parameter_keys.append(key)

        analyzed = AnalyzedQuery(
            query=Query(access=access, ranges=tuple(resolved_ranges), where=where),
            variable_types=variable_types,
            parameters=tuple(parameter_keys))
        return analyzed

    @staticmethod
    def _element_type(variable: str, source_type: VMLType) -> VMLType:
        if isinstance(source_type, SetType):
            return source_type.element
        if source_type == ANY:
            return ANY
        raise VQLAnalysisError(
            f"range source for {variable!r} is not set-valued ({source_type})")


def _free_variable_names(expr: Expression) -> set[str]:
    from repro.algebra.expressions import free_vars
    return free_vars(expr)


# ----------------------------------------------------------------------
# statement analysis (DDL / DML / query)
# ----------------------------------------------------------------------
@dataclass
class AnalyzedStatement:
    """A resolved, type-checked statement ready for the router.

    ``kind`` is one of ``select``, ``insert``, ``update``, ``delete``,
    ``create_class``, ``create_index``, ``drop_index``, ``analyze``,
    ``explain``, ``begin``, ``commit``, ``rollback``.  For selects, ``query`` is the analyzed query; for
    UPDATE/DELETE it is the derived *WHERE-query* (``ACCESS alias FROM
    alias IN Class WHERE cond``) which the router plans through the full
    optimizer so mutations pick up index access paths and bind parameters.
    For ``explain``, ``target`` is the analyzed target statement.
    ``parameters`` lists every bind parameter of the whole statement in
    first-occurrence order.  ``cache`` is scratch space for executors
    (compiled value getters, prepared handles); it never affects statement
    semantics.
    """

    kind: str
    statement: Statement
    parameters: tuple[str, ...] = ()
    query: Optional[AnalyzedQuery] = None
    assignments: tuple[tuple[str, Expression], ...] = ()
    property_defs: tuple[PropertyDef, ...] = ()
    target: Optional["AnalyzedStatement"] = None
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def class_name(self) -> Optional[str]:
        return getattr(self.statement, "class_name", None)

    @property
    def alias(self) -> Optional[str]:
        return getattr(self.statement, "alias", None)

    @property
    def is_query(self) -> bool:
        return self.kind == "select"

    @property
    def is_mutation(self) -> bool:
        return self.kind in ("insert", "update", "delete")

    @property
    def is_transaction_control(self) -> bool:
        return self.kind in ("begin", "commit", "rollback")


#: primitive type names accepted in CREATE CLASS property specs
_PRIMITIVE_TYPES: dict[str, VMLType] = {
    "STRING": STRING, "INT": INT, "REAL": REAL, "BOOL": BOOL, "ANY": ANY,
}


def analyze_statement(statement: Statement, schema: Schema) -> AnalyzedStatement:
    """Resolve and type-check *statement* against *schema*."""
    if isinstance(statement, SelectStatement):
        analyzed = analyze_query(statement.query, schema)
        return AnalyzedStatement(kind="select", statement=statement,
                                 parameters=analyzed.parameters,
                                 query=analyzed)
    if isinstance(statement, InsertStatement):
        return _analyze_insert(statement, schema)
    if isinstance(statement, UpdateStatement):
        return _analyze_update(statement, schema)
    if isinstance(statement, DeleteStatement):
        return _analyze_delete(statement, schema)
    if isinstance(statement, CreateClassStatement):
        return _analyze_create_class(statement, schema)
    if isinstance(statement, CreateIndexStatement):
        _check_index_target(statement.class_name, statement.prop, schema)
        return AnalyzedStatement(kind="create_index", statement=statement)
    if isinstance(statement, DropIndexStatement):
        _check_index_target(statement.class_name, statement.prop, schema)
        return AnalyzedStatement(kind="drop_index", statement=statement)
    if isinstance(statement, AnalyzeStatement):
        if statement.class_name is not None:
            _require_class(statement.class_name, schema)
        return AnalyzedStatement(kind="analyze", statement=statement)
    if isinstance(statement, ExplainStatement):
        target = analyze_statement(statement.target, schema)
        return AnalyzedStatement(kind="explain", statement=statement,
                                 parameters=target.parameters, target=target)
    if isinstance(statement, BeginStatement):
        return AnalyzedStatement(kind="begin", statement=statement)
    if isinstance(statement, CommitStatement):
        return AnalyzedStatement(kind="commit", statement=statement)
    if isinstance(statement, RollbackStatement):
        return AnalyzedStatement(kind="rollback", statement=statement)
    raise VQLAnalysisError(f"unsupported statement {statement!r}")


def _require_class(class_name: str, schema: Schema) -> None:
    if not schema.has_class(class_name):
        raise VQLAnalysisError(f"unknown class {class_name!r}")


def _check_index_target(class_name: str, prop: str, schema: Schema) -> None:
    _require_class(class_name, schema)
    if not schema.has_property(class_name, prop):
        raise VQLAnalysisError(
            f"class {class_name!r} has no property {prop!r}")


def _analyze_assignments(assignments, schema: Schema, class_name: str,
                         env: Mapping[str, VMLType], bound: set[str],
                         statement_kind: str):
    """Resolve/type-check ``prop = expr`` pairs shared by INSERT and UPDATE."""
    resolved: list[tuple[str, Expression]] = []
    parameter_keys: list[str] = []
    seen: set[str] = set()
    for prop, expr in assignments:
        if prop in seen:
            raise VQLAnalysisError(
                f"{statement_kind} assigns property {prop!r} twice")
        seen.add(prop)
        try:
            prop_def = schema.resolve_property(class_name, prop)
        except SchemaError as exc:
            raise VQLAnalysisError(str(exc)) from exc
        value = resolve_class_references(expr, schema, bound)
        stray = _free_variable_names(value) - bound
        if stray:
            raise VQLAnalysisError(
                f"{statement_kind} value for {prop!r} uses unbound "
                f"variable(s) {', '.join(sorted(stray))}")
        actual = infer_expression_type(value, env, schema)
        if not _assignable(prop_def.vml_type, actual):
            raise VQLAnalysisError(
                f"value of type {actual} cannot be assigned to "
                f"{class_name}.{prop}: {prop_def.vml_type}")
        for key in parameters_used(value):
            if key not in parameter_keys:
                parameter_keys.append(key)
        resolved.append((prop, value))
    return tuple(resolved), parameter_keys


def _analyze_insert(statement: InsertStatement,
                    schema: Schema) -> AnalyzedStatement:
    _require_class(statement.class_name, schema)
    assignments, parameter_keys = _analyze_assignments(
        statement.assignments, schema, statement.class_name,
        env={}, bound=set(), statement_kind="INSERT")
    return AnalyzedStatement(kind="insert", statement=statement,
                             parameters=tuple(parameter_keys),
                             assignments=assignments)


def _where_query(class_name: str, alias: str, where: Optional[Expression],
                 schema: Schema) -> AnalyzedQuery:
    """Build and analyze the WHERE-query a mutation's predicate plans as."""
    _require_class(class_name, schema)
    if schema.has_class(alias):
        raise VQLAnalysisError(
            f"DML alias {alias!r} shadows a schema class")
    query = Query(access=Var(alias),
                  ranges=(RangeDeclaration(alias, Var(class_name)),),
                  where=where)
    return analyze_query(query, schema)


def _analyze_update(statement: UpdateStatement,
                    schema: Schema) -> AnalyzedStatement:
    analyzed_where = _where_query(statement.class_name, statement.alias,
                                  statement.where, schema)
    assignments, parameter_keys = _analyze_assignments(
        statement.assignments, schema, statement.class_name,
        env={statement.alias: ObjectType(statement.class_name)},
        bound={statement.alias}, statement_kind="UPDATE")
    # textual order: SET expressions precede the WHERE clause
    for key in analyzed_where.parameters:
        if key not in parameter_keys:
            parameter_keys.append(key)
    return AnalyzedStatement(kind="update", statement=statement,
                             parameters=tuple(parameter_keys),
                             query=analyzed_where, assignments=assignments)


def _analyze_delete(statement: DeleteStatement,
                    schema: Schema) -> AnalyzedStatement:
    analyzed_where = _where_query(statement.class_name, statement.alias,
                                  statement.where, schema)
    return AnalyzedStatement(kind="delete", statement=statement,
                             parameters=analyzed_where.parameters,
                             query=analyzed_where)


def _analyze_create_class(statement: CreateClassStatement,
                          schema: Schema) -> AnalyzedStatement:
    if schema.has_class(statement.class_name):
        raise VQLAnalysisError(
            f"class {statement.class_name!r} already exists")
    if statement.superclass is not None and \
            not schema.has_class(statement.superclass):
        raise VQLAnalysisError(
            f"unknown superclass {statement.superclass!r}")
    seen: set[str] = set()
    property_defs: list[PropertyDef] = []
    for spec in statement.properties:
        if spec.name in seen:
            raise VQLAnalysisError(
                f"CREATE CLASS declares property {spec.name!r} twice")
        seen.add(spec.name)
        type_name = spec.type_name
        primitive = _PRIMITIVE_TYPES.get(type_name.upper())
        if primitive is not None:
            vml_type: VMLType = primitive
            target: Optional[str] = None
        elif schema.has_class(type_name) or type_name == statement.class_name:
            vml_type = ObjectType(type_name)
            target = type_name
        else:
            raise VQLAnalysisError(
                f"unknown type {type_name!r} for property {spec.name!r} "
                "(expected STRING, INT, REAL, BOOL, ANY or a class name)")
        if spec.is_set:
            vml_type = SetType(vml_type)
        property_defs.append(
            PropertyDef(spec.name, vml_type, target_class=target))
    return AnalyzedStatement(kind="create_class", statement=statement,
                             property_defs=tuple(property_defs))


def _assignable(expected: VMLType, actual: VMLType) -> bool:
    """Static assignability for DML values.

    ``ANY`` (bind parameters, heterogeneous constructors) is compatible with
    everything; object types are mutually assignable (class conformance of
    OIDs is enforced dynamically by the datamodel); INT widens to REAL; set
    types recurse on their element types.
    """
    if expected == ANY or actual == ANY:
        return True
    if isinstance(expected, SetType) and isinstance(actual, SetType):
        return _assignable(expected.element, actual.element)
    if isinstance(expected, ObjectType) and isinstance(actual, ObjectType):
        return True
    if expected == REAL and actual == INT:
        return True
    return expected == actual
