"""VQL abstract syntax tree.

A VQL query has the shape (Section 2.2 of the paper)::

    ACCESS expr(x1,...,xn)
    FROM x1 IN S1, ..., xn IN Sn
    WHERE cond(x1,...,xn)

Range sources ``Si`` are either class names or expressions over previously
declared range variables (dependent ranges such as
``p IN d->paragraphs()``).  Expression nodes are shared with the query
algebra (:mod:`repro.algebra.expressions`).

Beyond queries the module defines the **statement** nodes of the unified
statement API: DDL (``CREATE CLASS``, ``CREATE/DROP INDEX``) and DML
(``INSERT``, ``UPDATE``, ``DELETE``) share the expression grammar with
queries, so DML values and WHERE clauses may carry bind parameters and the
router can plan mutation predicates through the full optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.expressions import (
    ClassExtent,
    Expression,
    free_vars,
)

__all__ = [
    "RangeDeclaration",
    "Query",
    "Statement",
    "SelectStatement",
    "PropertySpec",
    "CreateClassStatement",
    "CreateIndexStatement",
    "DropIndexStatement",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "AnalyzeStatement",
    "ExplainStatement",
    "BeginStatement",
    "CommitStatement",
    "RollbackStatement",
    "DEFAULT_DML_ALIAS",
]

#: range variable used by UPDATE/DELETE when the statement declares no alias
DEFAULT_DML_ALIAS = "this"


@dataclass(frozen=True)
class RangeDeclaration:
    """One ``x IN source`` entry of the FROM clause."""

    variable: str
    source: Expression

    def is_class_range(self) -> bool:
        """True when the source is a plain class extension."""
        return isinstance(self.source, ClassExtent)

    def depends_on(self) -> set[str]:
        """Names of range variables this declaration depends on."""
        if self.is_class_range():
            return set()
        return free_vars(self.source)

    def __str__(self) -> str:
        return f"{self.variable} IN {self.source}"


@dataclass(frozen=True)
class Query:
    """A complete VQL query."""

    access: Expression
    ranges: tuple[RangeDeclaration, ...]
    where: Optional[Expression] = None

    @property
    def range_variables(self) -> tuple[str, ...]:
        return tuple(decl.variable for decl in self.ranges)

    def __str__(self) -> str:
        text = f"ACCESS {self.access}\nFROM " + ", ".join(str(r) for r in self.ranges)
        if self.where is not None:
            text += f"\nWHERE {self.where}"
        return text


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Statement:
    """Base class of every parseable statement (queries included)."""


@dataclass(frozen=True)
class SelectStatement(Statement):
    """An ``ACCESS ... FROM ... WHERE ...`` query as a statement."""

    query: Query

    def __str__(self) -> str:
        return str(self.query)


@dataclass(frozen=True)
class PropertySpec:
    """One ``name: TYPE`` entry of a ``CREATE CLASS`` property list.

    ``type_name`` is either a primitive type name (STRING, INT, REAL, BOOL,
    ANY) or a class name; ``is_set`` marks the ``{TYPE}`` set constructor.
    Resolution against the schema happens in the statement analyzer.
    """

    name: str
    type_name: str
    is_set: bool = False

    def __str__(self) -> str:
        rendered = "{" + self.type_name + "}" if self.is_set else self.type_name
        return f"{self.name}: {rendered}"


@dataclass(frozen=True)
class CreateClassStatement(Statement):
    """``CREATE CLASS Name [ISA Super] (prop: TYPE, ...)``."""

    class_name: str
    superclass: Optional[str] = None
    properties: tuple[PropertySpec, ...] = ()

    def __str__(self) -> str:
        text = f"CREATE CLASS {self.class_name}"
        if self.superclass is not None:
            text += f" ISA {self.superclass}"
        if self.properties:
            text += " (" + ", ".join(str(p) for p in self.properties) + ")"
        return text


@dataclass(frozen=True)
class CreateIndexStatement(Statement):
    """``CREATE [HASH|SORTED|TEXT] INDEX ON Class(prop)`` (default HASH)."""

    kind: str  # "hash" | "sorted" | "text"
    class_name: str
    prop: str

    def __str__(self) -> str:
        return (f"CREATE {self.kind.upper()} INDEX "
                f"ON {self.class_name}({self.prop})")


@dataclass(frozen=True)
class DropIndexStatement(Statement):
    """``DROP [TEXT] INDEX ON Class(prop)``."""

    kind: str  # "index" (hash or sorted) | "text"
    class_name: str
    prop: str

    def __str__(self) -> str:
        prefix = "DROP TEXT INDEX" if self.kind == "text" else "DROP INDEX"
        return f"{prefix} ON {self.class_name}({self.prop})"


@dataclass(frozen=True)
class InsertStatement(Statement):
    """``INSERT INTO Class (p1, ..., pn) VALUES (e1, ..., en)``."""

    class_name: str
    assignments: tuple[tuple[str, Expression], ...]

    def __str__(self) -> str:
        names = ", ".join(name for name, _ in self.assignments)
        values = ", ".join(str(expr) for _, expr in self.assignments)
        return f"INSERT INTO {self.class_name} ({names}) VALUES ({values})"


@dataclass(frozen=True)
class UpdateStatement(Statement):
    """``UPDATE Class [alias] SET prop = expr, ... [WHERE cond]``.

    SET expressions and the WHERE condition may reference *alias* (the
    object being updated); the router plans the WHERE clause as a query so
    it can use index access paths.
    """

    class_name: str
    alias: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None

    def __str__(self) -> str:
        sets = ", ".join(f"{prop} = {expr}" for prop, expr in self.assignments)
        text = f"UPDATE {self.class_name} {self.alias} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


@dataclass(frozen=True)
class DeleteStatement(Statement):
    """``DELETE FROM Class [alias] [WHERE cond]``."""

    class_name: str
    alias: str
    where: Optional[Expression] = None

    def __str__(self) -> str:
        text = f"DELETE FROM {self.class_name} {self.alias}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


@dataclass(frozen=True)
class AnalyzeStatement(Statement):
    """``ANALYZE [Class]`` — refresh the optimizer-statistics catalog.

    Without a class name, statistics are collected for every class of the
    schema.  The statement bumps the database's ``stats`` version, evicting
    every cached plan so the next execution re-optimizes against the fresh
    histograms and calibrated method costs.
    """

    class_name: Optional[str] = None

    def __str__(self) -> str:
        return ("ANALYZE" if self.class_name is None
                else f"ANALYZE {self.class_name}")


@dataclass(frozen=True)
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE] <statement>`` — describe (and optionally run)
    the target statement's plan.

    Plain ``EXPLAIN`` renders the chosen plan without executing it; with
    ``ANALYZE`` the plan is executed under per-operator instrumentation and
    the report shows estimated next to actual cardinalities.  For
    ``UPDATE``/``DELETE`` targets only the derived WHERE-query is planned
    (and, under ``ANALYZE``, executed) — the mutation itself never applies.
    """

    target: Statement
    analyze: bool = False

    def __str__(self) -> str:
        prefix = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{prefix} {self.target}"


@dataclass(frozen=True)
class BeginStatement(Statement):
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit transaction.

    Every statement until the matching ``COMMIT``/``ROLLBACK`` reads the
    snapshot taken at ``BEGIN``; mutations are buffered in the transaction's
    write set and validated first-writer-wins at commit.
    """

    def __str__(self) -> str:
        return "BEGIN"


@dataclass(frozen=True)
class CommitStatement(Statement):
    """``COMMIT [TRANSACTION | WORK]`` — validate and atomically apply the
    open transaction, or raise :class:`~repro.errors.TransactionConflictError`
    (rolling the transaction back) when validation fails."""

    def __str__(self) -> str:
        return "COMMIT"


@dataclass(frozen=True)
class RollbackStatement(Statement):
    """``ROLLBACK [TRANSACTION | WORK]`` — discard the open transaction.

    Nothing was applied early, so rolling back undoes nothing: the buffered
    write set is dropped and the BEGIN snapshot is released.
    """

    def __str__(self) -> str:
        return "ROLLBACK"
