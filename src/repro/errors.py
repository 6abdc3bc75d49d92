"""Exception hierarchy shared by all subsystems of the reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can distinguish library failures from programming errors in their own
code with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Raised when a schema definition is inconsistent or incomplete.

    Examples: duplicate class names, a property referring to an undefined
    class, or a method registered for a class that does not exist.
    """


class TypeMismatchError(ReproError):
    """Raised when a value does not conform to its declared VML type."""


class ObjectNotFoundError(ReproError):
    """Raised when an OID does not resolve to a stored object."""


class MethodResolutionError(ReproError):
    """Raised when a method cannot be resolved for a receiver class."""


class MethodInvocationError(ReproError):
    """Raised when a resolved method fails during invocation."""


class IndexError_(ReproError):
    """Raised for index-maintenance problems (named with a trailing
    underscore to avoid shadowing the built-in :class:`IndexError`)."""


class VQLSyntaxError(ReproError):
    """Raised by the VQL lexer/parser on malformed query text.

    Carries the offending position (offset, line, column) and, when the
    source text is supplied, renders a caret snippet pointing at the
    offending token::

        expected keyword FROM, found 'WHER' (line 2, column 1)
          WHER p.number == 1
          ^
    """

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None, column: int | None = None,
                 source: str | None = None):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column
        self.source = source

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is None or self.column is None:
            return base
        base = f"{base} (line {self.line}, column {self.column})"
        snippet = self.snippet()
        return f"{base}\n{snippet}" if snippet else base

    def snippet(self, prefix: str = "  ") -> str | None:
        """The offending source line with a caret under the error column."""
        if self.source is None or self.line is None or self.column is None:
            return None
        lines = self.source.split("\n")  # lines as the lexer counts them
        if not 0 < self.line <= len(lines):
            return None
        source_line = lines[self.line - 1].rstrip("\r")
        caret = " " * max(self.column - 1, 0) + "^"
        return f"{prefix}{source_line}\n{prefix}{caret}"


class VQLAnalysisError(ReproError):
    """Raised by the semantic analyzer when a syntactically valid query does
    not type-check against the schema (unknown class, unknown property,
    arity mismatch on a method call, ...)."""


class AlgebraError(ReproError):
    """Raised for malformed algebra expressions (unknown references,
    incompatible reference sets for joins, ...)."""


class TranslationError(ReproError):
    """Raised when a VQL AST cannot be translated into the query algebra."""


class OptimizerError(ReproError):
    """Raised for optimizer failures: unsatisfiable rule sets, missing
    implementation rules for a logical operator, cost-model errors."""


class RuleDerivationError(OptimizerError):
    """Raised when a piece of semantic knowledge cannot be compiled into an
    optimizer rule (e.g. the expressions do not mention the bound variable)."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class BindingError(ReproError):
    """Raised when the supplied bind-parameter values do not match a query's
    parameters (missing parameter, unknown name, surplus positional)."""


class ServiceError(ReproError):
    """Raised by the query service layer (unknown prepared statement,
    service shut down, ...)."""


class TransactionError(ServiceError):
    """Raised on transaction-protocol misuse: BEGIN inside an open
    transaction, COMMIT/ROLLBACK without one, DDL inside a transaction,
    or executing transaction-control words through a non-transactional
    entry point."""


class TransactionConflictError(TransactionError):
    """Raised at COMMIT when first-writer-wins validation finds that an
    object in the transaction's write set was committed (or deleted) by
    another transaction after this one began.  The losing transaction is
    rolled back; the caller may retry it from scratch."""


class WorkloadError(ReproError):
    """Raised by workload generators on inconsistent parameters."""
