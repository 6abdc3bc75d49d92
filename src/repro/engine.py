"""Top-level convenience functions.

These helpers wrap the most common workflow — open a session (or a
plan-caching service) on a database with its semantic knowledge — so that
the quickstart example fits on one screen.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.datamodel.database import Database
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.search import OptimizerOptions
from repro.service.service import QueryService
from repro.session import Session

__all__ = ["open_session", "open_service"]


def open_session(database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = ()) -> Session:
    """Open a query session on *database*.

    ``knowledge`` carries the schema-specific semantic knowledge about
    methods; without it the generated optimizer only has the predefined
    structural rules.
    """
    return Session(database, knowledge=knowledge, options=options,
                   exclude_tags=exclude_tags)


def open_service(database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = ()) -> QueryService:
    """Open a plan-caching, multi-client query service on *database*."""
    return QueryService(database, knowledge=knowledge, options=options,
                        exclude_tags=exclude_tags)
