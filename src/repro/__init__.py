"""repro — reproduction of "Semantic Query Optimization for Methods in
Object-Oriented Database Systems" (Aberer & Fischer, ICDE 1995).

The package provides:

* an in-memory object-oriented database substrate (:mod:`repro.datamodel`),
* the VQL query language front-end (:mod:`repro.vql`),
* the general and restricted query algebras (:mod:`repro.algebra`),
* a Volcano-style rule- and cost-based optimizer with schema-specific
  semantic rules derived from knowledge about methods
  (:mod:`repro.optimizer`),
* a physical algebra and executor (:mod:`repro.physical`),
* pluggable durable storage — write-ahead log, checkpoints, crash
  recovery (:mod:`repro.storage`, ``connect(durability="wal")``),
* ready-made workloads reproducing the paper's example schema
  (:mod:`repro.workloads`).

Quickstart (the unified statement API)::

    from repro import connect
    from repro.workloads import (
        generate_document_database, document_knowledge, motivating_query)

    db = generate_document_database(n_documents=100)
    connection = connect(db, knowledge=document_knowledge(db.schema))
    for paragraph in connection.execute(motivating_query().text):
        print(paragraph)
    connection.execute("INSERT INTO Document (title) VALUES (?)", ["new"])
"""

from repro.engine import open_service, open_session
from repro.errors import ReproError
from repro.service.service import QueryService
from repro.session import QueryResult, Session
from repro.api.connection import Connection, Cursor, connect
from repro.api.router import StatementResult
from repro.storage import FileStorageAdapter, MemoryAdapter, StorageAdapter

__version__ = "3.0.0"

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "StorageAdapter",
    "MemoryAdapter",
    "FileStorageAdapter",
    "open_session",
    "open_service",
    "Session",
    "QueryService",
    "QueryResult",
    "StatementResult",
    "ReproError",
    "__version__",
]
