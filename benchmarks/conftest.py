"""Shared fixtures for the benchmark suite.

Databases are generated once per size and cached for the whole benchmark
session; each experiment opens the sessions it needs (full knowledge,
ablated, or structural-only) on top of the cached databases.

Workload generation is explicitly seeded (``REPRO_BENCH_SEED``, default
42, settable per run via the shared ``--seed`` CLI flag of
:func:`harness.standalone_main`), so quick/CI runs are deterministic:
two runs with the same seed measure identical databases and the smoke
checks can assert speedup directions without flaking on data variance.
"""

from __future__ import annotations

import os

import pytest

from repro.datamodel.database import Database
from repro.session import Session
from repro.workloads import (
    document_knowledge,
    generate_document_database,
)

#: database sizes (number of documents) used by the scaling experiments;
#: with 4 sections × 5 paragraphs these are 400 / 1600 / 4000 paragraphs
SCALING_SIZES = (20, 80, 200)

#: default size for single-size experiments
DEFAULT_SIZE = 80


_DATABASE_CACHE: dict[tuple[int, int], Database] = {}


def bench_seed() -> int:
    """The workload-generation seed for this run (``REPRO_BENCH_SEED``)."""
    try:
        return int(os.environ.get("REPRO_BENCH_SEED", "42"))
    except ValueError:
        return 42


def document_database(n_documents: int) -> Database:
    """A cached synthetic document database with *n_documents* documents,
    generated deterministically from the run's bench seed."""
    key = (n_documents, bench_seed())
    if key not in _DATABASE_CACHE:
        _DATABASE_CACHE[key] = generate_document_database(
            n_documents=n_documents, seed=key[1])
    return _DATABASE_CACHE[key]


def semantic_session(n_documents: int, exclude_tags: tuple[str, ...] = ()) -> Session:
    """A session with the paper's semantic knowledge (optionally ablated)."""
    database = document_database(n_documents)
    return Session(database,
                   knowledge=document_knowledge(database.schema),
                   exclude_tags=exclude_tags)


def structural_session(n_documents: int) -> Session:
    """A session whose optimizer only has the predefined structural rules."""
    return semantic_session(n_documents, exclude_tags=("semantic",))


@pytest.fixture(scope="session")
def default_session() -> Session:
    return semantic_session(DEFAULT_SIZE)


@pytest.fixture(scope="session")
def small_session() -> Session:
    return semantic_session(SCALING_SIZES[0])
