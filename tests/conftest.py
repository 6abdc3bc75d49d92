"""Shared fixtures for the test suite.

The expensive fixtures (synthetic databases, sessions with generated
optimizers) are session-scoped; tests must not mutate them.  Tests that need
a mutable database build their own small one.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import STRING
from repro.optimizer.knowledge import SchemaKnowledge
from repro.session import Session
from repro.workloads import (
    document_knowledge,
    document_schema,
    generate_document_database,
)
from repro.service.fingerprint import generalize
from repro.vql.analyzer import analyze_query
from repro.vql.parser import parse_query
from repro.workloads.university import (
    generate_university_database,
    university_knowledge,
)

#: ``HYPOTHESIS_PROFILE=ci`` (set by the CI workflow) draws the same
#: examples on every run and prints a reproduction blob with a failure, so
#: a counterexample found there replays locally; local runs keep exploring
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def doc_schema():
    """The paper's Document/Section/Paragraph schema."""
    return document_schema()


@pytest.fixture(scope="session")
def doc_database() -> Database:
    """A small synthetic document database (8 documents, 160 paragraphs)."""
    return generate_document_database(n_documents=8)


@pytest.fixture(scope="session")
def doc_knowledge(doc_database) -> SchemaKnowledge:
    return document_knowledge(doc_database.schema)


@pytest.fixture(scope="session")
def doc_session(doc_database, doc_knowledge) -> Session:
    """A session on the document database with full semantic knowledge."""
    return Session(doc_database, knowledge=doc_knowledge)


@pytest.fixture(scope="session")
def structural_session(doc_database, doc_knowledge) -> Session:
    """A session whose optimizer has only the predefined structural rules."""
    return Session(doc_database, knowledge=doc_knowledge,
                   exclude_tags=("semantic",))


@pytest.fixture(scope="session")
def uni_database() -> Database:
    return generate_university_database(n_departments=4,
                                        students_per_department=20)


@pytest.fixture(scope="session")
def uni_session(uni_database) -> Session:
    return Session(uni_database,
                   knowledge=university_knowledge(uni_database.schema))


@pytest.fixture()
def fresh_doc_database() -> Database:
    """A tiny, mutable document database for tests that write."""
    return generate_document_database(n_documents=2)


def _star_database(n_orders: int, n_regions: int, seed: int) -> Database:
    """Order/Shipment star around a Region hub, skewed on both filters: one
    in 50 orders is 'urgent' and one in 50 regions is 'rare' (exact counts,
    not sampled).  Only Region.name is indexed."""
    schema = Schema("order-star")
    for name, props in (("Order", ("status", "region")),
                        ("Shipment", ("region",)),
                        ("Region", ("name", "kind"))):
        class_def = ClassDef(name=name)
        for prop in props:
            class_def.add_property(PropertyDef(prop, STRING))
        schema.add_class(class_def)

    database = Database(schema, name=f"star[{n_orders}]")
    rng = random.Random(seed)
    regions = [f"R{i:04d}" for i in range(n_regions)]
    database.create_many("Order", [
        {"status": ("urgent" if i < n_orders // 50 else "open"),
         "region": regions[i % n_regions]} for i in range(n_orders)])
    database.create_many("Shipment", [{"region": rng.choice(regions)}
                                      for _ in range(3 * n_orders)])
    database.create_many("Region", [
        {"name": name, "kind": ("rare" if i < n_regions // 50 else "common")}
        for i, name in enumerate(regions)])
    database.create_hash_index("Region", "name")
    return database


@pytest.fixture(scope="session")
def star_database():
    """Factory of a fresh, mutable three-class star:
    ``star_database(n_orders, n_regions, seed)``.  Order and Shipment relate
    only through Region, so a FROM clause listing them first starts with a
    cross product — the case the join-order enumerator exists for."""
    return _star_database


@pytest.fixture(scope="session")
def token_path_oracle():
    """``check(service, text)``: resolve query *text* the way the service's
    statement entry does and, when the text was matched by its token key
    (never parsed), assert that the statement equals what a full parse
    generalizes it to — an equal generic query and equal values of equal
    types.  Returns whether the token key matched."""
    def check(service, text, optimize=True) -> bool:
        statement = service._resolve(text, optimize)
        if statement.analyzed is not None:
            return False
        generic, values = generalize(
            analyze_query(parse_query(text), service.database.schema),
            service._literal_constants)
        assert statement.generic == generic, text
        typed = [(key, type(value), value)
                 for key, value in (statement.auto_values or {}).items()]
        assert typed == [(key, type(value), value)
                         for key, value in (values or {}).items()], text
        return True
    return check
