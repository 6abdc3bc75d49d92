"""Workloads: the paper's document schema, a second (university) schema,
synthetic data generators and the query workload."""

from repro.workloads.documents import (
    QUERY_TERM,
    TARGET_TITLE,
    DocumentWorkloadConfig,
    generate_document_database,
)
from repro.workloads.queries import (
    WorkloadQuery,
    contains_only_query,
    dependent_range_query,
    document_workload,
    large_paragraph_query,
    motivating_query,
    same_document_join_query,
    title_only_query,
    tuple_access_query,
)
from repro.workloads.schema_library import (
    DEFAULT_LARGE_PARAGRAPH_THRESHOLD,
    METHOD_COSTS,
    document_knowledge,
    document_schema,
)
from repro.workloads.university import (
    generate_university_database,
    university_knowledge,
    university_schema,
)

__all__ = [
    "QUERY_TERM",
    "TARGET_TITLE",
    "DocumentWorkloadConfig",
    "generate_document_database",
    "WorkloadQuery",
    "motivating_query",
    "contains_only_query",
    "title_only_query",
    "same_document_join_query",
    "large_paragraph_query",
    "dependent_range_query",
    "tuple_access_query",
    "document_workload",
    "DEFAULT_LARGE_PARAGRAPH_THRESHOLD",
    "METHOD_COSTS",
    "document_schema",
    "document_knowledge",
    "university_schema",
    "university_knowledge",
    "generate_university_database",
]
