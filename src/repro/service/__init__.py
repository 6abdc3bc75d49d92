"""Prepared-query service layer.

The optimizer pays for semantic optimization once per query *shape*; this
package makes that a service-level guarantee:

* the executable itself is the physical layer's: :func:`repro.physical.
  executor.prepare_plan` compiles a plan once into closures over a
  thread-local binding environment, so one plan serves many executions
  with different bind-parameter values (``repro.service.prepared``
  re-exports it for existing imports);
* :mod:`repro.service.fingerprint` — query shapes: auto-parameterization,
  the shape key and its fingerprint;
* :mod:`repro.service.cache` — the statement cache: one LRU entry per
  query shape (its analysis, admission state, plan and build lock),
  reached by a text or a token key, validated against the database's
  version counters (schema / index DDL / statistics / data drift) and the
  service's knowledge version;
* :mod:`repro.service.service` — :class:`QueryService`, the multi-client
  front end with a worker pool and per-query metrics.
"""

from repro.service.cache import CachedPlan, CacheStatistics, StatementCache
from repro.service.concurrency import ReadWriteLock
from repro.service.fingerprint import query_fingerprint
from repro.physical.executor import BindingEnv, PreparedExecutable, prepare_plan
from repro.service.service import (
    PreparedQuery,
    QueryMetrics,
    QueryService,
    ServiceMetrics,
    ServiceResult,
)

__all__ = [
    "BindingEnv",
    "CachedPlan",
    "CacheStatistics",
    "PreparedExecutable",
    "PreparedQuery",
    "QueryMetrics",
    "QueryService",
    "ReadWriteLock",
    "ServiceMetrics",
    "ServiceResult",
    "StatementCache",
    "prepare_plan",
    "query_fingerprint",
]
