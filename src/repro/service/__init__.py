"""Prepared-query service layer.

The optimizer pays for semantic optimization once per query *shape*; this
package makes that a service-level guarantee:

* the executable itself is the physical layer's: :func:`repro.physical.
  executor.prepare_plan` compiles a plan once into closures over a
  thread-local binding environment, so one plan serves many executions
  with different bind-parameter values (``repro.service.prepared``
  re-exports it for existing imports);
* :mod:`repro.service.fingerprint` — normalized structural fingerprints of
  analyzed queries (the plan-cache key);
* :mod:`repro.service.cache` — an LRU plan cache validated against the
  database's version counters (schema / index DDL / data drift) and the
  service's knowledge version;
* :mod:`repro.service.service` — :class:`QueryService`, the multi-client
  front end with a worker pool and per-query metrics.
"""

from repro.service.cache import CachedPlan, CacheStatistics, PlanCache
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
    "PlanCache",
    "PreparedExecutable",
    "PreparedQuery",
    "QueryMetrics",
    "QueryService",
    "ReadWriteLock",
    "ServiceMetrics",
    "ServiceResult",
    "prepare_plan",
    "query_fingerprint",
]
