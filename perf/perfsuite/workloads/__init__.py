"""The benchmark's workloads, by name (see ``perf/README.md`` for why each exists)."""

from perfsuite.workloads.adhoc_planning import AdhocPlanning
from perfsuite.workloads.durable_mixed import DurableMixed
from perfsuite.workloads.method_analytics import MethodAnalytics
from perfsuite.workloads.point_serving import PointServing

WORKLOADS = {workload.name: workload for workload in
             (PointServing, MethodAnalytics, AdhocPlanning, DurableMixed)}
