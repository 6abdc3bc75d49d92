"""Physical algebra and execution engine."""

from repro.physical.evaluator import evaluate, evaluate_predicate, make_hashable
from repro.physical.compiler import CompiledExpr, ExpressionCompiler
from repro.physical.executor import (
    BindingEnv,
    PreparedExecutable,
    Row,
    execute_plan,
    prepare_plan,
)
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    FlattenEval,
    HashJoin,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    MapEval,
    NaturalMergeJoin,
    NestedLoopJoin,
    PhysicalOperator,
    ProjectOp,
    SetProbeFilter,
    UnionOp,
    walk_physical,
)
from repro.physical.profile import (
    OperatorCounters,
    PlanProfile,
    estimated_vs_actual,
    render_explain_analyze,
)
from repro.physical.restricted_exec import execute_restricted

__all__ = [
    "evaluate",
    "evaluate_predicate",
    "make_hashable",
    "Row",
    "execute_plan",
    "prepare_plan",
    "PreparedExecutable",
    "BindingEnv",
    "execute_plan_interpreted",
    "CompiledExpr",
    "ExpressionCompiler",
    "execute_restricted",
    "PhysicalOperator",
    "ClassScan",
    "IndexEqScan",
    "IndexRangeScan",
    "ExpressionSetScan",
    "Filter",
    "SetProbeFilter",
    "NestedLoopJoin",
    "IndexNestedLoopJoin",
    "HashJoin",
    "NaturalMergeJoin",
    "MapEval",
    "FlattenEval",
    "ProjectOp",
    "UnionOp",
    "DiffOp",
    "walk_physical",
    "OperatorCounters",
    "PlanProfile",
    "estimated_vs_actual",
    "render_explain_analyze",
]
