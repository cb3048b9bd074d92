"""Direct tgd execution: the naive reference engine, and join-aware
plan compilation into generated code; instrumented explain modes."""

from .engine import GroupBinding, TgdPlan, execute, prepare
from .planner import (
    OPTIMIZE_ENV,
    PlanCounters,
    PlannedTgd,
    PlanStats,
    plan_tgd,
)
from .stats import (
    ExecutionReport,
    LevelStats,
    PlanExplain,
    explain,
    explain_plan,
)

__all__ = [
    "execute",
    "prepare",
    "TgdPlan",
    "GroupBinding",
    "explain",
    "explain_plan",
    "ExecutionReport",
    "LevelStats",
    "PlanExplain",
    "OPTIMIZE_ENV",
    "PlanCounters",
    "PlannedTgd",
    "PlanStats",
    "plan_tgd",
]
