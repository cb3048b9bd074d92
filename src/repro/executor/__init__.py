"""Direct tgd execution: the naive reference engine, and join-aware
plan compilation into generated code; instrumented explain modes."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".engine": ("GroupBinding", "TgdPlan", "execute", "prepare"),
    ".planner": ("OPTIMIZE_ENV", "PlanCounters", "PlannedTgd", "PlanStats",
                 "plan_tgd"),
    ".stats": ("ExecutionReport", "LevelStats", "PlanExplain", "explain",
               "explain_plan"),
})

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
