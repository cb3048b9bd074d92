"""Execution statistics: instrumented runs of the tgd executor.

:func:`explain` runs a mapping while counting, per tgd level, how many
iterations fired, how many tuples the conditions filtered out, how many
target elements were created, how many groups formed, and how many
assignments were applied.  Mapping developers use the report to spot
accidental Cartesian blow-ups — a paper theme: the difference between
Figures 4/6 and their arc-less variants is exactly these numbers.

:func:`explain_plan` is the optimizer-side counterpart: it compiles the
mapping through :mod:`repro.executor.planner`, evaluates it, and
reports the compiled plan (generator order, pushed filters, hash
joins) together with the runtime counters (bindings enumerated, filter
drops, hash build/probe sizes) as a ``clip-plan-explain`` document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..core.tgd import NestedTgd, TgdMapping
from ..xml.model import XmlElement
from .engine import _Engine

#: Schema identifiers of the :func:`explain_plan` JSON document.
PLAN_EXPLAIN_FORMAT = "clip-plan-explain"
PLAN_EXPLAIN_VERSION = 1


@dataclass
class LevelStats:
    """Counters for one (sub)mapping level."""

    label: str
    depth: int
    iterations: int = 0
    filtered_out: int = 0
    groups: int = 0
    elements_built: int = 0
    assignments_applied: int = 0

    def row(self) -> str:
        pad = "  " * self.depth
        bits = [
            f"{pad}{self.label}:",
            f"iterations={self.iterations}",
            f"filtered={self.filtered_out}",
        ]
        if self.groups:
            bits.append(f"groups={self.groups}")
        bits.append(f"built={self.elements_built}")
        bits.append(f"assigned={self.assignments_applied}")
        return " ".join(bits)

    def to_dict(self) -> dict:
        """The counters as a plain dict (machine-readable reports)."""
        return {
            "label": self.label,
            "depth": self.depth,
            "iterations": self.iterations,
            "filtered_out": self.filtered_out,
            "groups": self.groups,
            "elements_built": self.elements_built,
            "assignments_applied": self.assignments_applied,
        }


@dataclass
class ExecutionReport:
    """The result instance plus per-level counters."""

    result: XmlElement
    levels: list[LevelStats] = field(default_factory=list)

    @property
    def total_elements_built(self) -> int:
        return sum(level.elements_built for level in self.levels)

    @property
    def total_iterations(self) -> int:
        return sum(level.iterations for level in self.levels)

    def render(self) -> str:
        lines = [level.row() for level in self.levels]
        lines.append(
            f"total: {self.total_iterations} iterations, "
            f"{self.total_elements_built} elements built, "
            f"{self.result.size()} elements in the result"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report as a plain dict: per-level counters plus totals.
        The result instance itself is summarized by its element count —
        serialize it separately if the tree is needed."""
        return {
            "levels": [level.to_dict() for level in self.levels],
            "total_iterations": self.total_iterations,
            "total_elements_built": self.total_elements_built,
            "result_elements": self.result.size(),
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The report as JSON text (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent)


def _label(mapping: TgdMapping) -> str:
    if mapping.source_gens:
        gens = ", ".join(f"{g.var} ∈ {g.expr}" for g in mapping.source_gens)
    else:
        gens = "⊤"
    return f"∀ {gens}"


def explain(tgd: NestedTgd, source_instance: XmlElement) -> ExecutionReport:
    """Run the mapping and return the instrumented report."""
    engine = _InstrumentedEngine(tgd, source_instance)
    result = engine.run()
    return ExecutionReport(result, engine.levels)


class _InstrumentedEngine(_Engine):
    """The executor with per-level counters, taken at the engine's own
    hooks: binding enumeration (iterations, filter drops), each unit of
    construction (elements built, assignments applied) and each group
    formed.  Every level counts only its own work, however levels nest."""

    def __init__(self, tgd: NestedTgd, source_instance: XmlElement):
        super().__init__(tgd, source_instance)
        self.levels: list[LevelStats] = []
        self._stats: dict[int, LevelStats] = {}
        self._walk(tgd.roots, 0)

    def _walk(self, mappings, depth: int) -> None:
        for mapping in mappings:
            stats = LevelStats(_label(mapping), depth)
            self.levels.append(stats)
            self._stats[id(mapping)] = stats
            self._walk(mapping.submappings, depth + 1)

    def _enumerate(self, mapping, env):
        stats = self._stats[id(mapping)]
        envs, raw = [], 0
        for e in self._enumerate_raw(mapping, env):
            raw += 1
            if all(self._condition_holds(c, e) for c in mapping.where):
                envs.append(e)
        stats.filtered_out += raw - len(envs)
        # A level without generators runs once (document scope).
        stats.iterations += len(envs) if mapping.source_gens else 1
        return envs

    def unit(self, mapping, env, base_env, group_key=None):
        stats = self._stats[id(mapping)]
        stats.elements_built += sum(
            1 for gen in self._splits[id(mapping)][1] if gen.quantified
        )
        stats.assignments_applied += len(mapping.assignments)
        super().unit(mapping, env, base_env, group_key)

    def group_env(self, mapping, members):
        self._stats[id(mapping)].groups += 1
        return super().group_env(mapping, members)


# -- plan explain ------------------------------------------------------------


@dataclass
class PlanExplain:
    """The compiled plan of a mapping plus the runtime counters of one
    evaluation — the payload of the ``clip-plan-explain`` document."""

    #: The evaluation's result (``None`` from a caller that keeps only
    #: its element count, such as the service's request history).
    result: Optional[XmlElement]
    result_elements: int
    optimize: bool
    #: Static per-level plan descriptions (see ``LevelPlan.describe``).
    levels: list[dict]
    #: Per-level runtime counter dicts (all-zero when ``optimize`` is
    #: off: the naive path has no planner instrumentation).
    counters: list[dict]
    #: What ran: ``"codegen"`` (the optimized plan's generated
    #: program) or ``"interp"`` (the naive path).
    exec_mode: str = "interp"
    #: The generated program's description (source hash, line count,
    #: compile seconds) on optimized plans, else ``None``.
    codegen: Optional[dict] = None

    def to_dict(self) -> dict:
        totals: dict[str, int] = {}
        for counter in self.counters:
            for name, value in counter.items():
                totals[name] = totals.get(name, 0) + value
        doc = {
            "format": PLAN_EXPLAIN_FORMAT,
            "version": PLAN_EXPLAIN_VERSION,
            "optimize": self.optimize,
            "exec_mode": self.exec_mode,
            "levels": [
                {**level, "counters": counter}
                for level, counter in zip(self.levels, self.counters)
            ],
            "totals": totals,
            "result_elements": self.result_elements,
        }
        if self.codegen is not None:
            doc["codegen"] = self.codegen
        return doc

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)

    def render(self) -> str:
        """Human-readable plan + counters (the CLI ``explain`` output)."""
        doc = self.to_dict()
        lines = [
            f"{PLAN_EXPLAIN_FORMAT} v{PLAN_EXPLAIN_VERSION} "
            f"(optimize={'on' if self.optimize else 'off'})"
        ]
        if self.codegen is not None:
            lines.append(
                f"codegen: {self.codegen['line_count']} lines, "
                f"source sha256 {self.codegen['source_hash'][:12]}…, "
                f"compiled in {self.codegen['compile_seconds'] * 1000:.2f} ms"
            )
        for level in doc["levels"]:
            pad = "  " * level["depth"]
            suffix = " [grouped]" if level["grouped"] else ""
            lines.append(f"{pad}{level['label']}{suffix}")
            if level["order"] and level["reordered"]:
                lines.append(f"{pad}  order: {', '.join(level['order'])} (reordered)")
            for cond in level["pre_filters"]:
                lines.append(f"{pad}  pre-filter: {cond}")
            for gen in level["generators"]:
                for cond in gen["pushed_filters"]:
                    lines.append(f"{pad}  pushed filter @ {gen['var']}: {cond}")
                for join in gen["joins"]:
                    lines.append(
                        f"{pad}  {join['kind']} join @ {gen['var']}: "
                        f"{join['condition']} (build {join['build']}, "
                        f"probe {join['probe']})"
                    )
                for cond in gen["env_filters"]:
                    lines.append(f"{pad}  filter @ {gen['var']}: {cond}")
            counters = level["counters"]
            if self.optimize:
                lines.append(
                    f"{pad}  counters: enumerated={counters['bindings_enumerated']} "
                    f"produced={counters['envs_produced']} "
                    f"filter_drops={counters['filter_drops']}"
                )
                if counters["join_builds"]:
                    lines.append(
                        f"{pad}  hash joins: builds={counters['join_builds']} "
                        f"build_rows={counters['join_build_rows']} "
                        f"build_keys={counters['join_build_keys']} "
                        f"probes={counters['join_probes']} "
                        f"matches={counters['join_probe_matches']}"
                    )
                if counters["groups"]:
                    lines.append(f"{pad}  groups: {counters['groups']}")
        totals = doc["totals"]
        if self.optimize:
            lines.append(
                f"total: {totals.get('bindings_enumerated', 0)} bindings "
                f"enumerated, {totals.get('filter_drops', 0)} filtered, "
                f"{doc['result_elements']} elements in the result"
            )
        else:
            lines.append(
                f"total: naive evaluation (no planner counters), "
                f"{doc['result_elements']} elements in the result"
            )
        return "\n".join(lines)


def explain_plan(
    tgd: NestedTgd,
    source_instance: XmlElement,
    *,
    optimize: Optional[bool] = None,
) -> PlanExplain:
    """Compile the mapping, evaluate it once, and report the compiled
    plan together with its runtime counters.

    Optimized, the plan's generated program runs and the report
    carries its ``codegen`` section (source hash, line count, compile
    seconds).  With ``optimize`` off the plan is still compiled (its
    static shape is shown) but evaluation takes the naive reference
    path, so all counters stay zero.
    """
    from .engine import TgdPlan
    from .planner import PlanStats, plan_tgd

    plan = TgdPlan(tgd, optimize=optimize)
    result = plan.run(source_instance)
    stats = plan.stats or PlanStats(plan_tgd(tgd))
    return PlanExplain(
        result=result,
        result_elements=result.size(),
        optimize=plan.optimize,
        levels=[level.describe() for level in stats.planned.levels],
        counters=[counter.to_dict() for counter in stats.counters],
        exec_mode=plan.exec_mode,
        codegen=plan.program.describe() if plan.program else None,
    )
