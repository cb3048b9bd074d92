"""Unit tests for the join-aware planner (:mod:`repro.executor.planner`).

The differential suites prove the planner never changes output bytes;
this module pins down *how* it evaluates: which conditions become hash
joins, which are pushed into generator enumeration, when generators
are reordered (and that document order survives the reorder), how the
``CLIP_OPTIMIZE`` toggle and the plan fingerprint behave, and what the
runtime counters report.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.compile import compile_clip
from repro.core.tgd import (
    Constant,
    Proj,
    SchemaRoot,
    SourceGenerator,
    TgdComparison,
    TgdMapping,
    Var,
)
from repro.executor import explain_plan, prepare
from repro.executor.planner import (
    OPTIMIZE_ENV,
    PlanCounters,
    plan_level,
    plan_tgd,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.model import element
from repro.xml.serialize import to_xml


@pytest.fixture(scope="module")
def workload():
    return make_deptstore_instance(
        DeptstoreSpec(departments=6, projects_per_dept=5, employees_per_dept=10)
    )


# -- optimize resolution / environment toggle --------------------------------


def resolve_optimize(flag):
    """How ``prepare`` resolves its ``optimize`` keyword."""
    return prepare(compile_clip(deptstore.mapping_fig3()), optimize=flag).optimize


class TestResolveOptimize:
    def test_explicit_flag_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(OPTIMIZE_ENV, "0")
        assert resolve_optimize(True) is True
        monkeypatch.setenv(OPTIMIZE_ENV, "1")
        assert resolve_optimize(False) is False

    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv(OPTIMIZE_ENV, raising=False)
        assert resolve_optimize(None) is True

    @pytest.mark.parametrize("value", ["0", "false", "NO", " Off "])
    def test_falsy_environment_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(OPTIMIZE_ENV, value)
        assert resolve_optimize(None) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_other_environment_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(OPTIMIZE_ENV, value)
        assert resolve_optimize(None) is True

    @pytest.mark.parametrize("value", ["anything", "2", "enable"])
    def test_unrecognized_environment_values_raise(self, monkeypatch, value):
        monkeypatch.setenv(OPTIMIZE_ENV, value)
        with pytest.raises(ValueError, match=OPTIMIZE_ENV):
            resolve_optimize(None)

    def test_environment_default_reaches_prepare(self, monkeypatch):
        tgd = compile_clip(deptstore.mapping_fig6())
        monkeypatch.setenv(OPTIMIZE_ENV, "0")
        assert prepare(tgd).planned is None
        # Explicit flag still wins under the env toggle.
        assert prepare(tgd, optimize=True).planned is not None
        monkeypatch.delenv(OPTIMIZE_ENV)
        assert prepare(tgd).planned is not None


# -- condition classification ------------------------------------------------


class TestClassification:
    def test_fig6_equality_becomes_hash_join(self):
        planned = plan_tgd(compile_clip(deptstore.mapping_fig6()))
        inner = planned.levels[1]
        joins = [j for slot in inner.slots for j in slot.eq_joins]
        assert len(joins) == 1
        (join,) = joins
        assert join.build_var == "r"
        described = join.describe()
        assert described["kind"] == "equality"
        assert described["build"] == "r.@pid"
        assert described["probe"] == "p.@pid"
        assert not inner.residual and not inner.pre_conditions

    def test_fig3_filter_is_pushed_into_enumeration(self):
        planned = plan_tgd(compile_clip(deptstore.mapping_fig3()))
        (level,) = planned.levels
        by_var = {
            level.mapping.source_gens[slot.position].var: slot
            for slot in level.slots
        }
        assert [str(c) for c in by_var["r"].seq_filters] == [
            "r.sal.value > 11000"
        ]
        assert not by_var["r"].env_filters
        assert not level.residual

    def test_fig7_membership_becomes_identity_join(self):
        planned = plan_tgd(compile_clip(deptstore.mapping_fig7()))
        inner = planned.levels[1]
        mem = [j for slot in inner.slots for j in slot.mem_joins]
        assert len(mem) == 1
        assert mem[0].describe()["kind"] == "membership"
        # The same level also carries the pid equality join.
        assert any(slot.eq_joins for slot in inner.slots)

    def test_describe_shape_is_json_ready(self):
        import json

        planned = plan_tgd(compile_clip(deptstore.mapping_fig7()))
        doc = planned.describe()
        json.dumps(doc)  # must be serializable as-is
        for level in doc["levels"]:
            assert set(level) >= {
                "label", "depth", "grouped", "order", "reordered",
                "pre_filters", "generators", "residual",
            }


# -- selectivity reordering --------------------------------------------------


def _flat_mapping(where):
    """Two independent generators over schema-root collections."""
    return TgdMapping(
        source_gens=(
            SourceGenerator("p", Proj(SchemaRoot("source"), "Proj")),
            SourceGenerator("r", Proj(SchemaRoot("source"), "regEmp")),
        ),
        where=tuple(where),
        target_gens=(),
        assignments=(),
    )


class TestReordering:
    def test_own_filtered_generator_moves_first(self):
        condition = TgdComparison(Proj(Var("r"), "@pid"), "=", Constant(2))
        level = plan_level(_flat_mapping([condition]), 0)
        assert level.order == (1, 0)
        assert level.reordered is True
        assert level.slots[0].seq_filters == (condition,)

    def test_unfiltered_generators_keep_source_order(self):
        level = plan_level(_flat_mapping([]), 0)
        assert level.order == (0, 1)
        assert level.reordered is False

    def test_dependency_blocks_reorder(self):
        # r is rooted at d, so a filter on r cannot hoist it above d.
        mapping = TgdMapping(
            source_gens=(
                SourceGenerator("d", Proj(SchemaRoot("source"), "dept")),
                SourceGenerator("r", Proj(Var("d"), "regEmp")),
            ),
            where=(TgdComparison(Proj(Var("r"), "@pid"), "=", Constant(2)),),
            target_gens=(),
            assignments=(),
        )
        level = plan_level(mapping, 0)
        assert level.order == (0, 1)
        assert level.reordered is False

    def test_reordered_execution_restores_document_order(self, workload):
        """A vacuous filter on the join side forces a reorder (r before
        p); the surviving environments must still come out in the naive
        nested-loop order, byte for byte."""
        tgd = compile_clip(deptstore.mapping_fig6())
        root = tgd.roots[0]
        inner = root.submappings[0]
        vacuous = TgdComparison(Proj(Var("r"), "@pid"), "!=", Constant(-1))
        tgd2 = replace(
            tgd,
            roots=(
                replace(
                    root,
                    submappings=(
                        replace(inner, where=inner.where + (vacuous,)),
                    )
                    + root.submappings[1:],
                ),
            ),
        )
        level = plan_tgd(tgd2).levels[1]
        assert level.reordered is True
        gens = level.mapping.source_gens
        assert [gens[p].var for p in level.order] == ["r", "p"]
        fast = prepare(tgd2, optimize=True).run(workload)
        slow = prepare(tgd2, optimize=False).run(workload)
        assert to_xml(fast) == to_xml(slow)
        # The vacuous filter changed nothing vs. plain Figure 6.
        assert to_xml(fast) == to_xml(prepare(tgd).run(workload))


# -- join runtime semantics --------------------------------------------------


class TestJoinSemantics:
    def test_nan_keys_never_join(self):
        """NaN != NaN: a hash table keyed on identity would wrongly
        match a NaN probe against a NaN build row; both sides must skip
        NaN keys, exactly like the naive comparison."""
        nan = float("nan")
        instance = element(
            "source",
            element(
                "dept",
                element("dname", text="D"),
                element("Proj", element("pname", text="P"), pid=nan),
                element("Proj", element("pname", text="Q"), pid=1),
                element(
                    "regEmp",
                    element("ename", text="E"),
                    element("sal", text=9000),
                    pid=nan,
                ),
                element(
                    "regEmp",
                    element("ename", text="F"),
                    element("sal", text=9500),
                    pid=1,
                ),
            ),
        )
        tgd = compile_clip(deptstore.mapping_fig6())
        fast = prepare(tgd, optimize=True).run(instance)
        slow = prepare(tgd, optimize=False).run(instance)
        assert to_xml(fast) == to_xml(slow)
        # Only the pid=1 pair joined.
        assert "F" in to_xml(fast) and "E" not in to_xml(fast)

    def test_counters_report_build_and_probe(self):
        report = explain_plan(
            compile_clip(deptstore.mapping_fig6()),
            deptstore.source_instance(),
            optimize=True,
        )
        assert report.optimize is True
        totals = report.to_dict()["totals"]
        assert totals["join_builds"] > 0
        assert totals["join_build_rows"] > 0
        assert totals["join_probes"] > 0
        assert totals["join_probe_matches"] > 0
        rendered = report.render()
        assert "equality join @ r" in rendered
        assert "hash joins:" in rendered

    def test_explain_json_document_shape(self):
        import json

        report = explain_plan(
            compile_clip(deptstore.mapping_fig7()),
            deptstore.source_instance(),
            optimize=True,
        )
        doc = json.loads(report.to_json())
        assert doc["format"] == "clip-plan-explain"
        assert doc["version"] == 1
        assert doc["optimize"] is True
        assert len(doc["levels"]) == 2
        assert doc["result_elements"] > 0
        assert doc["totals"]["bindings_enumerated"] > 0

    def test_explain_without_optimizer_keeps_zero_counters(self):
        report = explain_plan(
            compile_clip(deptstore.mapping_fig6()),
            deptstore.source_instance(),
            optimize=False,
        )
        assert report.optimize is False
        assert all(
            c["invocations"] == 0 and c["join_builds"] == 0
            for c in report.counters
        )
        # The static plan is still described.
        assert "equality join" in report.render()


# -- counters and fingerprints -----------------------------------------------


class TestPlumbing:
    def test_counters_diff_and_snapshot(self):
        a = PlanCounters(invocations=3, join_builds=2, filter_drops=5)
        before = a.snapshot()
        a.add(PlanCounters(invocations=1, join_builds=1))
        delta = a.diff(before)
        assert delta.invocations == 1
        assert delta.join_builds == 1
        assert delta.filter_drops == 0
        assert a.to_dict()["invocations"] == 4

    def test_fingerprint_distinguishes_optimize(self, monkeypatch):
        from repro.runtime import fingerprint

        mapping = deptstore.mapping_fig6()
        optimized = fingerprint(mapping, optimize=True)
        naive = fingerprint(mapping, "tgd", optimize=False)
        assert optimized != naive
        # The unmarked default payload is the optimized one, so
        # fingerprints recorded before the planner existed still match.
        monkeypatch.delenv(OPTIMIZE_ENV, raising=False)
        assert fingerprint(mapping) == optimized

    def test_grouping_level_counts_groups(self, workload):
        report = explain_plan(
            compile_clip(deptstore.mapping_fig7()), workload, optimize=True
        )
        totals = report.to_dict()["totals"]
        assert totals["groups"] > 0
        # Loop-invariant caching kicked in.
        assert totals["seq_cache_hits"] > 0
