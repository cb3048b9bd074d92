"""Tests for the instrumented executor (explain mode)."""

from __future__ import annotations

from repro.core.compile import compile_clip
from repro.executor import execute, explain
from repro.scenarios import deptstore


def _report(fig):
    tgd = compile_clip(deptstore.scenario(fig).make_mapping())
    return explain(tgd, deptstore.source_instance())


class TestResultFidelity:
    def test_explain_builds_the_same_instance(self):
        for scenario in deptstore.FIGURES:
            tgd = compile_clip(scenario.make_mapping())
            instance = deptstore.source_instance()
            assert explain(tgd, instance).result == execute(tgd, instance), (
                scenario.figure
            )


class TestCounters:
    def test_fig3_filter_counts(self):
        report = _report("fig3")
        (level,) = report.levels
        assert level.iterations == 3        # employees above 11000
        assert level.filtered_out == 4      # the other four regEmps
        assert level.elements_built == 3
        assert level.assignments_applied == 3

    def test_fig4_levels_nested(self):
        report = _report("fig4")
        outer, inner = report.levels
        assert outer.depth == 0 and inner.depth == 1
        assert outer.iterations == 2        # two departments
        assert inner.iterations == 3        # three surviving employees
        assert inner.filtered_out == 4

    def test_fig6_join_selectivity(self):
        report = _report("fig6")
        inner = report.levels[1]
        assert inner.iterations == 7        # join pairs
        assert inner.filtered_out == 7      # 14 candidates − 7 survivors
        assert inner.assignments_applied == 14  # two attributes per pair

    def test_fig7_group_count(self):
        report = _report("fig7")
        group_level = report.levels[0]
        assert group_level.groups == 3
        assert group_level.elements_built == 3
        assert group_level.iterations == 4  # four Proj instances grouped

    def test_fig9_aggregate_assignments(self):
        report = _report("fig9")
        (level,) = report.levels
        assert level.assignments_applied == 2 * 4  # 4 assignments × 2 depts

    def test_nested_groups_count_only_their_own_level(self):
        """A grouped level nested under a grouped level: each level
        reports the groups and elements it formed itself."""
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import STRING

        target = schema(
            elem(
                "t",
                elem(
                    "department",
                    "[1..*]",
                    attr("name", STRING, required=False),
                    elem("project", "[0..*]", attr("name", STRING, required=False)),
                ),
            )
        )
        clip = ClipMapping(deptstore.source_schema(), target)
        dept = clip.group("dept", "department", var="d", by=["$d.dname.value"])
        clip.group("dept/Proj", "department/project", var="p",
                   by=["$p.pname.value"], parent=dept)
        clip.value("dept/dname/value", "department/@name")
        clip.value("dept/Proj/pname/value", "department/project/@name")
        report = explain(compile_clip(clip), deptstore.source_instance())
        outer, inner = report.levels
        assert (outer.groups, outer.elements_built,
                outer.assignments_applied) == (2, 2, 2)
        assert (inner.groups, inner.elements_built,
                inner.assignments_applied) == (4, 4, 4)
        assert report.total_elements_built == 6
        assert report.result.size() == 7

    def test_totals(self):
        report = _report("fig5")
        assert report.total_iterations == 2 + 4 + 7
        assert report.total_elements_built == 2 + 4 + 7


class TestRendering:
    def test_report_rows(self):
        text = _report("fig4").render()
        assert "∀ d ∈ source.dept:" in text
        assert "filtered=4" in text
        assert text.strip().endswith("elements in the result")

    def test_blowup_is_visible(self):
        """The arc-less Figure 4 variant shows its repetition in the
        counters: 3 employees built into each of 2 departments."""
        tgd = compile_clip(deptstore.mapping_fig4(context_arc=False))
        report = explain(tgd, deptstore.source_instance())
        employee_level = report.levels[1]
        assert employee_level.elements_built == 6
