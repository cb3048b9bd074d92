"""Unit tests for the direct tgd execution engine."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.compile import compile_clip
from repro.core.mapping import ClipMapping
from repro.core.tgd import (
    Assignment,
    Constant,
    NestedTgd,
    Proj,
    SchemaRoot,
    SourceGenerator,
    TargetGenerator,
    TgdComparison,
    TgdMapping,
    Var,
    proj_path,
)
from repro.core.tgd_parser import parse_tgd
from repro.errors import ExecutionError
from repro.executor import execute
from repro.executor.engine import _Engine, prepare
from repro.scenarios import deptstore
from repro.xml.model import element
from repro.xsd.dsl import attr, elem, schema
from repro.xsd.types import INT, STRING


def _simple_tgd(**overrides) -> NestedTgd:
    """∀ d ∈ source.dept → ∃ d′ ∈ target.department | d′.@name = d.dname.value"""
    mapping = TgdMapping(
        source_gens=(SourceGenerator("d", proj_path(SchemaRoot("source"), ["dept"])),),
        where=overrides.get("where", ()),
        target_gens=(
            TargetGenerator("d'", Proj(SchemaRoot("target"), "department")),
        ),
        assignments=(
            Assignment(
                Proj(Var("d'"), "@name"),
                proj_path(Var("d"), ["dname", "value"]),
            ),
        ),
    )
    return NestedTgd((mapping,), source_root="source", target_root="target")


@pytest.fixture
def instance():
    return deptstore.source_instance()


class TestBasics:
    def test_root_tag_mismatch_rejected(self, instance):
        tgd = NestedTgd((), source_root="other", target_root="target")
        with pytest.raises(ExecutionError):
            execute(tgd, instance)

    def test_quantified_generator_creates_per_iteration(self, instance):
        out = execute(_simple_tgd(), instance)
        assert [d.attribute("name") for d in out.findall("department")] == [
            "ICT",
            "Marketing",
        ]

    def test_where_filters(self, instance):
        condition = TgdComparison(
            proj_path(Var("d"), ["dname", "value"]), "=", Constant("ICT")
        )
        out = execute(_simple_tgd(where=(condition,)), instance)
        assert len(out.findall("department")) == 1

    def test_unbound_variable_raises(self, instance):
        mapping = TgdMapping(
            source_gens=(SourceGenerator("d", Var("nope")),),
            where=(),
            target_gens=(),
            assignments=(),
        )
        tgd = NestedTgd((mapping,), source_root="source", target_root="target")
        with pytest.raises(ExecutionError):
            execute(tgd, instance)

    def test_generator_over_atomics_raises(self, instance):
        mapping = TgdMapping(
            source_gens=(
                SourceGenerator("x", proj_path(SchemaRoot("source"), ["dept", "dname", "value"])),
            ),
            where=(),
            target_gens=(),
            assignments=(),
        )
        tgd = NestedTgd((mapping,), source_root="source", target_root="target")
        with pytest.raises(ExecutionError):
            execute(tgd, instance)


class TestMinimumCardinality:
    def test_wrapper_created_once_across_iterations(self, instance):
        tgd = compile_clip(deptstore.mapping_fig3())
        out = execute(tgd, instance)
        assert len(out.findall("department")) == 1

    def test_wrapper_created_even_when_iteration_is_empty(self):
        """Constant tags wrap the FLWOR: they exist with zero matches."""
        clip = deptstore.mapping_fig3()
        empty_source = element(
            "source",
            element("dept", element("dname", text="Empty")),
        )
        out = execute(compile_clip(clip), empty_source)
        assert len(out.findall("department")) == 1
        assert len(out.findall("department")[0].findall("employee")) == 0

    def test_assignment_materializes_intermediate_singletons(self, source_schema=None):
        """Section III-B example b: 'an E element will be produced, too'."""
        source = deptstore.source_schema()
        target = schema(
            elem("t", elem("D", "[0..*]", elem("E", attr("att5", STRING, required=False)))),
        )
        clip = ClipMapping(source, target)
        clip.build("dept", "D", var="d")
        clip.value("dept/dname/value", "D/E/@att5")
        out = execute(compile_clip(clip), deptstore.source_instance())
        first = out.findall("D")[0]
        assert first.find("E").attribute("att5") == "ICT"

    def test_missing_source_value_leaves_attribute_absent(self):
        source = schema(
            elem("s", elem("item", "[0..*]", elem("note", "[0..1]", text=STRING))),
        )
        target = schema(
            elem("t", elem("out", "[0..*]", attr("note", STRING, required=False))),
        )
        clip = ClipMapping(source, target)
        clip.build("item", "out", var="i")
        clip.value("item/note/value", "out/@note")
        instance = element(
            "s", element("item", element("note", text="x")), element("item")
        )
        out = execute(compile_clip(clip), instance)
        first, second = out.findall("out")
        assert first.attribute("note") == "x"
        assert not second.has_attribute("note")

    def test_multivalued_scalar_assignment_raises(self):
        source = schema(
            elem("s", elem("item", "[0..*]", elem("v", "[0..*]", text=INT))),
        )
        target = schema(
            elem("t", elem("out", "[0..*]", attr("n", INT, required=False))),
        )
        clip = ClipMapping(source, target)
        clip.build("item", "out", var="i")
        clip.value("item/v/value", "out/@n")
        instance = element(
            "s",
            element("item", element("v", text=1), element("v", text=2)),
        )
        tgd = compile_clip(clip, require_valid=False)
        with pytest.raises(ExecutionError):
            execute(tgd, instance)

    def test_duplicate_values_collapse_for_scalar_assignment(self):
        """Equal values are not 'distinct': grouping attrs rely on this."""
        source = schema(
            elem("s", elem("item", "[0..*]", elem("v", "[0..*]", text=INT))),
        )
        target = schema(
            elem("t", elem("out", "[0..*]", attr("n", INT, required=False))),
        )
        clip = ClipMapping(source, target)
        clip.build("item", "out", var="i")
        clip.value("item/v/value", "out/@n")
        instance = element(
            "s", element("item", element("v", text=7), element("v", text=7))
        )
        out = execute(compile_clip(clip, require_valid=False), instance)
        assert out.findall("out")[0].attribute("n") == 7


class TestGrouping:
    def test_groups_keyed_in_first_appearance_order(self, instance):
        out = execute(compile_clip(deptstore.mapping_fig7()), instance)
        assert [p.attribute("name") for p in out.findall("project")] == [
            "Appliances",
            "Robotics",
            "Brand promotion",
        ]

    def test_group_cache_scoped_per_parent(self):
        """The same key under different parents makes different groups."""
        source = deptstore.source_schema()
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
        clip = ClipMapping(source, target)
        dept_node = clip.build("dept", "department", var="d")
        clip.group("dept/Proj", "department/project", var="p",
                   by=["$p.pname.value"], parent=dept_node)
        clip.value("dept/dname/value", "department/@name")
        clip.value("dept/Proj/pname/value", "department/project/@name")
        out = execute(compile_clip(clip), deptstore.source_instance())
        ict, marketing = out.findall("department")
        # 'Appliances' exists in both departments: per-parent groups.
        assert [p.attribute("name") for p in ict.findall("project")] == [
            "Appliances",
            "Robotics",
        ]
        assert [p.attribute("name") for p in marketing.findall("project")] == [
            "Brand promotion",
            "Appliances",
        ]


class TestDistribution:
    def test_distribute_targets_every_existing_instance(self, instance):
        tgd = compile_clip(deptstore.mapping_fig4(context_arc=False))
        out = execute(tgd, instance)
        for dept in out.findall("department"):
            assert len(dept.findall("employee")) == 3

    def test_distribute_falls_back_to_wrapper_when_none_exist(self, instance):
        """Only the employee mapping: no departments were built, so the
        content lands in a singleton wrapper instead of vanishing."""
        tgd = compile_clip(deptstore.mapping_fig4(context_arc=False))
        employees_only = NestedTgd(
            (tgd.roots[1],), source_root="source", target_root="target"
        )
        out = execute(employees_only, instance)
        assert len(out.findall("department")) == 1
        assert len(out.findall("department")[0].findall("employee")) == 3


class TestAggregates:
    def test_count_over_elements_and_avg_over_values(self, instance):
        out = execute(compile_clip(deptstore.mapping_fig9()), instance)
        ict = out.findall("department")[0]
        assert ict.attribute("numProj") == 2
        assert ict.attribute("avg-sal") == 10875

    def test_aggregate_context_restricted_by_builder(self):
        """Only the projects *within a given department* are counted."""
        out = execute(compile_clip(deptstore.mapping_fig9()), deptstore.source_instance())
        counts = [d.attribute("numProj") for d in out.findall("department")]
        assert counts == [2, 2]  # not 4 (the document-wide count)


class TestStreamingEnumeration:
    """The naive engine tests each generator combination as it forms:
    a product no condition ever admits costs one combination of
    memory, not the whole product."""

    @staticmethod
    def _unjoinable(n: int):
        tgd = parse_tgd(
            "∀ a ∈ source.x, b ∈ source.y | a.@k = b.@k →\n"
            "  ∃ t ∈ target.t | t.@k = a.@k"
        )
        doc = element("source", *[element("x", k=i) for i in range(n)],
                      *[element("y", k=n + i) for i in range(n)])
        return tgd, doc

    def test_a_never_satisfied_product_is_not_materialized(self):
        tgd, doc = self._unjoinable(200)
        plan = prepare(tgd, optimize=False)
        tracemalloc.start()
        try:
            result = plan.run(doc)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.children == ()
        # Held at once, the 40,000 combinations peak near 8 MB.
        assert peak < 1_000_000, peak

    def test_the_product_is_enumerated_in_generator_order(self):
        tgd, doc = self._unjoinable(3)
        engine = _Engine(tgd, doc)
        pairs = [(env["a"].attribute("k"), env["b"].attribute("k"))
                 for env in engine._enumerate_raw(tgd.roots[0], {})]
        assert pairs == [(a, b) for a in range(3) for b in range(3, 6)]
