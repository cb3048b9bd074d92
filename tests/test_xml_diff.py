"""Tests for the structural instance diff."""

from __future__ import annotations

from repro.core.compile import compile_clip
from repro.executor import execute
from repro.scenarios import deptstore
from repro.xml.diff import diff, render_diff
from repro.xml.model import element


class TestBasics:
    def test_identical_instances(self):
        a = deptstore.source_instance()
        b = deptstore.source_instance()
        assert diff(a, b) == []
        assert render_diff([]) == "(instances are identical)"

    def test_attribute_change(self):
        a = element("t", element("e", n=1))
        b = element("t", element("e", n=2))
        (d,) = diff(a, b)
        assert d.kind == "attribute"
        assert d.location == "/t/e[1]/@n"
        assert (d.left, d.right) == (1, 2)

    def test_attribute_only_on_one_side(self):
        a = element("t", element("e", n=1))
        b = element("t", element("e"))
        (d,) = diff(a, b)
        assert (d.left, d.right) == (1, None)

    def test_text_change(self):
        a = element("t", element("e", text="x"))
        b = element("t", element("e", text="y"))
        (d,) = diff(a, b)
        assert d.kind == "text" and d.location == "/t/e[1]/text()"

    def test_missing_and_extra_children(self):
        a = element("t", element("e"), element("e"))
        b = element("t", element("e"))
        (d,) = diff(a, b)
        assert d.kind == "missing" and d.location == "/t/e[2]"
        (d2,) = diff(b, a)
        assert d2.kind == "extra"

    def test_tag_mismatch_at_root(self):
        (d,) = diff(element("a"), element("b"))
        assert d.kind == "tag"

    def test_positional_alignment_per_tag(self):
        a = element("t", element("x", n=1), element("y"), element("x", n=2))
        b = element("t", element("x", n=1), element("x", n=3))
        differences = diff(a, b)
        kinds = sorted((d.kind, d.location) for d in differences)
        assert ("attribute", "/t/x[2]/@n") in kinds
        assert ("missing", "/t/y[1]") in kinds

    def test_limit_respected(self):
        a = element("t", *[element("e", n=i) for i in range(20)])
        b = element("t", *[element("e", n=i + 100) for i in range(20)])
        assert len(diff(a, b, max_differences=5)) == 5


class TestMappingWorkflow:
    def test_diff_shows_what_the_context_arc_changes(self):
        """The developer workflow: compare fig4 with and without the arc."""
        instance = deptstore.source_instance()
        with_arc = execute(compile_clip(deptstore.mapping_fig4()), instance)
        without = execute(
            compile_clip(deptstore.mapping_fig4(context_arc=False)), instance
        )
        differences = diff(with_arc, without)
        assert differences  # the repeated employees show up
        text = render_diff(differences)
        assert "/target/department[1]/employee[2]" in text


class TestNamespaceBearingDocuments:
    """The parser strips namespace URIs (Clip schemas are prefix-free),
    so namespace-bearing inputs diff on *local names* — two documents
    differing only in prefix or declared URI compare identical, and a
    real structural change is still pinpointed.  Groundwork for
    incremental recomputation, which must not treat prefix churn as a
    change."""

    def test_prefix_and_uri_churn_is_invisible(self):
        from repro.xml.parser import parse_xml

        a = parse_xml(
            '<root xmlns:a="http://one.example/ns">'
            '<a:item a:kind="x">v</a:item></root>'
        )
        b = parse_xml(
            '<root xmlns:b="http://two.example/ns">'
            '<b:item b:kind="x">v</b:item></root>'
        )
        assert diff(a, b) == []

    def test_real_change_survives_namespace_noise(self):
        from repro.xml.parser import parse_xml

        a = parse_xml(
            '<root xmlns:n="urn:x"><n:item n:kind="x">v</n:item></root>'
        )
        b = parse_xml(
            '<root xmlns:n="urn:x"><n:item n:kind="y">v</n:item></root>'
        )
        (d,) = diff(a, b)
        assert d.kind == "attribute"
        assert d.location == "/root/item[1]/@kind"
        assert (d.left, d.right) == ("x", "y")

    def test_default_namespace_elements_align(self):
        from repro.xml.parser import parse_xml

        a = parse_xml('<r xmlns="urn:a"><c>1</c><c>2</c></r>')
        b = parse_xml('<r><c>1</c></r>')
        (d,) = diff(a, b)
        assert d.kind == "missing" and d.location == "/r/c[2]"


class TestMixedContentDocuments:
    """The model is element-centric (text XOR children); the parser
    resolves mixed content by keeping children and dropping the
    interleaved text.  The diff must honor exactly that resolution:
    interleaved text never produces phantom differences, and the
    child structure still diffs normally."""

    def test_interleaved_text_is_not_a_difference(self):
        from repro.xml.parser import parse_xml

        a = parse_xml("<p>hello <b>world</b> again</p>")
        b = parse_xml("<p><b>world</b></p>")
        assert diff(a, b) == []

    def test_child_changes_inside_mixed_content_are_found(self):
        from repro.xml.parser import parse_xml

        a = parse_xml("<p>intro <b>one</b> middle <b>two</b></p>")
        b = parse_xml("<p>intro <b>one</b> middle <b>TWO</b></p>")
        (d,) = diff(a, b)
        assert d.kind == "text"
        assert d.location == "/p/b[2]/text()"
        assert (d.left, d.right) == ("two", "TWO")

    def test_text_vs_children_is_structural(self):
        """A node that is pure text on one side and element-bearing on
        the other is a structural difference, reported at the child."""
        from repro.xml.parser import parse_xml

        a = parse_xml("<p>plain</p>")
        b = parse_xml("<p><b>bold</b></p>")
        differences = diff(a, b)
        assert differences
        kinds = {d.kind for d in differences}
        assert kinds <= {"text", "extra"}


class TestDiffResultTruncation:
    def test_truncated_flag_set_when_limit_drops_records(self):
        a = element("r", *[element("x", text=str(i)) for i in range(10)])
        b = element("r", *[element("x", text=str(i + 100)) for i in range(10)])
        clipped = diff(a, b, max_differences=5)
        assert len(clipped) == 5
        assert clipped.truncated is True

    def test_complete_diff_is_not_truncated(self):
        a = element("r", element("x", text="old"))
        b = element("r", element("x", text="new"))
        full = diff(a, b)
        assert len(full) == 1
        assert full.truncated is False

    def test_exactly_at_limit_is_not_truncated(self):
        a = element("r", *[element("x", text=str(i)) for i in range(5)])
        b = element("r", *[element("x", text=str(i + 100)) for i in range(5)])
        exact = diff(a, b, max_differences=5)
        assert len(exact) == 5
        assert exact.truncated is False


class TestComputeDelta:
    def _pair(self):
        left = deptstore.source_instance()
        right = deptstore.source_instance()
        dept = right.findall("dept")[0]
        pname = dept.findall("Proj")[0].find("pname")
        pname.clear_text()
        pname.set_text("renamed")
        emp = dept.findall("regEmp")[0]
        emp.parent.remove(emp)
        return left, right

    def test_apply_round_trips_byte_identically(self):
        from repro.xml.diff import apply_delta, compute_delta
        from repro.xml.serialize import to_xml

        left, right = self._pair()
        delta = compute_delta(left, right)
        rebuilt = apply_delta(left, delta)
        assert to_xml(rebuilt) == to_xml(right)
        # and the left instance is untouched
        assert to_xml(left) == to_xml(deptstore.source_instance())

    def test_identical_instances_give_the_empty_delta(self):
        from repro.xml.diff import compute_delta

        delta = compute_delta(
            deptstore.source_instance(), deptstore.source_instance()
        )
        assert delta.is_empty
        assert not delta.truncated

    def test_tag_paths_by_kind_partitions_tag_paths(self):
        from repro.xml.diff import compute_delta

        left, right = self._pair()
        delta = compute_delta(left, right)
        values, structure = delta.tag_paths_by_kind()
        assert values | structure == delta.tag_paths()
        assert values.isdisjoint(structure)
        assert ("dept", "Proj", "pname", "value") in values
        assert ("dept", "regEmp") in structure

    def test_truncated_delta_cannot_be_applied(self):
        import pytest

        from repro.errors import XmlError
        from repro.xml.diff import apply_delta, compute_delta

        left, right = self._pair()
        delta = compute_delta(left, right, max_records=1)
        assert delta.truncated
        with pytest.raises(XmlError, match="truncated"):
            apply_delta(left, delta)


class TestApplyDeltaInPlace:
    def test_mutates_the_tree_to_match_and_reports_touched_nodes(self):
        from repro.xml.diff import apply_delta_in_place, compute_delta
        from repro.xml.serialize import to_xml

        left = deptstore.source_instance()
        right = deptstore.source_instance()
        field = right.findall("dept")[1].findall("Proj")[0].find("pname")
        field.clear_text()
        field.set_text("edited in place")
        delta = compute_delta(left, right)
        touched = apply_delta_in_place(left, delta)
        assert to_xml(left) == to_xml(right)
        assert [node.tag for node in touched] == ["pname"]

    def test_preserves_node_identities_outside_the_edit(self):
        from repro.xml.diff import apply_delta_in_place, compute_delta

        left = deptstore.source_instance()
        right = deptstore.source_instance()
        field = right.findall("dept")[0].findall("Proj")[0].find("pname")
        field.clear_text()
        field.set_text("edited")
        untouched_before = left.findall("dept")[1]
        edited_before = left.findall("dept")[0].findall("Proj")[0]
        apply_delta_in_place(left, compute_delta(left, right))
        assert left.findall("dept")[1] is untouched_before
        # even the mutated element keeps its identity: only its text moved
        assert left.findall("dept")[0].findall("Proj")[0] is edited_before

    def test_structural_edit_reports_the_parent(self):
        from repro.xml.diff import apply_delta_in_place, compute_delta
        from repro.xml.serialize import to_xml

        left = deptstore.source_instance()
        right = deptstore.source_instance()
        emp = right.findall("dept")[0].findall("regEmp")[-1]
        emp.parent.remove(emp)
        delta = compute_delta(left, right)
        touched = apply_delta_in_place(left, delta)
        assert to_xml(left) == to_xml(right)
        assert [node.tag for node in touched] == ["dept"]

    def test_whole_document_replace_is_refused(self):
        import pytest

        from repro.errors import XmlError
        from repro.xml.diff import apply_delta_in_place, compute_delta

        left = element("a", element("x", text=1))
        right = element("b", element("y", text=2))
        delta = compute_delta(left, right)
        with pytest.raises(XmlError, match="whole-document replace"):
            apply_delta_in_place(left, delta)


class TestDeepDocuments:
    """Every walk on the delta path runs over an explicit stack: a
    document nested far beyond the interpreter's recursion limit
    diffs, applies and compares like any other."""

    DEPTH = 5000

    def _chain(self, leaf_text):
        from repro.xml.model import XmlElement

        root = XmlElement("a")
        node = root
        for _ in range(self.DEPTH - 1):
            node = node.append(XmlElement("a"))
        node.set_text(leaf_text)
        return root

    def test_chains_differing_at_the_leaf(self):
        from repro.xml.diff import apply_delta_in_place, compute_delta
        from repro.xml.serialize import to_xml

        left, right = self._chain("old"), self._chain("new")
        delta = compute_delta(left, right)
        assert [record.op for record in delta.records] == ["mutate-text"]
        assert len(delta.records[0].steps) == self.DEPTH - 1
        apply_delta_in_place(left, delta)
        assert to_xml(left) == to_xml(right)

        differences = diff(self._chain("old"), right)
        assert [d.kind for d in differences] == ["text"]
        assert not left.equals_canonically(self._chain("old"))
        assert left.equals_canonically(right)
