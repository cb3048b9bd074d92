"""Tests for the per-document navigation index (:mod:`repro.xml.index`).

The index must be a transparent cache: every lookup returns exactly
what the uncached :class:`XmlElement` navigation would, tables are
built once per (element, tag), and :func:`index_for` hands the same
index to every engine touching the same document root — an index that
lives on the root and dies with it.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.xml import DocumentIndex, index_for
from repro.xml.model import element
from repro.xml.parser import parse_xml
from repro.xml.paths import parse_path


@pytest.fixture
def doc():
    return parse_xml(
        """
        <source>
          <dept id="1">
            <dname>ICT</dname>
            <Proj pid="1"><pname>Appliances</pname></Proj>
            <Proj pid="2"><pname>Robotics</pname></Proj>
            <regEmp pid="1"><ename>John</ename><sal>9000</sal></regEmp>
          </dept>
          <dept id="2">
            <dname>Marketing</dname>
            <Proj pid="3"><pname>Promo</pname></Proj>
          </dept>
        </source>
        """
    )


class TestChildren:
    def test_matches_findall(self, doc):
        index = DocumentIndex(doc)
        for node in [doc, *doc.children]:
            for tag in ("dept", "Proj", "dname", "nosuch"):
                assert index.children(node, tag) == node.findall(tag)

    def test_preserves_document_order(self, doc):
        index = DocumentIndex(doc)
        dept = doc.children[0]
        names = [
            p.findall("pname")[0].text for p in index.children(dept, "Proj")
        ]
        assert names == ["Appliances", "Robotics"]

    def test_table_built_once_per_element(self, doc):
        index = DocumentIndex(doc)
        dept = doc.children[0]
        index.children(dept, "Proj")
        index.children(dept, "regEmp")
        index.children(dept, "Proj")
        assert index.stats.child_tables_built == 1
        assert index.stats.child_lookups == 3

    def test_foreign_element_is_pinned(self, doc):
        """Looking up a freshly built element must not leave a dangling
        id-keyed table behind (the pin keeps the element alive)."""
        index = DocumentIndex(doc)
        temp = element("x", element("y"))
        assert len(index.children(temp, "y")) == 1
        assert temp in index._pins


class TestDescendants:
    def test_matches_descendants(self, doc):
        index = DocumentIndex(doc)
        assert index.descendants(doc, "pname") == doc.descendants("pname")
        assert index.descendants(doc, "Proj") == doc.descendants("Proj")
        assert index.descendants(doc, "nosuch") == []

    def test_built_once(self, doc):
        index = DocumentIndex(doc)
        index.descendants(doc, "Proj")
        index.descendants(doc, "Proj")
        assert index.stats.descendant_tables_built == 1
        assert index.stats.descendant_lookups == 2


class TestEvaluate:
    def test_matches_plain_path_evaluation(self, doc):
        from repro.xml.paths import evaluate

        index = DocumentIndex(doc)
        for text in ("dept/Proj/pname", "dept/@id", "dept/dname"):
            path = parse_path(text)
            assert index.evaluate(path, doc) == evaluate(path, doc)

    def test_repeat_evaluation_is_a_hit(self, doc):
        index = DocumentIndex(doc)
        path = parse_path("dept/Proj")
        first = index.evaluate(path, doc)
        second = index.evaluate(path, doc)
        assert first == second
        assert index.stats.path_hits == 1
        assert index.stats.path_misses == 1

    def test_iterable_context_is_not_memoized(self, doc):
        index = DocumentIndex(doc)
        path = parse_path("Proj/pname")
        found = index.evaluate(path, list(doc.children))
        assert [node.text for node in found] == [
            "Appliances", "Robotics", "Promo",
        ]
        assert index.stats.path_hits == 0

    def test_rejects_non_element_root(self):
        with pytest.raises(TypeError):
            DocumentIndex("not an element")  # type: ignore[arg-type]


class TestLifetime:
    """The index lives on its root: it dies with the document and is
    never carried into a copy or a pickle."""

    def test_index_is_collected_with_its_document(self):
        # Built here, not by the fixture: pytest keeps fixture values alive.
        doc = parse_xml("<source><dept><dname>ICT</dname></dept></source>")
        index = index_for(doc)
        index.children(doc, "dept")
        ref = weakref.ref(index)
        del index, doc
        gc.collect()
        assert ref() is None

    def test_copy_does_not_carry_the_index(self, doc):
        index = index_for(doc)
        index.children(doc, "dept")
        clone = doc.copy()
        assert getattr(clone, "_index", None) is None
        assert index_for(clone) is not index
        assert index_for(clone).root is clone
        assert index_for(doc) is index

    def test_pickle_does_not_carry_the_index(self, doc):
        index = index_for(doc)
        index.children(doc, "dept")
        restored = pickle.loads(pickle.dumps(doc))
        assert restored == doc
        assert getattr(restored, "_index", None) is None
        assert index_for(restored).root is restored
        assert index_for(restored).stats.child_tables_built == 0


class TestRegistry:
    """One shared index per document root."""

    def test_same_root_same_index(self, doc):
        assert index_for(doc) is index_for(doc)

    def test_distinct_roots_distinct_indexes(self, doc):
        other = parse_xml("<source/>")
        assert index_for(doc) is not index_for(other)

    def test_engines_share_one_index(self, doc):
        """The tgd engine and the XQuery interpreter navigating the
        same document hit one shared set of tables."""
        from repro.core.compile import compile_clip
        from repro.executor import prepare
        from repro.scenarios import deptstore
        from repro.xquery import emit_xquery, run_query

        instance = deptstore.source_instance()
        tgd = compile_clip(deptstore.mapping_fig5())
        prepare(tgd).run(instance)
        index = index_for(instance)
        lookups_after_tgd = index.stats.child_lookups
        assert lookups_after_tgd > 0
        run_query(emit_xquery(tgd), instance)
        assert index_for(instance) is index
        assert index.stats.child_lookups > lookups_after_tgd


class TestInvalidate:
    def test_mutation_after_invalidate_is_visible(self, doc):
        index = DocumentIndex(doc)
        dept = doc.findall("dept")[0]
        assert len(index.children(dept, "Proj")) == 2
        dept.append(element("Proj", element("pname", text="New"), pid=9))
        index.invalidate(dept)
        assert len(index.children(dept, "Proj")) == 3

    def test_ancestor_tables_are_dropped_too(self, doc):
        index = DocumentIndex(doc)
        dept = doc.findall("dept")[0]
        assert len(index.descendants(doc, "Proj")) == 3
        dept.append(element("Proj", element("pname", text="New"), pid=9))
        # Invalidating at the mutation site must also clear the root's
        # descendant table, which reaches into the mutated subtree.
        index.invalidate(dept)
        assert len(index.descendants(doc, "Proj")) == 4

    def test_sibling_tables_survive(self, doc):
        index = DocumentIndex(doc)
        first, second = doc.findall("dept")
        index.children(first, "Proj")
        index.children(second, "Proj")
        built_before = index.stats.child_tables_built
        first.append(element("Proj", element("pname", text="New"), pid=9))
        index.invalidate(first)
        # The sibling's table was not dropped: reading it builds nothing.
        index.children(second, "Proj")
        assert index.stats.child_tables_built == built_before
        # The mutated element's table is rebuilt on next access.
        assert len(index.children(first, "Proj")) == 3
        assert index.stats.child_tables_built == built_before + 1

    def test_memoized_paths_are_dropped_along_the_chain(self, doc):
        index = DocumentIndex(doc)
        path = parse_path("dept/Proj/pname")
        assert len(index.evaluate(path, doc)) == 3
        dept = doc.findall("dept")[1]
        proj = dept.findall("Proj")[0]
        field = proj.find("pname")
        field.clear_text()
        field.set_text("Renamed")
        index.invalidate(field)
        results = index.evaluate(path, doc)
        assert any(
            getattr(node, "text", None) == "Renamed" for node in results
        )
