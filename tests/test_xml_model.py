"""Unit tests for the XML instance model."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.errors import XmlError
from repro.xml.index import index_for
from repro.xml.model import XmlElement, element
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml


class TestConstruction:
    def test_element_helper_builds_children_attrs_text(self):
        node = element("Proj", element("pname", text="Robotics"), pid=2)
        assert node.tag == "Proj"
        assert node.attribute("pid") == 2
        assert node.find("pname").text == "Robotics"

    def test_attribute_accepts_at_prefixed_name(self):
        node = element("e", pid=1)
        assert node.attribute("@pid") == 1
        assert node.has_attribute("@pid")

    def test_text_and_children_are_mutually_exclusive(self):
        with pytest.raises(XmlError):
            element("e", element("c"), text="boom")
        leaf = element("e", text="v")
        with pytest.raises(XmlError):
            leaf.append(element("c"))

    def test_child_cannot_have_two_parents(self):
        child = element("c")
        element("p1", child)
        with pytest.raises(XmlError):
            element("p2", child)

    def test_rejects_non_atomic_attribute_values(self):
        node = element("e")
        with pytest.raises(XmlError):
            node.set_attribute("a", [1, 2])

    def test_rejects_illegal_names(self):
        with pytest.raises(XmlError):
            XmlElement("1badname")
        with pytest.raises(XmlError):
            element("e").set_attribute("has space", "v")

    def test_extend_appends_in_order(self):
        node = element("p")
        node.extend([element("a"), element("b")])
        assert [c.tag for c in node.children] == ["a", "b"]


class TestNavigation:
    def test_find_returns_first_match_only(self):
        node = element("p", element("x", n=1), element("x", n=2))
        assert node.find("x").attribute("n") == 1

    def test_findall_preserves_document_order(self):
        node = element("p", element("x", n=1), element("y"), element("x", n=2))
        assert [c.attribute("n") for c in node.findall("x")] == [1, 2]

    def test_iter_is_preorder(self):
        tree = element("a", element("b", element("c")), element("d"))
        assert [n.tag for n in tree.iter()] == ["a", "b", "c", "d"]

    def test_descendants_excludes_self(self):
        tree = element("x", element("x"), element("y", element("x")))
        # descendants() walks depth-first, excluding the root itself.
        assert len(tree.descendants("x")) == 2

    def test_path_from_root(self):
        inner = element("c")
        element("a", element("b", inner))
        assert [n.tag for n in inner.path_from_root()] == ["a", "b", "c"]

    def test_len_and_iteration(self):
        node = element("p", element("a"), element("b"))
        assert len(node) == 2
        assert [c.tag for c in node] == ["a", "b"]

    def test_size_counts_subtree(self):
        tree = element("a", element("b", element("c")), element("d"))
        assert tree.size() == 4


class TestEquality:
    def test_order_sensitive_equality(self):
        left = element("p", element("a"), element("b"))
        right = element("p", element("b"), element("a"))
        assert left != right
        assert left.equals_canonically(right)

    def test_canonical_equality_reorders_every_level_but_not_content(self):
        left = element(
            "r",
            element("p", element("x", text=2), element("x", text=1)),
            element("q", k="v"),
        )
        right = element(
            "r",
            element("q", k="v"),
            element("p", element("x", text=1), element("x", text=2)),
        )
        assert left.equals_canonically(right)
        base = element("r", element("p", element("x", text=1)), k="v")
        for other in (
            element("r", element("p", element("x", text=2)), k="v"),
            element("r", element("p", element("x", text=1)), k="w"),
            element("r", element("p", element("x", text=1), element("x")),
                    k="v"),
        ):
            assert not base.equals_canonically(other)
        assert not base.equals_canonically("r")

    def test_equality_covers_attributes_and_text(self):
        assert element("e", text="x", a=1) == element("e", text="x", a=1)
        assert element("e", text="x", a=1) != element("e", text="x", a=2)
        assert element("e", text="x") != element("e", text="y")

    def test_attribute_order_is_canonicalized(self):
        left = XmlElement("e", attributes={"a": 1, "b": 2})
        right = XmlElement("e", attributes={"b": 2, "a": 1})
        assert left == right

    def test_typed_values_distinguish_int_from_string(self):
        assert element("e", text=1) != element("e", text="1")

    def test_hashable_consistent_with_equality(self):
        assert hash(element("e", a=1)) == hash(element("e", a=1))

    def test_canonical_is_idempotent(self):
        tree = element("p", element("b"), element("a", z=1, y=2))
        once = tree.canonical()
        assert once == once.canonical()


class TestCopy:
    def test_copy_is_deep_and_detached(self):
        tree = element("p", element("c", text="v"), a=1)
        clone = tree.copy()
        assert clone == tree
        assert clone is not tree
        assert clone.parent is None
        assert clone.find("c") is not tree.find("c")

    def test_copy_mutation_does_not_leak(self):
        tree = element("p", element("c"))
        clone = tree.copy()
        clone.append(element("extra"))
        assert tree.find("extra") is None


def _sample() -> XmlElement:
    return element(
        "root",
        element("dept", element("dname", text="ICT"), element("Proj", pid="1"),
                element("Proj", element("pname", text="Robotics"), pid="2")),
        element("dept", element("dname", text="Sales")),
        element("empty"),
    )


def _leaves(tree: XmlElement) -> list:
    return [node for node in tree.iter() if not len(node)]


class TestSharedEmptyChildren:
    """Leaves share one untracked empty child container until their
    first child, so a document adds one tracked object per leaf."""

    @pytest.mark.parametrize("make", [
        lambda: parse_xml(to_xml(_sample())),
        lambda: _sample(),
        lambda: _sample().copy(),
        lambda: _sample().canonical(),
    ], ids=["parse_xml", "constructor", "copy", "canonical"])
    def test_leaves_start_with_an_untracked_container(self, make):
        tree = make()
        leaves = _leaves(tree)
        assert len(leaves) == 5
        for leaf in leaves:
            assert not gc.is_tracked(leaf._children)
        assert not gc.is_tracked(XmlElement("bare")._children)

    def test_append_and_insert_on_a_leaf(self):
        tree = parse_xml(to_xml(_sample()))
        leaf = tree.find("empty")
        first = leaf.append(element("a"))
        second = leaf.insert(0, element("b"))
        assert [child.tag for child in leaf] == ["b", "a"]
        assert first.parent is leaf and second.parent is leaf
        fresh = XmlElement("x")
        fresh.insert(0, element("y"))
        assert [child.tag for child in fresh] == ["y"]
        with pytest.raises(XmlError):
            tree.find("dept").find("dname").append(element("z"))
        # Growing one leaf leaves every other leaf's container alone.
        assert all(not len(node) for node in _leaves(tree))

    def test_remove_back_to_a_leaf_then_grow_again(self):
        leaf = element("p")
        child = leaf.append(element("c"))
        leaf.remove(child)
        assert len(leaf) == 0 and child.parent is None
        leaf.append(child)
        assert leaf.children == (child,)

    def test_splice_replaces_removes_and_inserts_by_index(self):
        parent = element("p")
        a, b, c = (parent.append(element(tag)) for tag in "abc")
        x, y = element("x"), element("y")
        assert parent.splice(1, 2, (x,)) == [b]
        assert b.parent is None and x.parent is parent
        assert parent.splice(0, 1) == [a] and a.parent is None
        assert parent.splice(2, 2, (y,)) == []
        assert [child.tag for child in parent] == ["x", "c", "y"]
        with pytest.raises(XmlError, match="already has a parent"):
            parent.splice(0, 0, (c,))
        with pytest.raises(XmlError, match="text value"):
            element("t", text="v").splice(0, 0, (element("z"),))
        leaf = element("leaf")
        assert leaf.splice(0, 0, (a,)) == [] and leaf.children == (a,)

    def test_pickle_copy_equality_and_canonical_are_unchanged(self):
        tree = _sample()
        parsed = parse_xml(to_xml(tree))
        assert parsed == tree
        restored = pickle.loads(pickle.dumps(tree))
        assert restored == tree
        assert to_xml(restored) == to_xml(tree)
        assert restored.find("dept").parent is restored
        assert restored.copy() == tree and tree.copy() == parsed
        assert hash(restored) == hash(tree)
        assert to_xml(tree.canonical()) == to_xml(parsed.canonical())
        assert tree.canonical().equals_canonically(restored)
        leaf = restored.find("empty")
        leaf.append(element("grown"))
        assert len(tree.find("empty")) == 0


class TestRelease:
    """``release()`` dismantles an owned tree so reference counting
    alone frees it."""

    def test_release_clears_every_parent_and_the_index(self):
        tree = parse_xml(to_xml(_sample()))
        index_for(tree)
        nodes = list(tree.iter())
        tree.release()
        assert all(node.parent is None for node in nodes)
        assert all(len(node) == 0 for node in nodes)
        assert getattr(tree, "_index", None) is None

    def test_released_elements_can_be_appended_anew(self):
        tree = _sample()
        nodes = list(tree.iter())
        tree.release()
        holder = element("holder")
        for node in nodes:
            holder.append(node)
        assert [child.tag for child in holder] == [n.tag for n in nodes]
        assert tree.parent is holder

    def test_release_of_a_subtree_detaches_it(self):
        tree = _sample()
        dept = tree.find("dept")
        dept.release()
        assert dept.parent is None
        assert [child.tag for child in tree] == ["dept", "empty"]
        assert len(dept) == 0

    def test_a_released_tree_is_freed_without_the_collector(self):
        tree = parse_xml(to_xml(_sample()))
        index_for(tree)
        gc.collect()
        gc.disable()
        try:
            tree.release()
            del tree
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_release_handles_deep_chains(self):
        root = node = element("n")
        for _ in range(5000):
            node = node.append(element("n"))
        root.release()
        assert node.parent is None and len(root) == 0
