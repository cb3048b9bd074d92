"""Unit tests for the XML instance model."""

from __future__ import annotations

import pytest

from repro.errors import XmlError
from repro.xml.model import XmlElement, element


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
