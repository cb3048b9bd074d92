"""Unit tests for XML serialization (angle-bracket and paper-style ASCII)."""

from __future__ import annotations

from repro.xml.model import element
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_ascii, to_xml


class TestToXml:
    def test_leaf_with_text(self):
        assert to_xml(element("sal", text=10000)) == "<sal>10000</sal>"

    def test_empty_element_self_closes(self):
        assert to_xml(element("area")) == "<area/>"

    def test_attributes_and_nesting(self):
        tree = element("Proj", element("pname", text="Robotics"), pid=2)
        text = to_xml(tree)
        assert '<Proj pid="2">' in text
        assert "  <pname>Robotics</pname>" in text

    def test_escaping_special_characters(self):
        tree = element("e", text='a<b&"c"', attr='x>"y"')
        text = to_xml(tree)
        assert "a&lt;b&amp;&quot;c&quot;" in text
        assert 'attr="x&gt;&quot;y&quot;"' in text

    def test_boolean_serializes_as_xsd_lexical(self):
        assert ">true<" in to_xml(element("b", text=True))

    def test_compact_mode(self):
        tree = element("p", element("c", text="v"))
        assert to_xml(tree, indent=None) == "<p><c>v</c></p>"

    def test_attribute_whitespace_is_escaped_and_round_trips(self):
        tree = element("a", x="l1\nl2", y="t\tab", z="c\r\nr")
        text = to_xml(tree)
        assert text == '<a x="l1&#10;l2" y="t&#9;ab" z="c&#13;&#10;r"/>'
        assert parse_xml(text).attributes == {"x": "l1\nl2", "y": "t\tab", "z": "c\r\nr"}

    def test_text_carriage_return_is_escaped_and_round_trips(self):
        tree = element("a", element("b", text="l1\r\nl2\rl3\tl4\nl5"))
        text = to_xml(tree, indent=None)
        assert text == "<a><b>l1&#13;\nl2&#13;l3\tl4\nl5</b></a>"
        assert parse_xml(text) == tree

    def test_values_without_special_characters_are_unchanged(self):
        tree = element("e", element("v", text=1.5), element("w", text=False), n=-3, s="plain")
        assert to_xml(tree, indent=None) == (
            '<e n="-3" s="plain"><v>1.5</v><w>false</w></e>'
        )

    def test_roundtrip_through_parser(self):
        tree = element(
            "source",
            element("dept", element("dname", text="ICT"), code="A&B"),
        )
        assert parse_xml(to_xml(tree)) == tree


class TestToAscii:
    def test_matches_paper_drawing_shape(self):
        tree = element(
            "target",
            element("department", element("employee", name="Andrew Clarence")),
        )
        assert to_ascii(tree) == (
            "target\n"
            "'---department\n"
            "    '---employee\n"
            "        '---@name = Andrew Clarence"
        )

    def test_middle_children_use_pipe_connector(self):
        tree = element("t", element("a"), element("b"))
        lines = to_ascii(tree).splitlines()
        assert lines[1].startswith("|---a")
        assert lines[2].startswith("'---b")

    def test_text_values_inline(self):
        tree = element("dept", element("dname", text="ICT"))
        assert "'---dname = ICT" in to_ascii(tree)

    def test_attributes_listed_before_children(self):
        tree = element("Proj", element("pname", text="X"), pid=1)
        lines = to_ascii(tree).splitlines()
        assert lines[1] == "|---@pid = 1"
        assert lines[2] == "'---pname = X"

    def test_deep_chain_renders_without_recursion(self):
        depth = 2000
        root = node = element("n0")
        for level in range(1, depth):
            node = node.append(element(f"n{level}"))
        node.set_attribute("leaf", 1)
        try:
            text = to_ascii(root)
        except RecursionError:
            # Fail outside the handler: rendering a thousand-frame
            # recursion traceback takes pytest minutes.
            text = None
        assert text is not None, "to_ascii recursed once per level"
        lines = text.splitlines()
        assert len(lines) == depth + 1
        assert lines[0] == "n0"
        assert lines[1] == "'---n1"
        assert lines[-2] == "    " * (depth - 2) + f"'---n{depth - 1}"
        assert lines[-1] == "    " * (depth - 1) + "'---@leaf = 1"
