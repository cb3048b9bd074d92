"""Unit tests for parsing XML text into instance trees."""

from __future__ import annotations

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SchemaError, XmlError, XmlParseError
from repro.generation.corpus import generate_corpus
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.model import element
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml
from repro.xsd import AtomicType, attr, elem, schema


class TestParsing:
    def test_basic_structure(self):
        tree = parse_xml("<a><b x='1'>hi</b><c/></a>")
        assert tree.tag == "a"
        assert tree.find("b").text == "hi"
        assert tree.find("b").attribute("x") == "1"  # untyped without schema
        assert tree.find("c").text is None

    def test_whitespace_only_text_is_ignored(self):
        tree = parse_xml("<a>\n  <b>v</b>\n</a>")
        assert tree.text is None

    def test_namespace_prefixes_are_stripped(self):
        tree = parse_xml('<n:a xmlns:n="urn:x"><n:b n:k="1"/></n:a>')
        assert tree.tag == "a"
        assert tree.find("b").attribute("k") == "1"

    def test_malformed_raises(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a><b></a>")

    def test_entities_unescaped(self):
        tree = parse_xml("<a>x &amp; y</a>")
        assert tree.text == "x & y"


class TestSchemaCoercion:
    def test_values_typed_per_schema(self):
        schema = deptstore.source_schema()
        text = """
        <source>
          <dept>
            <dname>ICT</dname>
            <Proj pid="0001"><pname>Appliances</pname></Proj>
            <regEmp pid="0001"><ename>John Smith</ename><sal>10000</sal></regEmp>
          </dept>
        </source>
        """
        tree = parse_xml(text, schema=schema)
        proj = tree.find("dept").find("Proj")
        emp = tree.find("dept").find("regEmp")
        assert proj.attribute("pid") == 1           # int, not "0001"
        assert emp.find("sal").text == 10000        # int
        assert emp.find("ename").text == "John Smith"

    def test_undeclared_elements_stay_strings(self):
        schema = deptstore.source_schema()
        tree = parse_xml("<source><dept><dname>ICT</dname><bogus>5</bogus></dept></source>", schema=schema)
        assert tree.find("dept").find("bogus").text == "5"

    def test_paper_instance_roundtrip_with_types(self):
        schema = deptstore.source_schema()
        instance = deptstore.source_instance()

        assert parse_xml(to_xml(instance), schema=schema) == instance

    def test_bad_typed_value_raises_schema_error(self):
        schema = deptstore.source_schema()
        with pytest.raises(SchemaError, match="as int"):
            parse_xml(
                '<source><dept><Proj pid="x1"><pname>A</pname></Proj>'
                "</dept></source>",
                schema=schema,
            )
        with pytest.raises(SchemaError, match="as int"):
            parse_xml(
                "<source><dept><regEmp pid='1'><sal>lots</sal></regEmp>"
                "</dept></source>",
                schema=schema,
            )

    def test_namespaced_names_are_coerced_by_local_name(self):
        schema = deptstore.source_schema()
        tree = parse_xml(
            '<s:source xmlns:s="urn:s"><s:dept>'
            '<s:Proj s:pid="7"><s:pname>A</s:pname></s:Proj>'
            "</s:dept></s:source>",
            schema=schema,
        )
        assert tree.find("dept").find("Proj").attribute("pid") == 7

    def test_attribute_order_and_mixed_content(self):
        tree = parse_xml('<a z="1" b="2" m="3">lost<c>kept</c>lost too</a>')
        assert list(tree.attributes) == ["z", "b", "m"]
        assert tree.text is None
        assert tree.find("c").text == "kept"


def _custom_schema(parser):
    """``<r x=…><t>…</t></r>`` with ``@x`` and ``t``'s text of a custom
    atomic type parsed by ``parser``."""
    custom = AtomicType("custom", "xs:string", str, parser)
    return schema(elem("r", attr("x", custom), elem("t", text=custom)))


class TestParseEdgeCases:
    """What the compiled, cached parse plans must keep exactly."""

    def test_typed_value_error_messages(self):
        schema_ = deptstore.source_schema()
        with pytest.raises(SchemaError) as attribute_error:
            parse_xml('<source><dept><Proj pid="zz"/></dept></source>', schema=schema_)
        assert str(attribute_error.value) == (
            "cannot parse 'zz' as int: invalid literal for int() with base 10: 'zz'"
        )
        with pytest.raises(SchemaError) as text_error:
            parse_xml(
                "<source><dept><regEmp pid='1'><sal>zz</sal></regEmp></dept></source>",
                schema=schema_,
            )
        assert str(text_error.value) == (
            "cannot parse 'zz' as int: invalid literal for int() with base 10: 'zz'"
        )

    def test_custom_type_returning_a_non_atomic_is_refused_with_its_label(self):
        schema_ = _custom_schema(lambda text: [text])
        with pytest.raises(XmlError, match=r"^attribute @x must be str/int/float/bool, got list$"):
            parse_xml('<r x="1"/>', schema=schema_)
        with pytest.raises(XmlError, match=r"^text of <t> must be str/int/float/bool, got list$"):
            parse_xml("<r><t>1</t></r>", schema=schema_)

    def test_custom_type_result_is_kept(self):
        schema_ = _custom_schema(lambda text: len(text))
        tree = parse_xml('<r x="abc"><t>hello</t></r>', schema=schema_)
        assert tree.attribute("x") == 3
        assert tree.find("t").text == 5

    def test_whitespace_around_typed_values(self):
        tree = parse_xml(
            '<source><dept><Proj pid=" 5 "><pname> P </pname></Proj>'
            "<regEmp pid='\t7'><sal>\n 900 </sal></regEmp></dept></source>",
            schema=deptstore.source_schema(),
        )
        dept = tree.find("dept")
        assert dept.find("Proj").attribute("pid") == 5
        assert dept.find("Proj").find("pname").text == "P"
        assert dept.find("regEmp").attribute("pid") == 7
        assert dept.find("regEmp").find("sal").text == 900

    def test_undeclared_subtrees_keep_strings(self):
        # ``sal`` and ``@pid`` are int-typed where the schema declares
        # them, never under an undeclared element.
        tree = parse_xml(
            "<source><dept><bogus pid='3'><sal>5</sal></bogus>"
            "<regEmp pid='4'><sal>6</sal><extra pid='8'>9</extra></regEmp>"
            "</dept></source>",
            schema=deptstore.source_schema(),
        )
        dept = tree.find("dept")
        assert dept.find("bogus").attribute("pid") == "3"
        assert dept.find("bogus").find("sal").text == "5"
        assert dept.find("regEmp").attribute("pid") == 4
        assert dept.find("regEmp").find("sal").text == 6
        assert dept.find("regEmp").find("extra").attribute("pid") == "8"
        assert dept.find("regEmp").find("extra").text == "9"

    def test_one_schema_parses_different_documents(self):
        schema_ = deptstore.source_schema()
        first = parse_xml(
            "<source><dept><dname>A</dname><Proj pid='1'><pname>P</pname></Proj>"
            "</dept></source>",
            schema=schema_,
        )
        second = parse_xml(
            '<s:source xmlns:s="urn:s"><s:dept><s:regEmp s:pid="2">'
            "<s:ename>E</s:ename><s:sal>10</s:sal></s:regEmp></s:dept>"
            "<dept><bogus>1</bogus></dept></s:source>",
            schema=schema_,
        )
        third = parse_xml("<other><Proj pid='3'/></other>", schema=schema_)
        assert first.find("dept").find("Proj").attribute("pid") == 1
        assert first.find("dept").find("dname").text == "A"
        employee = second.find("dept").find("regEmp")
        assert (employee.attribute("pid"), employee.find("sal").text) == (2, 10)
        assert second.children[1].find("bogus").text == "1"
        # The root takes the schema root's plan whatever its tag.
        assert third.tag == "other"
        assert third.find("Proj").attribute("pid") == "3"

    def test_first_error_in_document_order(self):
        # A later sibling's bad attribute is not reached before an
        # earlier element's bad descendant.
        with pytest.raises(SchemaError, match="'bad-text'"):
            parse_xml(
                "<source><dept><regEmp pid='1'><sal>bad-text</sal></regEmp>"
                "<Proj pid='bad-attr'/></dept></source>",
                schema=deptstore.source_schema(),
            )


def _chain(depth: int) -> str:
    return "<a>" * depth + "v" + "</a>" * depth


class TestHostileDepth:
    """Parse, serialize, copy, canonical ordering, iteration and
    equality walk the tree with explicit stacks, so a deep document is
    bounded by memory, not by the recursion limit."""

    def test_deep_chain_round_trips(self):
        text = _chain(20000)
        tree = parse_xml(text)
        assert tree.size() == 20000
        assert to_xml(tree, indent=None) == text

    def test_deep_chain_indented(self):
        tree = parse_xml(_chain(3000))
        lines = to_xml(tree).split("\n")
        assert len(lines) == 2 * 3000 - 1
        assert lines[2999] == "  " * 2999 + "<a>v</a>"

    def test_deep_chain_copy_iter_and_equality(self):
        tree = parse_xml(_chain(20000))
        assert sum(1 for _ in tree.iter()) == 20000
        clone = tree.copy()
        assert clone is not tree
        assert clone == tree
        assert hash(clone) == hash(tree)
        leaf = list(clone.iter())[-1]
        leaf.set_text("w")
        assert clone != tree

    def test_deep_chain_canonical(self):
        tree = parse_xml(_chain(20000))
        canonical = tree.canonical()
        assert canonical == tree
        assert to_xml(canonical, indent=None) == _chain(20000)

    def test_deep_branching_tree_canonical_sorts_siblings(self):
        deep = _chain(5000)
        text = f"<r><z>1</z>{deep}<b>2</b></r>"
        canonical = parse_xml(text).canonical()
        assert [child.tag for child in canonical] == ["a", "b", "z"]
        assert canonical.copy() == canonical


class TestAttributeCollisions:
    """Namespace stripping must not silently merge attributes."""

    def test_prefixed_attributes_with_one_local_name_are_refused(self):
        text = '<e xmlns:a="urn:a" xmlns:b="urn:b" a:x="1" b:x="2"/>'
        with pytest.raises(XmlParseError, match="local name 'x'"):
            parse_xml(text)

    def test_prefixed_and_plain_attribute_collide(self):
        text = '<e xmlns:a="urn:a"><f a:x="1" x="2"/></e>'
        with pytest.raises(XmlParseError, match="<f>"):
            parse_xml(text)

    def test_distinct_local_names_still_parse(self):
        text = '<e xmlns:a="urn:a" xmlns:b="urn:b" a:x="1" b:y="2"/>'
        assert parse_xml(text).attributes == {"x": "1", "y": "2"}


# -- round-trip property ----------------------------------------------------


@lru_cache(maxsize=1)
def _corpus():
    return generate_corpus(7, 45)


def _typed(tree):
    """Every node's tag, attributes and text, with value types."""
    return [
        (
            node.tag,
            [(name, type(value), value) for name, value in node.attributes.items()],
            type(node.text),
            node.text,
        )
        for node in tree.iter()
    ]


_values = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" &<>\"'"),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@st.composite
def _dept_instances(draw):
    spec = DeptstoreSpec(
        departments=draw(st.integers(1, 4)),
        projects_per_dept=draw(st.integers(0, 4)),
        employees_per_dept=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 1000)),
    )
    instance = make_deptstore_instance(spec)
    for node in instance.iter():
        if node.tag in ("dname", "pname", "ename"):
            node.clear_text()
            node.set_text(draw(_values))
    return instance


class TestRoundTripProperty:
    """``parse_xml(to_xml(t), schema) == t`` with every value's type kept,
    over the scenario corpus and random department-store instances."""

    @settings(max_examples=45, deadline=None)
    @given(index=st.integers(0, 44))
    def test_corpus_instances(self, index):
        case = _corpus()[index]
        back = parse_xml(to_xml(case.instance), schema=case.mapping.source)
        assert back == case.instance
        assert _typed(back) == _typed(case.instance)

    @settings(max_examples=60, deadline=None)
    @given(instance=_dept_instances())
    def test_deptstore_instances(self, instance):
        schema = deptstore.source_schema()
        for indent in ("  ", None):
            back = parse_xml(to_xml(instance, indent=indent), schema=schema)
            assert back == instance
            assert _typed(back) == _typed(instance)

    def test_untyped_parse_keeps_strings(self):
        instance = element("a", element("b", text=5), k=True)
        back = parse_xml(to_xml(instance))
        assert back.attribute("k") == "true"
        assert back.find("b").text == "5"
