"""Property-based tests (hypothesis) for core invariants.

The central property of the reproduction: for any instance of the
paper's source schema, the direct tgd executor and the generated-XQuery
interpreter compute *identical* target instances for every figure's
mapping, and those instances conform to the target schema.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.compile import compile_clip
from repro.core.expr import parse_condition
from repro.executor import execute
from repro.generation import compute_tableaux
from repro.generation.corpus import generate_corpus
from repro.scenarios import deptstore
from repro.xml.model import XmlElement, element
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml
from repro.xquery import emit_xquery, run_query
from repro.xsd.parser import parse_xsd, to_xsd
from repro.xsd.render import render_schema
from repro.xsd.validate import validate

# -- strategies ----------------------------------------------------------------

_names = st.sampled_from(
    ["John Smith", "Mark Tane", "Ann", "Bob", "Cid", "Déjà Vu", "X"]
)
_pnames = st.sampled_from(["Appliances", "Robotics", "Brand promotion", "Audio"])
_dnames = st.sampled_from(["ICT", "Marketing", "Sales", "R&D"])
_salaries = st.integers(min_value=0, max_value=40000)


@st.composite
def dept_instances(draw):
    """Random valid instances of the paper's source schema."""
    root = XmlElement("source")
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dept = element("dept", element("dname", text=draw(_dnames)))
        n_projects = draw(st.integers(min_value=0, max_value=3))
        pids = list(range(1, n_projects + 1))
        for pid in pids:
            dept.append(
                element("Proj", element("pname", text=draw(_pnames)), pid=pid)
            )
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            if not pids:
                break
            dept.append(
                element(
                    "regEmp",
                    element("ename", text=draw(_names)),
                    element("sal", text=draw(_salaries)),
                    pid=draw(st.sampled_from(pids)),
                )
            )
        root.append(dept)
    return root


@st.composite
def xml_trees(draw, depth=0):
    """Arbitrary small instance trees for model/serialization properties."""
    tag = draw(st.sampled_from(["a", "b", "c", "d"]))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(["x", "y", "z"]),
            st.one_of(
                st.integers(-1000, 1000),
                st.text(
                    alphabet=st.characters(
                        codec="utf-8", exclude_categories=("Cc", "Cs")
                    ),
                    max_size=12,
                ),
            ),
            max_size=3,
        )
    )
    as_leaf = depth >= 2 or draw(st.booleans())
    if as_leaf:
        text = draw(
            st.one_of(
                st.none(),
                st.integers(-1000, 1000),
                st.text(
                    alphabet=st.characters(
                        codec="utf-8", exclude_categories=("Cc", "Cs")
                    ),
                    min_size=1,
                    max_size=12,
                ).filter(lambda s: s.strip() == s and s.strip() != ""),
            )
        )
        return XmlElement(tag, attributes=attrs, text=text)
    children = draw(st.lists(xml_trees(depth=depth + 1), max_size=3))
    return XmlElement(tag, attributes=attrs, children=children)


# -- the headline property -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(instance=dept_instances())
def test_engines_agree_on_every_figure_for_random_instances(instance):
    assert validate(instance, deptstore.source_schema()) == []
    for scenario in deptstore.FIGURES:
        clip = scenario.make_mapping()
        tgd = compile_clip(clip)
        direct = execute(tgd, instance)
        via_xquery = run_query(emit_xquery(tgd), instance)
        assert direct == via_xquery, scenario.figure
        # A mapping cannot invent mandatory content: when the (possibly
        # filtered) source side is empty, minimum-occurrence violations
        # are inherent.  Everything else must hold.
        violations = [
            v
            for v in validate(direct, clip.target)
            if "occurs 0 times" not in v.message
        ]
        assert violations == [], scenario.figure


@settings(max_examples=40, deadline=None)
@given(instance=dept_instances())
def test_fig7_groups_partition_the_joined_employees(instance):
    """Grouping invariant: project elements are keyed by distinct pnames
    and each joined employee lands under the project of its own dept."""
    tgd = compile_clip(deptstore.mapping_fig7())
    out = execute(tgd, instance)
    names = [p.attribute("name") for p in out.findall("project")]
    assert len(names) == len(set(names))
    distinct_pnames = {
        p.find("pname").text
        for d in instance.findall("dept")
        for p in d.findall("Proj")
    }
    assert set(names) == distinct_pnames


@settings(max_examples=40, deadline=None)
@given(instance=dept_instances())
def test_fig9_aggregates_match_manual_computation(instance):
    tgd = compile_clip(deptstore.mapping_fig9())
    out = execute(tgd, instance)
    for dept, out_dept in zip(instance.findall("dept"), out.findall("department")):
        assert out_dept.attribute("numProj") == len(dept.findall("Proj"))
        assert out_dept.attribute("numEmps") == len(dept.findall("regEmp"))
        salaries = [e.find("sal").text for e in dept.findall("regEmp")]
        if salaries:
            expected = sum(salaries) / len(salaries)
            if float(expected).is_integer():
                expected = int(expected)
            assert out_dept.attribute("avg-sal") == expected
        else:
            assert not out_dept.has_attribute("avg-sal")


@settings(max_examples=40, deadline=None)
@given(instance=dept_instances())
def test_fig6_join_is_subset_of_cartesian(instance):
    joined = execute(compile_clip(deptstore.mapping_fig6()), instance)
    cartesian = execute(
        compile_clip(deptstore.mapping_fig6(join_condition=False)), instance
    )
    def pairs(root):
        return [
            (p.attribute("pname"), p.attribute("ename"))
            for p in root.findall("project-emp")
        ]
    joined_pairs = pairs(joined)
    cartesian_pairs = pairs(cartesian)
    assert len(joined_pairs) <= len(cartesian_pairs)
    remaining = list(cartesian_pairs)
    for pair in joined_pairs:
        assert pair in remaining
        remaining.remove(pair)


# -- substrate properties --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tree=xml_trees())
def test_xml_text_roundtrip_preserves_structure(tree):
    recovered = parse_xml(to_xml(tree))
    # Types flatten to strings without a schema; compare shape and
    # stringified values.
    def shape(node):
        return (
            node.tag,
            tuple(sorted((k, str(v)) for k, v in node.attributes.items())),
            str(node.text) if node.text is not None else None,
            tuple(shape(c) for c in node.children),
        )
    assert shape(recovered) == shape(tree)


@settings(max_examples=60, deadline=None)
@given(tree=xml_trees())
def test_copy_equals_original_and_is_independent(tree):
    clone = tree.copy()
    assert clone == tree
    assert clone.equals_canonically(tree)


@settings(max_examples=60, deadline=None)
@given(tree=xml_trees(), data=st.data())
def test_canonical_equality_is_shuffle_invariant(tree, data):
    if len(tree.children) < 2:
        return
    order = data.draw(st.permutations(range(len(tree.children))))
    shuffled = XmlElement(tree.tag, attributes=tree.attributes, text=tree.text)
    children = list(tree.children)
    for index in order:
        shuffled.append(children[index].copy())
    assert tree.equals_canonically(shuffled)


def _typed_values(tree):
    """Every node's tag, attributes and text with each value's type:
    ``XmlElement.__eq__`` alone has ``1 == 1.0 == True``."""
    return [
        (
            node.tag,
            [(name, type(value), value) for name, value in node.attributes.items()],
            (type(node.text), node.text),
        )
        for node in tree.iter()
    ]


def _assert_typed_roundtrip(instance, schema):
    for indent in ("  ", None):
        back = parse_xml(to_xml(instance, indent=indent), schema=schema)
        assert back == instance
        assert _typed_values(back) == _typed_values(instance)


@settings(max_examples=30, deadline=None)
@given(instance=dept_instances())
def test_schema_coerced_parse_roundtrip(instance):
    _assert_typed_roundtrip(instance, deptstore.source_schema())


def test_schema_coerced_parse_roundtrip_over_corpus():
    """Every corpus case's source instance keeps each value's type
    through ``to_xml`` and a parse coerced by its source schema."""
    for case in generate_corpus(11, 36):
        _assert_typed_roundtrip(case.instance, case.mapping.source)


def test_xsd_roundtrip_for_all_scenario_schemas():
    for factory in (
        deptstore.source_schema,
        deptstore.target_schema_departments,
        deptstore.target_schema_grouped_projects,
    ):
        schema = factory()
        assert render_schema(parse_xsd(to_xsd(schema))) == render_schema(schema)


# -- condition language ------------------------------------------------------------------


_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_vars = st.sampled_from(["a", "b2", "proj"])
_segments = st.lists(
    st.sampled_from(["sal", "pname", "@pid", "value"]), min_size=1, max_size=3
)


@st.composite
def conditions(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        var = draw(_vars)
        segments = ".".join(draw(_segments))
        op = draw(_ops)
        literal = draw(st.integers(-99, 99))
        parts.append(f"${var}.{segments} {op} {literal}")
    return " and ".join(parts)


@settings(max_examples=80, deadline=None)
@given(text=conditions())
def test_condition_parser_roundtrips_through_str(text):
    parsed = parse_condition(text)
    assert str(parse_condition(str(parsed))) == str(parsed)


# -- tableaux ---------------------------------------------------------------------------


def test_tableaux_are_closed_under_repeating_ancestors():
    for schema in (deptstore.source_schema(), deptstore.target_schema_departments()):
        for tableau in compute_tableaux(schema):
            ids = {id(e) for e in tableau.generators}
            for generator in tableau.generators:
                for ancestor in generator.path():
                    if ancestor.is_repeating:
                        assert id(ancestor) in ids
