"""Golden delta records: what :func:`compute_delta` emits, pinned.

``tests/golden/delta_records.json`` holds, for every pair below, each
record's ``op``, ``path``, ``steps``, ``name``, ``value`` (as type name
and ``repr``), ``position``, ``nodes`` and the serialized ``subtree``,
plus the ``truncated`` flag.  The pairs are the first 60 ``delta``-axis
corpus cases of seed 20260809, each diffed against its edit script's
result in both directions, and scripted pairs for every structural
branch of the walk: a tag change, text against children, interleaved
siblings, trailing inserts and removals, a mid-list insertion and
removal and a ``Proj`` inserted among ``regEmp`` siblings (each one
record per moved child), a whole-document replace and truncation at
``max_records`` 1, 2 and 3.  Any change to the records,
their order or their counts shows up here.

To regenerate after an *intentional* change to the delta format::

    CLIP_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_delta_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.generation.corpus import apply_edits, generate_case
from repro.scenarios import deptstore
from repro.xml.diff import apply_delta, compute_delta
from repro.xml.model import XmlElement, element
from repro.xml.serialize import to_xml

GOLDEN = Path(__file__).parent / "golden" / "delta_records.json"

SEED = 20260809
CASES = 60


def _scripted_pairs():
    """``(name, left, right, max_records)`` for each structural branch."""
    base = deptstore.source_instance

    def edited(change):
        right = base()
        change(right)
        return right

    def retag(root):
        root.findall("dept")[0].findall("Proj")[0].find("pname").tag = "title"

    def text_for_children(root):
        dname = root.findall("dept")[0].find("dname")
        dname.clear_text()
        dname.append(element("first", text="Sales"))

    def interleave(root):
        dept = root.findall("dept")[1]
        first = dept.children[0]
        dept.remove(first)
        dept.append(first)

    def trailing_insert(root):
        dept = root.findall("dept")[0]
        dept.append(element("regEmp", element("ename", text="New Hire"),
                            element("sal", text=10000), pid=1))
        dept.append(element("Proj", element("pname", text="Extra"), pid=9))

    def trailing_remove(root):
        dept = root.findall("dept")[-1]
        dept.remove(dept.findall("regEmp")[-1])
        dept.remove(dept.findall("Proj")[-1])

    def mid_insert(root):
        dept = root.findall("dept")[0]
        dept.insert(4, element("regEmp", element("ename", text="New Hire"),
                               element("sal", text=10000), pid=2))

    def mid_remove(root):
        dept = root.findall("dept")[0]
        dept.remove(dept.findall("regEmp")[1])

    def cross_tag_insert(root):
        dept = root.findall("dept")[0]
        dept.insert(5, element("Proj", element("pname", text="Extra"), pid=9))

    def scattered(root):
        for dept in root.findall("dept"):
            dept.find("dname").set_attribute("code", "x")
            pname = dept.findall("Proj")[-1].find("pname")
            pname.clear_text()
            pname.set_text("renamed")
            dept.remove(dept.findall("regEmp")[-1])

    pairs = [
        ("tag-change", base(), edited(retag), 10000),
        ("text-vs-children", base(), edited(text_for_children), 10000),
        ("children-vs-text", edited(text_for_children), base(), 10000),
        ("interleaved-siblings", base(), edited(interleave), 10000),
        ("trailing-insert", base(), edited(trailing_insert), 10000),
        ("trailing-remove", base(), edited(trailing_remove), 10000),
        ("mid-list-insert", base(), edited(mid_insert), 10000),
        ("mid-list-remove", base(), edited(mid_remove), 10000),
        ("cross-tag-insert", base(), edited(cross_tag_insert), 10000),
        ("whole-document", element("a", element("x", text=1)),
         element("b", element("y", text=2)), 10000),
        ("attribute-add-and-drop", element("r", element("x", k=1, j=2)),
         element("r", element("x", j=3, m="new")), 10000),
    ]
    pairs += [(f"truncated-at-{limit}", base(), edited(scattered), limit)
              for limit in (1, 2, 3)]
    return pairs


def _pairs():
    for index in range(CASES):
        case = generate_case(SEED, "delta", index)
        edited = apply_edits(case.instance, case.params["edits"])
        yield f"{case.case_id}-forward", case.instance, edited, 10000
        yield f"{case.case_id}-backward", edited, case.instance, 10000
    yield from _scripted_pairs()


def _value(value):
    return None if value is None else [type(value).__name__, repr(value)]


def _record(record) -> dict:
    return {
        "op": record.op,
        "path": record.path,
        "steps": [list(step) for step in record.steps],
        "name": record.name,
        "value": _value(record.value),
        "position": record.position,
        "nodes": record.nodes,
        "subtree": None if record.subtree is None else to_xml(record.subtree),
    }


def _recorded() -> dict:
    out = {}
    for name, left, right, limit in _pairs():
        delta = compute_delta(left, right, max_records=limit)
        out[name] = {"truncated": delta.truncated,
                     "records": [_record(r) for r in delta.records]}
    return out


def test_delta_records_match_the_golden_file():
    actual = _recorded()
    if os.environ.get("CLIP_UPDATE_GOLDEN"):
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        pytest.skip(f"updated {GOLDEN.name}")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_every_untruncated_golden_pair_round_trips():
    for name, left, right, limit in _pairs():
        delta = compute_delta(left, right, max_records=limit)
        if not delta.truncated:
            assert to_xml(apply_delta(left, delta)) == to_xml(right), name


def test_equal_deep_chains_give_the_empty_delta():
    def chain():
        root = node = XmlElement("a")
        for _ in range(4999):
            node = node.append(XmlElement("a", attributes={"k": 1}))
        node.set_text("leaf")
        return root

    delta = compute_delta(chain(), chain())
    assert delta.is_empty
    assert delta.records == ()
