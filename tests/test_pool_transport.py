"""What crosses the worker-pool boundary: documents pickle flat (any
depth, same bytes as in-process), and a finished pool leaves no worker
process or manager thread behind.

Worker counts honor ``CLIP_TEST_WORKERS`` so the CI matrix re-runs the
pool cases at 2 and 4 workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures.process import _ExecutorManagerThread

import pytest

from repro.generation import generate_corpus
from repro.runtime import BatchRunner, PlanCache
from repro.scenarios import deptstore
from repro.xml.model import element
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml

WORKERS = max(2, int(os.environ.get("CLIP_TEST_WORKERS", "2")))

#: Deeper than pickle's recursion limit allows a nested tree to be.
DEPTH = 3000


def _typed_nodes(tree):
    """Every node's tag, attributes and text, each value with its type."""
    return [
        (
            node.tag,
            [(name, type(value), value) for name, value in node.attributes.items()],
            (type(node.text), node.text),
        )
        for node in tree.iter()
    ]


def _assert_parents(root):
    assert root.parent is None
    for node in root.iter():
        assert getattr(node, "_index", None) is None
        for child in node:
            assert child.parent is node


def test_pickle_roundtrip_over_corpus():
    for case in generate_corpus(11, 36):
        restored = pickle.loads(pickle.dumps(case.instance))
        assert restored == case.instance
        assert _typed_nodes(restored) == _typed_nodes(case.instance)
        assert to_xml(restored) == to_xml(case.instance)
        _assert_parents(restored)


def test_pickled_subtree_is_detached_like_a_copy():
    tree = element("r", element("a", element("b", text=1), k="v"), element("c"))
    restored = pickle.loads(pickle.dumps(tree.find("a")))
    assert restored == tree.find("a") and restored.parent is None
    _assert_parents(restored)
    assert pickle.loads(pickle.dumps(element("leaf", text=2.5))).text == 2.5


def _deep_document():
    """A Figure 7 source with an undeclared ``DEPTH``-deep chain."""
    text = to_xml(deptstore.source_instance())
    opening = text.index(">") + 1
    chain = "<x>" * DEPTH + "</x>" * DEPTH
    return parse_xml(text[:opening] + chain + text[opening:],
                     schema=deptstore.source_schema())


def test_deep_document_round_trips_pickle():
    doc = _deep_document()
    restored = pickle.loads(pickle.dumps(doc))
    assert to_xml(restored) == to_xml(doc)
    _assert_parents(restored)


@pytest.mark.parametrize("policy", ["fail_fast", "collect"])
def test_deep_document_runs_in_the_pool(policy):
    docs = [_deep_document(), deptstore.source_instance()]
    mapping = deptstore.mapping_fig7()
    inline = BatchRunner(mapping, cache=PlanCache(), error_policy=policy).run(docs)
    pooled = BatchRunner(
        mapping, workers=WORKERS, cache=PlanCache(), error_policy=policy
    ).run(docs)
    assert pooled.failures == [] and len(pooled) == len(docs)
    assert [to_xml(r) for r in pooled] == [to_xml(r) for r in inline]


def test_finished_pool_leaves_no_workers_or_manager_thread():
    docs = [deptstore.source_instance() for _ in range(4)]
    result = BatchRunner(
        deptstore.mapping_fig4(), workers=WORKERS, cache=PlanCache()
    ).run(docs)
    assert len(result) == len(docs)
    assert multiprocessing.active_children() == []
    assert not [
        thread for thread in threading.enumerate()
        if isinstance(thread, _ExecutorManagerThread)
    ]
