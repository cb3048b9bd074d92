"""Service requests leave nothing for the garbage collector.

One transform maps one source instance to one target instance (the
paper's Section VI contract), so nothing a request parses or builds
outlives its response.  Every transform handler dismantles its trees
with :meth:`XmlElement.release` once the body is rendered; an intact
tree is a reference cycle (parent pointers, the root's document index)
that only a full collection would free.

Each request runs in-process with the collector disabled and
``gc.DEBUG_SAVEALL`` set, so ``gc.collect()`` afterwards keeps whatever
only the collector could reclaim in ``gc.garbage``.
"""

from __future__ import annotations

import gc
import json

import pytest

import tests.test_service as service_tests
from repro.scenarios import deptstore
from repro.xml.model import XmlElement
from repro.xml.serialize import to_xml


def _collector_garbage(service, path: str, body: bytes) -> tuple:
    """Dispatch one POST (after one untimed warm-up of the same request)
    and return ``(response, objects only the collector reclaims,
    XmlElements among them)``."""
    service.dispatch("POST", path, {}, body)
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        response = service.dispatch("POST", path, {}, body)
        unreachable = gc.collect()
        elements = sum(isinstance(obj, XmlElement) for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert response.status == 200, response.body
    return response, unreachable, elements


@pytest.fixture
def service():
    return service_tests.make_service()


@pytest.fixture
def source_xml():
    return to_xml(deptstore.source_instance())


@pytest.mark.parametrize("figure", ["mapping_fig3", "mapping_fig6",
                                    "mapping_fig7"])
def test_transform_leaves_no_garbage(service, source_xml, figure):
    fp = service_tests.register(service, getattr(deptstore, figure)())
    _, unreachable, elements = _collector_garbage(
        service, f"/transform?mapping={fp}", source_xml.encode()
    )
    assert elements == 0
    assert unreachable == 0


def test_composed_transform_leaves_no_garbage(service):
    m_ab, m_bc, _ = service_tests.TestCompose._chain()
    fp_ab = service_tests.register(service, m_ab)
    fp_bc = service_tests.register(service, m_bc)
    composed = service.dispatch(
        "POST", "/mappings/compose", {},
        json.dumps({"first": fp_ab, "second": fp_bc}).encode(),
    )
    fp = json.loads(composed.body)["fingerprint"]
    _, unreachable, elements = _collector_garbage(
        service, f"/transform?mapping={fp}",
        service_tests.TestCompose._source_xml().encode(),
    )
    assert elements == 0
    assert unreachable == 0


def test_batch_transform_leaves_no_xml_garbage(service, source_xml):
    fp = service_tests.register(service, deptstore.mapping_fig7())
    body = json.dumps({"mapping": fp, "documents": [source_xml] * 3})
    response, _, elements = _collector_garbage(
        service, "/transform/batch", body.encode()
    )
    assert json.loads(response.body)["succeeded"] == 3
    assert elements == 0


@pytest.mark.parametrize("edit", [
    ("Robotics", "Robots"),         # a value edit: the scoped path
    ("<regEmp", "<regEmp"),         # no edit: the unchanged path
    ("</dept>", "<Proj pid=\"9\"><pname>New</pname></Proj></dept>"),
], ids=["value", "unchanged", "structural"])
def test_delta_transform_leaves_no_xml_garbage(service, source_xml, edit):
    fp = service_tests.register(service, deptstore.mapping_fig7())
    first = service.dispatch(
        "POST", f"/transform?mapping={fp}", {}, source_xml.encode()
    )
    base = dict(first.headers)["X-Clip-Request"]
    edited = source_xml.replace(*edit, 1)
    body = json.dumps({"request": base, "document": edited})
    response, _, elements = _collector_garbage(
        service, "/transform/delta", body.encode()
    )
    assert elements == 0
    plain = service.dispatch(
        "POST", f"/transform?mapping={fp}", {}, edited.encode()
    )
    assert response.body == plain.body
