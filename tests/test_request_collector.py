"""Service requests run with the cyclic collector paused.

A request leaves nothing only the collector could free
(``tests/test_request_gc.py``), so :meth:`ClipService.dispatch` turns
the collector off while any request is in flight instead of letting it
walk live request trees.  This module pins:

* (a) ``gc.isenabled()`` is the same after ``dispatch`` as before it,
  whether the caller left the collector on or off;
* (b) overlapping requests: the collector stays off until the last one
  leaves, whichever entered first, and many threads leave the in-flight
  count at zero;
* (c) error envelopes (4xx and 500) resume it too;
* (d) a live server behind two keep-alive clients collects again once
  both clients are idle;
* pool workers forked inside a paused request collect again.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import sys
import threading

import pytest

import repro.service.app as app_module
import tests.test_service as service_tests
from repro.scenarios import deptstore
from repro.service import make_server
from repro.xml.serialize import to_xml


class Recorder:
    """An injector that records ``gc.isenabled()`` inside each request."""

    def __init__(self):
        self.seen = []

    def fire(self, index, attempt=0):
        self.seen.append(gc.isenabled())


class Gate:
    """An injector that parks each request until its event is set."""

    def __init__(self):
        self.arrived = threading.Semaphore(0)
        self.events = []

    def fire(self, index, attempt=0):
        event = threading.Event()
        self.events.append(event)
        self.arrived.release()
        assert event.wait(30), "the test never released this request"


class Failing:
    """An injector whose error no status maps: a 500 envelope."""

    def fire(self, index, attempt=0):
        raise RuntimeError("injected")


class WorkerProbe:
    """An injector that writes its pool worker's ``gc.isenabled()`` to
    ``<path>.<index>``."""

    def __init__(self, path):
        self.path = path

    def fire(self, index, attempt=0):
        with open(f"{self.path}.{index}", "w", encoding="utf-8") as handle:
            handle.write(str(gc.isenabled()))


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and leaves it as found."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


@pytest.fixture
def source_xml():
    return to_xml(deptstore.source_instance()).encode()


def _serving(injector):
    service = service_tests.make_service(injector=injector)
    return service, service_tests.register(service, deptstore.mapping_fig3())


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_dispatch_restores_the_callers_collector(source_xml, enabled):
    recorder = Recorder()
    service, fp = _serving(recorder)
    if not enabled:
        gc.disable()
    response = service.dispatch("POST", f"/transform?mapping={fp}", {},
                                source_xml)
    assert response.status == 200, response.body
    assert recorder.seen == [False]
    assert gc.isenabled() is enabled


def test_overlapping_requests_resume_when_the_last_leaves(source_xml):
    gate = Gate()
    service, fp = _serving(gate)
    answers = []

    def post():
        answers.append(service.dispatch(
            "POST", f"/transform?mapping={fp}", {}, source_xml
        ).status)

    first, second = (threading.Thread(target=post) for _ in range(2))
    first.start()
    assert gate.arrived.acquire(timeout=30)
    second.start()
    assert gate.arrived.acquire(timeout=30)
    assert not gc.isenabled()
    # A third request in and out while both are held changes nothing.
    assert service.dispatch("GET", "/health").status == 200
    assert not gc.isenabled()
    gate.events[0].set()  # the first one in leaves first
    first.join(30)
    assert not first.is_alive()
    assert not gc.isenabled()
    gate.events[1].set()
    second.join(30)
    assert not second.is_alive()
    assert answers == [200, 200]
    assert gc.isenabled()


def test_many_threads_leave_the_count_at_zero():
    """Six threads on two cores, switching as often as the interpreter
    allows: a lost update to the in-flight count would leave the
    collector off for good."""
    service = service_tests.make_service()
    statuses = []

    def hammer():
        for _ in range(200):
            statuses.append(service.dispatch("GET", "/health").status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * 1200
    assert app_module._in_flight == 0
    assert gc.isenabled()


def test_error_envelopes_resume_the_collector(source_xml):
    service, fp = _serving(Failing())
    assert service.dispatch("POST", "/transform?mapping=nope", {},
                            source_xml).status == 404
    assert gc.isenabled()
    assert service.dispatch("POST", f"/transform?mapping={fp}", {},
                            b"<not-xml").status == 400
    assert gc.isenabled()
    response = service.dispatch("POST", f"/transform?mapping={fp}", {},
                                source_xml)
    assert response.status == 500, response.body
    assert gc.isenabled()


def test_live_server_collects_once_its_clients_are_idle(source_xml):
    recorder = Recorder()
    service, fp = _serving(recorder)
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    statuses = []

    def client():
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(8):  # one keep-alive connection throughout
                connection.request("POST", f"/transform?mapping={fp}",
                                   body=source_xml)
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            connection.close()

    try:
        clients = [threading.Thread(target=client) for _ in range(2)]
        for each in clients:
            each.start()
        for each in clients:
            each.join(60)
        assert statuses == [200] * 16
        assert recorder.seen == [False] * 16
        assert gc.isenabled()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only a forked worker inherits the parent's paused collector",
)
def test_pool_workers_forked_in_a_request_collect(tmp_path):
    probe = str(tmp_path / "gc")
    service = service_tests.make_service(workers=2, injector=WorkerProbe(probe))
    fp = service_tests.register(service, deptstore.mapping_fig3())
    documents = [to_xml(deptstore.source_instance()) for _ in range(2)]
    response = service.dispatch("POST", "/transform/batch", {}, json.dumps(
        {"mapping": fp, "workers": 2, "documents": documents}
    ).encode())
    assert response.status == 200, response.body
    for index in range(len(documents)):
        with open(f"{probe}.{index}", encoding="utf-8") as handle:
            assert handle.read() == "True"
    assert gc.isenabled()
