"""The cooperative deadline contract.

Every time budget — a batch document's ``timeout``, a service
request's deadline — is a :class:`repro.runtime.Deadline`, enforced by
:func:`repro.runtime.check_deadline` calls inside the loops the package
owns.  No thread is started to time anything.  This module pins:

* the check sites: under an already-spent deadline each evaluator
  raises ``DocumentTimeout`` from its own loop, not from a wrapper;
* the absence of threads on the timed paths;
* traces: a timed attempt records its engine spans like an untimed one;
* the pool parent's bound: an overrunning batch answers 504 on time and
  its workers stop;
* a Cartesian product stops near its deadline on both tgd paths;
* the failure's ``stage`` of a chained plan that overruns in step 1;
* non-finite budgets as bad input on every surface;
* ``/transform/delta`` running wholly under its deadline;
* retry backoff cut short by the deadline.

Worker counts honor ``CLIP_TEST_WORKERS`` (CI re-runs this module at 2
and 4 workers).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cli import main
from repro.core.tgd_parser import parse_tgd
from repro.errors import DocumentTimeout
from repro.executor import prepare
from repro.executor.engine import TgdPlan
from repro.io import dumps, save
from repro.pipeline import Pipeline
from repro.runtime import (
    BatchRunner,
    Deadline,
    Fault,
    FaultInjector,
    IncrementalSession,
    PlanCache,
    RetryPolicy,
    SpanTracer,
    Trace,
    check_deadline,
    compile_plan,
)
from repro.scenarios import deptstore
from repro.scenarios import publications as pub
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.service import ClipService, ServiceConfig
from repro.xml.diff import compute_delta
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml

_ENV_WORKERS = int(os.environ.get("CLIP_TEST_WORKERS", "1"))
WORKER_COUNTS = sorted({1, _ENV_WORKERS})
NON_FINITE = ("nan", "inf", "1e400")


def _spent() -> Deadline:
    deadline = Deadline(1e-6)
    time.sleep(0.002)
    return deadline


def _checked_in(error: BaseException) -> tuple[str, str]:
    """``(file name, function)`` of the frame that called
    :func:`check_deadline` when ``error`` was raised."""
    frames = []
    tb = error.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        frames.append((os.path.basename(code.co_filename), code.co_name))
        tb = tb.tb_next
    names = [name for _file, name in frames]
    assert names[-1] == "check_deadline", frames
    return frames[-2]


def _docs(count: int = 3) -> list:
    return [
        make_deptstore_instance(
            DeptstoreSpec(departments=2, projects_per_dept=2,
                          employees_per_dept=3, seed=seed)
        )
        for seed in range(count)
    ]


def _service(**overrides) -> ClipService:
    injector = overrides.pop("injector", None)
    return ClipService(
        ServiceConfig.resolve(environ={}, **overrides), injector=injector
    )


def _register(service: ClipService, mapping) -> str:
    response = service.dispatch(
        "POST", "/mappings", {}, dumps(mapping).encode()
    )
    assert response.status in (200, 201), response.body
    return json.loads(response.body)["fingerprint"]


# -- (a) every check site raises from inside --------------------------------


class TestCheckSites:
    def test_parse_xml(self):
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            parse_xml(to_xml(deptstore.source_instance()))
        assert _checked_in(excinfo.value) == ("parser.py", "parse_xml")

    @pytest.mark.parametrize("optimize", [True, False], ids=["codegen", "naive"])
    def test_tgd_plan(self, optimize):
        plan = compile_plan(deptstore.mapping_fig4(), optimize=optimize)
        doc = deptstore.source_instance()
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            plan.run(doc)
        where = _checked_in(excinfo.value)
        if optimize:
            assert where[0] == "<clip-codegen>"
            assert where[1].startswith(("_run_", "_level_"))
        else:
            assert where in {("engine.py", "_run_mapping"),
                             ("engine.py", "_enumerate_raw"),
                             ("engine.py", "_condition_holds")}

    @pytest.mark.parametrize("engine, function", [
        ("xquery", "_flwor"), ("xslt", "process"),
    ])
    def test_xquery_and_xslt(self, engine, function):
        plan = compile_plan(deptstore.mapping_fig4(), engine)
        doc = deptstore.source_instance()
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            plan.run(doc)
        assert _checked_in(excinfo.value) == ("interp.py", function)

    def test_two_stage_chain(self):
        plan = Pipeline([pub.normalize_mapping(), pub.publish_mapping()]).plan()
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            plan.run(pub.feed_instance())
        assert _checked_in(excinfo.value) == ("plan.py", "run")
        assert excinfo.value.stage == 0

    def test_incremental_session_apply(self):
        plan = compile_plan(deptstore.mapping_fig7())
        old = deptstore.source_instance()
        session = IncrementalSession(plan)
        session.transform(old)
        new = old.copy()
        project = new.findall("dept")[0].findall("Proj")[0]
        project.find("pname").set_text("Edited Project")  # a scoped edit
        delta = compute_delta(old, new)
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            session.apply(delta)
        file, function = _checked_in(excinfo.value)
        assert (file, function) in {("incremental.py", "_rekey"),
                                    ("incremental.py", "_build")}
        # The half-advanced session starts over with a full run.
        again, report = session.transform(new)
        assert report.mode == "fallback"
        assert to_xml(again) == to_xml(plan.run(new))

    def test_compute_delta(self):
        old = make_deptstore_instance(DeptstoreSpec(
            departments=80, projects_per_dept=40, employees_per_dept=60,
        ))
        assert old.size() > 20000
        new = old.copy()
        with pytest.raises(DocumentTimeout) as excinfo, _spent():
            compute_delta(old, new)
        assert _checked_in(excinfo.value) == ("diff.py", "compute_delta")


# -- (b) no thread on any timed path ----------------------------------------


class TestNoThreads:
    @pytest.fixture(autouse=True)
    def no_thread_starts(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a timed path started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_transform_under_the_default_deadline(self):
        service = _service()
        assert service.config.deadline is not None
        fp = _register(service, deptstore.mapping_fig3())
        response = service.dispatch(
            "POST", f"/transform?mapping={fp}", {},
            to_xml(deptstore.source_instance()).encode(),
        )
        assert response.status == 200, response.body

    def test_batch_with_a_timeout(self):
        service = _service()
        fp = _register(service, deptstore.mapping_fig3())
        body = {"mapping": fp, "timeout": 5,
                "documents": [to_xml(doc) for doc in _docs()]}
        response = service.dispatch(
            "POST", "/transform/batch", {}, json.dumps(body).encode()
        )
        assert response.status == 200, response.body
        assert json.loads(response.body)["succeeded"] == 3

    def test_batch_runner_with_a_timeout(self):
        batch = BatchRunner(
            deptstore.mapping_fig4(), cache=PlanCache(), timeout=5
        ).run(_docs())
        assert len(batch) == 3


# -- (c) timed traces keep their engine spans -------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_timed_trace_matches_the_untimed_one(workers):
    canonical = []
    for timeout in (None, 5.0):
        batch = BatchRunner(
            deptstore.mapping_fig4(), cache=PlanCache(), workers=workers,
            timeout=timeout, trace=SpanTracer(),
        ).run(_docs())
        trace = Trace.from_dict(batch.metrics.trace)
        canonical.append(trace.canonical_json())
    assert canonical[0] == canonical[1]
    [root] = trace.spans
    attempt = root["children"][0]["children"][0]
    assert attempt["name"] == "attempt[0]"
    assert [span["name"] for span in attempt["children"]] == ["execute"]


# -- (d) the pool parent honors the request deadline -------------------------

#: Allowance past the request deadline for forking the pool and
#: answering: on a 2-vCPU VM the 504 comes at 0.50 s and the workers
#: are gone by 0.52 s.
POOL_SLACK = 2.0


def test_overrunning_pool_batch_answers_504_on_time():
    documents = _docs(4)
    service = _service(
        workers=2,
        injector=FaultInjector(
            {index: Fault(kind="delay", seconds=30.0)
             for index in range(len(documents))}
        ),
    )
    fp = _register(service, deptstore.mapping_fig3())
    body = {"mapping": fp, "workers": 2,
            "documents": [to_xml(doc) for doc in documents]}
    started = time.monotonic()
    response = service.dispatch(
        "POST", "/transform/batch?deadline=0.5", {}, json.dumps(body).encode()
    )
    elapsed = time.monotonic() - started
    assert response.status == 504, response.body
    assert json.loads(response.body)["error"] == "DocumentTimeout"
    assert elapsed < 0.5 + POOL_SLACK
    # The workers' own deadline stops their 30 s delays too.
    stop_by = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < stop_by:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


# -- (e) a Cartesian product stops near its deadline --------------------------

#: ``dept × dept`` under a condition no pair satisfies: all work and no
#: output, so the unbounded run needs little memory.
PRODUCT = (
    "∀ a ∈ source.dept, b ∈ source.dept | "
    "a.dname.value < b.dname.value, b.dname.value < a.dname.value → "
    "∃ d′ ∈ target.department | d′.@name = a.dname.value"
)

#: Departments per path, sized so the unbounded run takes more than ten
#: times the 0.2 s deadline: measured 5.0 s (codegen, 2000 × 2000) and
#: 4.7 s (naive, 700 × 700) on a 2-vCPU VM under CPython 3.11.
PRODUCT_SIZES = {True: 2000, False: 700}

#: The run must stop within this long of starting: the deadline is
#: 0.2 s, and measured stops take 0.20 s (codegen) and 0.21–0.26 s
#: (naive) on the same VM.
PRODUCT_STOP_BOUND = 1.0


@pytest.mark.parametrize("optimize", [True, False], ids=["codegen", "naive"])
def test_cartesian_product_stops_near_its_deadline(optimize):
    size = PRODUCT_SIZES[optimize]
    doc = parse_xml(
        "<source>"
        + "".join(f"<dept><dname>d{i:05d}</dname></dept>" for i in range(size))
        + "</source>"
    )
    plan = prepare(parse_tgd(PRODUCT), optimize=optimize)
    started = time.monotonic()
    with pytest.raises(DocumentTimeout), Deadline(0.2):
        plan.run(doc)
    assert time.monotonic() - started < PRODUCT_STOP_BOUND


# -- a chained plan's timeout names its step ---------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pipeline_timeout_names_its_step(workers, monkeypatch):
    """A step-1 double that loops on :func:`check_deadline` fails the
    document with ``stage == 1``.  The double patches ``TgdPlan`` in
    this process; pool workers inherit it through ``fork``."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the step double reaches pool workers through fork")
    real = TgdPlan.engine_for

    def engine_for(self, source_instance, **kwargs):
        if source_instance.tag == "catalog":  # step 1's input
            while True:
                check_deadline()
        return real(self, source_instance, **kwargs)

    monkeypatch.setattr(TgdPlan, "engine_for", engine_for)
    pipeline = Pipeline([pub.normalize_mapping(), pub.publish_mapping()])
    batch = BatchRunner(
        pipeline.plan(), timeout=0.1, workers=workers, error_policy="collect"
    ).run([pub.feed_instance()])
    [failure] = batch.failures
    assert failure.error == "DocumentTimeout"
    assert failure.timed_out
    assert failure.stage == 1


# -- non-finite budgets are bad input ------------------------------------------


@pytest.mark.parametrize("value", NON_FINITE)
def test_library_rejects_non_finite_budgets(value):
    seconds = float(value)
    with pytest.raises(ValueError):
        Deadline(seconds)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=seconds)
    with pytest.raises(ValueError):
        BatchRunner(deptstore.mapping_fig4(), timeout=seconds)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("configured", [None, 0], ids=["default", "disabled"])
def test_service_answers_400_to_non_finite_budgets(value, configured):
    overrides = {} if configured is None else {"deadline": configured}
    service = _service(**overrides)
    fp = _register(service, deptstore.mapping_fig3())
    source = to_xml(deptstore.source_instance())
    single = service.dispatch(
        "POST", f"/transform?mapping={fp}&deadline={value}", {},
        source.encode(),
    )
    assert single.status == 400, single.body
    envelope = json.dumps({"mapping": fp, "documents": [source]})
    envelope = envelope[:-1] + f', "timeout": {_json_number(value)}}}'
    batch = service.dispatch(
        "POST", "/transform/batch", {}, envelope.encode()
    )
    assert batch.status == 400, batch.body
    assert json.loads(batch.body)["error"] == "ValueError"
    with pytest.raises(ValueError):
        ServiceConfig.resolve(environ={}, deadline=float(value))


def _json_number(value: str) -> str:
    """The JSON token ``json.loads`` reads as ``float(value)``."""
    return {"nan": "NaN", "inf": "Infinity"}.get(value, value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_cli_batch_rejects_non_finite_timeouts(value, tmp_path, capsys):
    mapping_path = tmp_path / "fig4.json"
    save(deptstore.mapping_fig4(), str(mapping_path))
    source = tmp_path / "doc.xml"
    source.write_text(to_xml(deptstore.source_instance()), encoding="utf-8")
    code = main(["batch", str(mapping_path), str(source), "--timeout", value])
    assert code == 2
    assert "--timeout" in capsys.readouterr().err


# -- /transform/delta runs wholly under its deadline ---------------------------


def test_delta_overrun_in_compute_delta_is_a_504(monkeypatch):
    import repro.service.app as app_module

    real = app_module.compute_delta

    def slow_compute_delta(old, new):
        ends = time.monotonic() + 1.0
        while time.monotonic() < ends:
            check_deadline()
            time.sleep(0.01)
        return real(old, new)

    service = _service()
    fp = _register(service, deptstore.mapping_fig3())
    source = deptstore.source_instance()
    base = service.dispatch(
        "POST", f"/transform?mapping={fp}", {}, to_xml(source).encode()
    )
    assert base.status == 200
    source.findall("dept")[0].find("dname").set_text("Edited")
    monkeypatch.setattr(app_module, "compute_delta", slow_compute_delta)
    started = time.monotonic()
    response = service.dispatch(
        "POST", "/transform/delta?deadline=0.1", {},
        json.dumps({
            "request": dict(base.headers)["X-Clip-Request"],
            "document": to_xml(source),
        }).encode(),
    )
    assert response.status == 504, response.body
    doc = json.loads(response.body)
    assert doc["error"] == "DocumentTimeout"
    assert doc["transient"] is True
    assert time.monotonic() - started < 1.0



# -- retry backoff obeys the deadline ------------------------------------------


def test_retry_backoff_stops_at_the_deadline():
    """Backoff before retries 1-3 is 0.05 + 0.1 + 0.2 s: a sleep past a
    0.2 s deadline would answer after 0.35 s."""
    service = _service(injector=FaultInjector(
        {0: Fault(kind="raise", error="TransientError")}
    ))
    fp = _register(service, deptstore.mapping_fig3())
    body = {"mapping": fp, "max_retries": 6,
            "documents": [to_xml(deptstore.source_instance())]}
    started = time.monotonic()
    response = service.dispatch(
        "POST", "/transform/batch?deadline=0.2", {}, json.dumps(body).encode()
    )
    elapsed = time.monotonic() - started
    assert response.status == 504, response.body
    assert json.loads(response.body)["error"] == "DocumentTimeout"
    assert elapsed < 0.3
