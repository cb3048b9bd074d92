"""Property tests for the tracing layer's determinism contract.

Four families of properties, each tied to a claim in
:mod:`repro.runtime.trace`'s module docstring:

* **structure** — recorded spans strictly nest (every child interval
  lies within its parent's), ids are unique, and parent references
  form a tree (each parent precedes its children in document order);
* **repeatability** — the canonical form is byte-identical across
  repeated runs of the same (mapping, document, engine) triple;
* **equivalence modulo strategy** — ``workers=1``, ``2`` and ``4``
  batch runs produce byte-identical canonical traces (worker-span
  merging is order-insensitive), and ``optimize=True`` vs ``False``
  traces agree outside the ``plan`` subtree;
* **fault accounting** — every failed attempt in a fault-injected run
  appears as exactly one ``error``-kind span, terminal failures and
  retries are marked as such, and dead-letters appear as events.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Transformer
from repro.runtime import (
    BatchRunner,
    Fault,
    FaultInjector,
    PlanCache,
    SpanTracer,
)
from repro.scenarios import deptstore
from repro.xml.model import element

_SCENARIOS = {
    "fig3": deptstore.mapping_fig3,
    "fig6": deptstore.mapping_fig6,
    "fig7": deptstore.mapping_fig7,
}

_DEPT_NAMES = st.sampled_from(["ICT", "Marketing", "Sales"])
_EMP_NAMES = st.sampled_from(["John Smith", "Mark Tane", "Rita Moss"])
_PROJECT_NAMES = st.sampled_from(["Appliances", "Robotics"])
_SALARIES = st.integers(min_value=8000, max_value=15000)
_PIDS = st.integers(min_value=1, max_value=3)


@st.composite
def _dept(draw):
    children = [element("dname", text=draw(_DEPT_NAMES))]
    for _ in range(draw(st.integers(0, 2))):
        children.append(
            element(
                "Proj",
                element("pname", text=draw(_PROJECT_NAMES)),
                pid=draw(_PIDS),
            )
        )
    for _ in range(draw(st.integers(0, 3))):
        children.append(
            element(
                "regEmp",
                element("ename", text=draw(_EMP_NAMES)),
                element("sal", text=draw(_SALARIES)),
                pid=draw(_PIDS),
            )
        )
    return element("dept", *children)


_SOURCE_INSTANCES = st.lists(_dept(), min_size=1, max_size=2).map(
    lambda depts: element("source", *depts)
)


def _traced_run(figure: str, engine: str, instance) -> SpanTracer:
    tracer = SpanTracer()
    Transformer(
        _SCENARIOS[figure](), engine=engine, optimize=True, trace=tracer
    ).apply(instance)
    return tracer


def _check_structure(trace) -> None:
    """Ids unique, parents precede children, child intervals nested."""
    seen: dict[str, dict] = {}
    for span in trace.iter_spans():
        assert span["id"] not in seen, f"duplicate id at {span['path']}"
        seen[span["id"]] = span
        assert span["t1"] >= span["t0"], span["path"]
        if span["parent"] is None:
            continue
        assert span["parent"] in seen, f"dangling parent at {span['path']}"
        parent = seen[span["parent"]]
        assert parent["t0"] <= span["t0"] <= span["t1"] <= parent["t1"], (
            f"child {span['path']} escapes parent {parent['path']} interval"
        )
        assert span["path"].rsplit("/", 1)[0] == parent["path"], (
            f"path of {span['path']} does not extend its parent's"
        )


class TestStructure:
    @pytest.mark.parametrize("engine", ("tgd", "xquery"))
    @pytest.mark.parametrize("figure", sorted(_SCENARIOS))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_SOURCE_INSTANCES)
    def test_spans_strictly_nest(self, figure, engine, instance):
        trace = _traced_run(figure, engine, instance).to_trace()
        _check_structure(trace)

    @settings(max_examples=10, deadline=None)
    @given(instance=_SOURCE_INSTANCES)
    def test_batch_spans_strictly_nest(self, instance):
        tracer = SpanTracer()
        BatchRunner(
            deptstore.mapping_fig6(), cache=PlanCache(), trace=tracer
        ).run([instance, instance])
        _check_structure(tracer.to_trace())


    def test_xslt_batch_attempts_record_an_execute_span(self):
        """XSLT has no internal instrumentation: its plan wraps each
        application in one ``execute`` span, in batch attempts exactly
        as under a traced Transformer."""
        instance = deptstore.source_instance()
        tracer = SpanTracer()
        batch = BatchRunner(
            deptstore.mapping_fig6(), engine="xslt", cache=PlanCache(),
            trace=tracer,
        ).run([instance])
        spans = {span["path"]: span for span in tracer.to_trace().iter_spans()}
        execute = spans["batch/doc[0]/attempt[0]/execute"]
        assert execute["attrs"] == {
            "status": "ok",
            "source_elements": instance.size(),
            "target_elements": batch.results[0].size(),
        }
        direct = {
            span["path"]: span
            for span in _traced_run("fig6", "xslt", instance)
            .to_trace().iter_spans()
        }
        assert direct["transform/execute"]["attrs"] == execute["attrs"]


class TestRepeatability:
    @pytest.mark.parametrize("engine", ("tgd", "xquery", "xslt"))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_SOURCE_INSTANCES)
    def test_canonical_trace_is_byte_identical_across_runs(
        self, engine, instance
    ):
        first = _traced_run("fig6", engine, instance).to_trace()
        second = _traced_run("fig6", engine, instance).to_trace()
        assert first.canonical_json() == second.canonical_json()


def _batch_canonical(workers: int, docs) -> str:
    tracer = SpanTracer()
    batch = BatchRunner(
        deptstore.mapping_fig6(),
        workers=workers,
        cache=PlanCache(),
        trace=tracer,
    ).run(docs)
    assert batch.metrics.failures == 0
    trace = tracer.to_trace()
    assert trace.to_dict() == batch.metrics.trace
    return trace.canonical_json()


class TestEquivalence:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_worker_count_does_not_change_canonical_trace(self, workers):
        """Pool execution merges worker-built span payloads back into
        the parent's tree; document order, attempt order and id
        assignment make the merge order-insensitive, so the canonical
        trace matches the deterministic in-process run byte for byte."""
        docs = [deptstore.source_instance() for _ in range(6)]
        assert _batch_canonical(workers, docs) == _batch_canonical(1, docs)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_SOURCE_INSTANCES)
    def test_optimize_changes_only_the_plan_subtree(self, instance):
        """The join-aware planner is an execution strategy, not a
        semantics change: outside the ``plan`` span (whose levels and
        counters legitimately differ), optimized and naive traces are
        identical — same ids, since the trace seed is the
        optimize-independent base fingerprint."""

        def canonical_without_plan(optimize: bool) -> str:
            tracer = SpanTracer()
            Transformer(
                deptstore.mapping_fig6(), optimize=optimize, trace=tracer
            ).apply(instance)
            trace = tracer.to_trace()

            def strip(spans):
                return [
                    dict(span, children=strip(span["children"]))
                    for span in spans
                    if span["name"] != "plan"
                ]

            doc = trace.canonical_dict()
            doc["spans"] = strip(doc["spans"])
            import json

            return json.dumps(doc, sort_keys=True)

        assert canonical_without_plan(True) == canonical_without_plan(False)


class TestFaultAccounting:
    def _run(self, **kwargs):
        docs = [deptstore.source_instance() for _ in range(4)]
        injector = FaultInjector({
            1: Fault(error="TransientError", attempts=2),
            2: Fault(error="ExecutionError"),
        })
        tracer = SpanTracer()
        batch = BatchRunner(
            deptstore.mapping_fig4(),
            cache=PlanCache(),
            trace=tracer,
            error_policy="collect",
            max_retries=2,
            backoff=0.0,
            injector=injector,
            **kwargs,
        ).run(docs)
        return batch, tracer.to_trace()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_every_failure_and_retry_is_one_error_span(self, workers):
        batch, trace = self._run(workers=workers)
        error_spans = [s for s in trace.iter_spans() if s["kind"] == "error"]
        terminal = [s for s in error_spans if s["attrs"].get("terminal")]
        retried = [s for s in error_spans if s["attrs"].get("retried")]
        dead_letters = [
            s for s in trace.iter_spans() if s["name"] == "dead-letter"
        ]
        # doc 1: two transient failures, retried, third attempt clean.
        # doc 2: one permanent failure, terminal, dead-lettered.
        assert len(batch.failures) == 1
        assert batch.metrics.retries == 2
        assert len(terminal) == len(batch.failures)
        assert len(retried) == batch.metrics.retries
        assert len(dead_letters) == len(batch.dead_letters) == 1
        assert len(error_spans) == len(terminal) + len(retried)
        for span in error_spans:
            assert span["attrs"]["error"] in (
                "TransientError", "ExecutionError",
            )
            assert span["name"].startswith("attempt[")
        _check_structure(trace)

    def test_fault_trace_is_deterministic(self):
        first = self._run(workers=1)[1].canonical_json()
        second = self._run(workers=1)[1].canonical_json()
        assert first == second

    def test_attempt_ordinals_follow_retry_order(self):
        _, trace = self._run(workers=1)
        doc1 = trace.find("doc[1]")
        names = [child["name"] for child in doc1["children"]]
        assert names == ["attempt[0]", "attempt[1]", "attempt[2]"]
        kinds = [child["kind"] for child in doc1["children"]]
        assert kinds == ["error", "error", "span"]
