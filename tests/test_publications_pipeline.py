"""Tests for the publications scenario and pipeline composition."""

from __future__ import annotations

import os

import pytest

from repro.core.validity import check
from repro.errors import MappingError, ValidationError
from repro.pipeline import Pipeline
from repro.runtime import BatchRunner, PlanCache, SpanTracer, Trace
from repro.scenarios import deptstore, publications as pub
from repro.xml import element
from repro.xml.serialize import to_xml
from repro.xsd.validate import validate


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline([pub.normalize_mapping(), pub.publish_mapping()])


class TestScenario:
    def test_mappings_are_valid(self):
        assert check(pub.normalize_mapping()).is_valid
        assert check(pub.publish_mapping()).is_valid

    def test_feed_conforms(self):
        assert validate(pub.feed_instance(), pub.feed_schema()) == []

    def test_stage1_joins_papers_to_venues(self):
        from repro import Transformer

        out = Transformer(pub.normalize_mapping())(pub.feed_instance())
        publications = out.findall("publication")
        assert len(publications) == 3
        by_title = {p.find("title").text: p for p in publications}
        assert by_title["Clip"].attribute("venue") == "ICDE"
        assert by_title["Nested Mappings"].attribute("venue") == "VLDB"
        assert [w.text for w in by_title["Clip"].findall("writer")] == [
            "Raffio",
            "Braga",
            "Ceri",
        ]

    def test_stage2_inverts_to_authors_with_counts(self):
        from repro import Transformer

        catalog = Transformer(pub.normalize_mapping())(pub.feed_instance())
        report = Transformer(pub.publish_mapping())(catalog)
        by_name = {a.attribute("name"): a for a in report.findall("author")}
        assert by_name["Braga"].attribute("papers") == 2
        assert {w.attribute("title") for w in by_name["Braga"].findall("work")} == {
            "Clip",
            "XQBE",
        }
        assert by_name["Fuxman"].attribute("papers") == 1

    def test_engines_agree_on_both_stages(self):
        from repro.core.compile import compile_clip
        from repro.executor import execute
        from repro.xquery import emit_xquery, run_query

        instance = pub.feed_instance()
        for mapping_factory in (pub.normalize_mapping, pub.publish_mapping):
            clip = mapping_factory()
            tgd = compile_clip(clip)
            source = instance if mapping_factory is pub.normalize_mapping else None
            if source is None:
                from repro import Transformer

                source = Transformer(pub.normalize_mapping())(instance)
            assert execute(tgd, source) == run_query(emit_xquery(tgd), source)


class TestPipeline:
    def test_end_to_end_with_stage_validation(self, pipeline):
        report = pipeline.run(pub.feed_instance(), validate_stages=True)
        assert report.tag == "report"
        assert len(report.findall("author")) == 5

    def test_keep_intermediates(self, pipeline):
        stages = pipeline.run(pub.feed_instance(), keep_intermediates=True)
        assert [s.instance.tag for s in stages] == ["catalog", "report"]
        assert all(s.violations == [] for s in stages)

    def test_callable_shorthand(self, pipeline):
        assert pipeline(pub.feed_instance()).tag == "report"

    def test_describe(self, pipeline):
        text = pipeline.describe()
        assert "stage 0: feed → catalog" in text
        assert "stage 1: catalog → report" in text

    def test_mismatched_stages_rejected(self):
        with pytest.raises(MappingError):
            Pipeline([pub.normalize_mapping(), deptstore.mapping_fig3()])

    def test_mismatch_error_names_both_stages(self):
        """Regression for the single-render refactor of the adjacency
        check: the error message must still name both stages' schemas
        and positions."""
        with pytest.raises(MappingError) as excinfo:
            Pipeline([pub.normalize_mapping(), deptstore.mapping_fig3()])
        message = str(excinfo.value)
        assert "stage 0 produces schema 'catalog'" in message
        assert "stage 1 consumes 'source'" in message

    def test_adjacency_check_renders_shared_schema_once(self, monkeypatch):
        """A schema object shared between adjacent stages (stage 0's
        target handed to stage 1 as its source) is rendered once, not
        once per comparison."""
        import repro.pipeline as pipeline_module
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import STRING

        mid = schema(
            elem("mid", elem("item", "[0..*]", elem("label", text=STRING)))
        )
        out = schema(
            elem("out", elem("entry", "[0..*]", attr("label", STRING)))
        )
        first = ClipMapping(deptstore.source_schema(), mid)
        first.build("dept", "item", var="d")
        first.value("dept/dname/value", "item/label/value")
        second = ClipMapping(mid, out)  # the same `mid` object
        second.build("item", "entry", var="i")
        second.value("item/label/value", "entry/@label")

        calls = []
        real_render = pipeline_module.render_schema

        def counting_render(s):
            calls.append(id(s))
            return real_render(s)

        monkeypatch.setattr(pipeline_module, "render_schema", counting_render)
        Pipeline([first, second])
        assert calls == [id(mid)]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(MappingError):
            Pipeline([])

    def test_stage_validation_failure_raises(self):
        """Feed with no papers: stage 1 emits an empty catalog (valid),
        stage 2 then emits an empty report (valid) — craft a real
        violation instead via an instance missing mandatory content."""
        bad_stage = Pipeline([pub.normalize_mapping()])
        empty_feed = element(
            "feed",
            element("venue", element("vname", text="X"), element("year", text=1), vid=1),
        )
        # Empty output: catalog allows zero publications → still valid.
        out = bad_stage.run(empty_feed, validate_stages=True)
        assert out.findall("publication") == []

    def test_xquery_engine_pipeline(self):
        via_xquery = Pipeline(
            [pub.normalize_mapping(), pub.publish_mapping()], engine="xquery"
        )
        assert via_xquery(pub.feed_instance()) == Pipeline(
            [pub.normalize_mapping(), pub.publish_mapping()]
        )(pub.feed_instance())


#: The pool width of the pipeline-batch tests; CI's pool-path legs set
#: it to 2 and 4, the default run stays in-process.
_WORKERS = int(os.environ.get("CLIP_TEST_WORKERS", "1"))


def _feeds(count):
    return [pub.feed_instance() for _ in range(count)]


class TestPipelineBatch:
    """A pipeline batch is ``BatchRunner(pipeline.plan(), …)``."""

    @pytest.fixture(params=[False, True], ids=["unfused", "fused"])
    def either(self, request):
        return Pipeline([pub.normalize_mapping(), pub.publish_mapping()],
                        fuse=request.param)

    def test_batch_matches_sequential_runs(self, pipeline):
        feeds = _feeds(4)
        batch = BatchRunner(
            pipeline.plan(), cache=PlanCache(), workers=_WORKERS
        ).run(feeds)
        assert batch.results == [pipeline(feed) for feed in feeds]

    def test_batch_metrics_count_the_chain(self, pipeline):
        feeds = _feeds(3)
        batch = BatchRunner(
            pipeline.plan(), cache=PlanCache(), validate=True,
            workers=_WORKERS,
        ).run(feeds)
        metrics = batch.metrics
        assert metrics.documents == 3
        assert metrics.validation_violations == 0
        assert metrics.source_elements == sum(f.size() for f in feeds)
        assert metrics.target_elements == sum(r.size() for r in batch)
        doc = metrics.to_dict()
        assert "stages" not in doc
        # The runner was handed the plan: no cache retrieval, and
        # nothing compiled.
        assert doc["plan_cache"]["misses"] == 0
        assert doc["plan_cache"]["hits"] == 0

    def test_batch_with_workers_matches(self, pipeline):
        feeds = _feeds(4)
        sequential = BatchRunner(pipeline.plan(), cache=PlanCache()).run(feeds)
        parallel = BatchRunner(
            pipeline.plan(), workers=max(2, _WORKERS), cache=PlanCache()
        ).run(feeds)
        assert sequential.results == parallel.results

    def test_batch_is_byte_identical_to_run(self, either):
        feeds = _feeds(4)
        batch = BatchRunner(either.plan(), workers=_WORKERS).run(feeds)
        assert [to_xml(result) for result in batch] == [
            to_xml(either.run(feed)) for feed in feeds
        ]

    def test_batch_trace_is_worker_count_independent(self, either):
        feeds = _feeds(3)
        canonical = []
        for workers in (1, 2):
            batch = BatchRunner(
                either.plan(), workers=workers, trace=SpanTracer()
            ).run(feeds)
            trace = Trace.from_dict(batch.metrics.trace)
            canonical.append(trace.canonical_json())
        assert canonical[0] == canonical[1]
        [root] = trace.spans
        assert root["name"] == "batch"
        assert [doc["name"] for doc in root["children"]] == [
            "doc[0]", "doc[1]", "doc[2]"
        ]
        [attempt] = root["children"][0]["children"]
        assert attempt["name"] == "attempt[0]"
        step = "fused" if either.fuse else "stage"
        assert [span["name"] for span in attempt["children"]] == [
            f"{step}[0]", f"{step}[1]"
        ]

    def test_pool_submits_one_task_per_document(self, either, monkeypatch):
        import concurrent.futures
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        initargs, submitted = [], []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initargs.append(kwargs["initargs"])
                super().__init__(*args, **kwargs)

            def submit(self, fn, task, *args, **kwargs):
                submitted.append(task[0])
                return super().submit(fn, task, *args, **kwargs)

        # The pool path imports its executor class when it runs.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        feeds = _feeds(5)
        batch = BatchRunner(either.plan(), workers=2).run(feeds)
        assert len(batch) == 5
        assert sorted(submitted) == list(range(5))
        # One pool, one pickled plan description holding both steps.
        [(payload, *_)] = initargs
        assert len(pickle.loads(payload)) == 2
