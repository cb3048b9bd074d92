"""Fault-tolerant batch execution: policies, retries, timeouts, crashes.

The batch runtime's fault contract (per-document isolation under
``skip``/``collect``, deterministic retry/backoff, per-document
timeouts, single pool rebuild on worker loss) exercised across every
error policy × engine × worker count, driven by the deterministic
:class:`FaultInjector` harness.

Worker counts honor ``CLIP_TEST_WORKERS`` so the CI matrix re-runs the
pool path at 2 and 4 workers; the default run covers the in-process
path plus a 2-worker pool spot check.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DocumentFailureError,
    DocumentTimeout,
    ExecutionError,
    TransientError,
    WorkerSetupError,
)
from repro.runtime import (
    BatchMetrics,
    BatchRunner,
    ErrorPolicy,
    Fault,
    FaultInjector,
    PlanCache,
    Deadline,
    RetryPolicy,
    check_deadline,
    is_transient,
    write_dead_letters,
)
from repro.runtime import batch as batch_module
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.serialize import to_xml

_ENV_WORKERS = int(os.environ.get("CLIP_TEST_WORKERS", "1"))
#: 1 (in-process) plus the matrix-supplied pool width; the default run
#: still exercises the pool once via the dedicated pool tests below.
WORKER_COUNTS = sorted({1, _ENV_WORKERS})

POLICIES = ("fail_fast", "skip", "collect")
ENGINES = ("tgd", "xquery", "xslt")


def _docs(count: int) -> list:
    return [
        make_deptstore_instance(
            DeptstoreSpec(
                departments=1,
                projects_per_dept=1,
                employees_per_dept=2,
                seed=seed,
            )
        )
        for seed in range(count)
    ]


@pytest.fixture(scope="module")
def mapping():
    # Figure 4 is the one scenario all three engines support.
    return deptstore.mapping_fig4()


@pytest.fixture(scope="module")
def documents():
    return _docs(10)


@pytest.fixture(scope="module")
def clean_outputs(mapping, documents):
    """Fault-free reference outputs per engine (workers=1)."""
    return {
        engine: [
            to_xml(result)
            for result in BatchRunner(
                mapping, engine=engine, cache=PlanCache()
            ).run(documents)
        ]
        for engine in ENGINES
    }


# -- the policy × engine × workers matrix -----------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
def test_policy_engine_worker_matrix(
    policy, engine, workers, mapping, documents, clean_outputs
):
    faulted = {2, 5}
    injector = FaultInjector({index: Fault() for index in faulted})
    runner = BatchRunner(
        mapping,
        engine=engine,
        workers=workers,
        cache=PlanCache(),
        error_policy=policy,
        injector=injector,
    )
    if policy == "fail_fast":
        with pytest.raises(DocumentFailureError) as excinfo:
            runner.run(documents)
        assert excinfo.value.failure.index in faulted
        assert excinfo.value.failure.error == "ExecutionError"
        return
    batch = runner.run(documents)
    expected_indices = [
        index for index in range(len(documents)) if index not in faulted
    ]
    assert batch.success_indices == expected_indices
    assert [to_xml(result) for result in batch.results] == [
        clean_outputs[engine][index] for index in expected_indices
    ]
    assert {failure.index for failure in batch.failures} == faulted
    assert batch.metrics.failures == len(faulted)
    assert batch.metrics.documents == len(documents) - len(faulted)
    if policy == "collect":
        assert [letter.failure.index for letter in batch.dead_letters] == sorted(
            faulted
        )
        assert batch.metrics.dead_letter == len(faulted)
    else:
        assert batch.dead_letters == []
        assert batch.metrics.dead_letter == 0


# -- acceptance: 10% faults over 100 documents ------------------------------


@pytest.mark.parametrize("workers", sorted({1, 4, _ENV_WORKERS}))
@pytest.mark.parametrize("engine", ENGINES)
def test_collect_hundred_documents_ten_percent_faults(
    engine, workers, mapping, dead_letter_dir
):
    documents = _docs(100)
    faulted = set(range(5, 100, 10))  # 10 of 100
    injector = FaultInjector({index: Fault() for index in faulted})
    clean = BatchRunner(mapping, engine=engine, cache=PlanCache()).run(
        documents
    )
    batch = BatchRunner(
        mapping,
        engine=engine,
        workers=workers,
        cache=PlanCache(),
        error_policy="collect",
        injector=injector,
    ).run(documents)
    # The run completes, successes byte-identical to the fault-free
    # run's corresponding documents.
    assert [to_xml(result) for result in batch.results] == [
        to_xml(clean.results[index]) for index in batch.success_indices
    ]
    assert batch.metrics.to_dict()["failures"] == 10
    # The dead-letter dir holds exactly the 10 failed inputs.
    directory = dead_letter_dir / f"{engine}-{workers}"
    write_dead_letters(batch.dead_letters, str(directory))
    letters = sorted(p for p in os.listdir(directory) if p.endswith(".xml"))
    assert len(letters) == 10
    assert letters == [f"dead-letter-{index:05d}.xml" for index in sorted(faulted)]
    for index in sorted(faulted):
        written = (directory / f"dead-letter-{index:05d}.xml").read_text(
            encoding="utf-8"
        )
        assert written == to_xml(documents[index])
    manifest = json.loads((directory / "failures.json").read_text("utf-8"))
    assert [entry["index"] for entry in manifest] == sorted(faulted)
    assert all(entry["error"] == "ExecutionError" for entry in manifest)


# -- worker-crash recovery ---------------------------------------------------


def test_killed_worker_one_rebuild_no_lost_documents(mapping, documents):
    injector = FaultInjector({4: Fault(kind="exit", attempts=1)})
    clean = BatchRunner(mapping, cache=PlanCache()).run(documents)
    batch = BatchRunner(
        mapping,
        workers=2,
        cache=PlanCache(),
        error_policy="collect",
        injector=injector,
    ).run(documents)
    assert batch.metrics.pool_rebuilds == 1
    assert batch.metrics.failures == 0
    assert len(batch.results) == len(documents)
    assert [to_xml(result) for result in batch.results] == [
        to_xml(result) for result in clean.results
    ]


def test_worker_killed_on_every_attempt_raises(mapping, documents):
    # attempts=-1: the fault fires on the replay too → second crash →
    # the runner gives up instead of rebuilding forever.
    injector = FaultInjector({4: Fault(kind="exit", attempts=-1)})
    with pytest.raises(ExecutionError):
        BatchRunner(
            mapping,
            workers=2,
            cache=PlanCache(),
            error_policy="collect",
            injector=injector,
        ).run(documents)


# -- retry / backoff / timeout ----------------------------------------------


def test_transient_fault_healed_by_retries(mapping, documents):
    injector = FaultInjector(
        {3: Fault(error="TransientError", attempts=2)}
    )
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        max_retries=2,
        backoff=0.0,
        injector=injector,
    ).run(documents)
    assert batch.metrics.retries == 2
    assert batch.metrics.failures == 0
    assert len(batch.results) == len(documents)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_transient_fault_exhausts_retries(workers, mapping, documents):
    injector = FaultInjector({3: Fault(error="TransientError", attempts=-1)})
    batch = BatchRunner(
        mapping,
        workers=workers,
        cache=PlanCache(),
        error_policy="collect",
        max_retries=2,
        backoff=0.0,
        injector=injector,
    ).run(documents)
    assert batch.metrics.retries == 2
    assert batch.metrics.failures == 1
    [failure] = batch.failures
    assert failure.index == 3
    assert failure.attempts == 3
    assert failure.transient


def test_permanent_error_not_retried(mapping, documents):
    injector = FaultInjector({3: Fault(error="ExecutionError", attempts=-1)})
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        error_policy="collect",
        max_retries=5,
        backoff=0.0,
        injector=injector,
    ).run(documents)
    assert batch.metrics.retries == 0
    [failure] = batch.failures
    assert failure.attempts == 1
    assert not failure.transient


def test_timeout_is_transient_and_counted(mapping, documents):
    injector = FaultInjector({5: Fault(kind="delay", seconds=1.0, attempts=1)})
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        error_policy="collect",
        max_retries=1,
        backoff=0.0,
        timeout=0.1,
        injector=injector,
    ).run(documents)
    # Attempt 0 times out (transient) → retried; attempt 1 runs clean.
    assert batch.metrics.timeouts == 1
    assert batch.metrics.retries == 1
    assert batch.metrics.failures == 0
    assert len(batch.results) == len(documents)


def test_timeout_every_attempt_dead_letters(mapping, documents):
    injector = FaultInjector({5: Fault(kind="delay", seconds=1.0, attempts=-1)})
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        error_policy="collect",
        max_retries=1,
        backoff=0.0,
        timeout=0.05,
        injector=injector,
    ).run(documents)
    assert batch.metrics.timeouts == 2
    [failure] = batch.failures
    assert failure.error == "DocumentTimeout"
    assert failure.timed_out


def test_backoff_schedule_is_deterministic():
    policy = RetryPolicy(max_retries=5, backoff=0.1, backoff_factor=2.0,
                         max_backoff=0.5)
    assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [
        0.1, 0.2, 0.4, 0.5, 0.5,
    ]
    assert RetryPolicy(backoff=0.0).delay(1) == 0.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)


def test_deadline_passthrough_and_overrun():
    with Deadline(None):
        check_deadline()
    with Deadline(5.0):
        check_deadline()
    with pytest.raises(DocumentTimeout), Deadline(0.05):
        while True:
            check_deadline()


def test_transient_classification():
    assert is_transient(TransientError("x"))
    assert is_transient(DocumentTimeout("x"))
    assert is_transient(OSError("x"))
    assert not is_transient(ExecutionError("x"))
    assert not is_transient(ValueError("x"))


# -- fail_fast semantics ------------------------------------------------------


def test_fail_fast_preserves_cause_in_process(mapping, documents):
    injector = FaultInjector({2: Fault()})
    with pytest.raises(DocumentFailureError) as excinfo:
        BatchRunner(mapping, cache=PlanCache(), injector=injector).run(
            documents
        )
    assert isinstance(excinfo.value.__cause__, ExecutionError)
    assert excinfo.value.failure.traceback  # truncated traceback captured


def test_error_policy_coercion():
    assert ErrorPolicy.coerce("collect") is ErrorPolicy.COLLECT
    assert ErrorPolicy.coerce(ErrorPolicy.SKIP) is ErrorPolicy.SKIP
    with pytest.raises(ValueError):
        ErrorPolicy.coerce("explode")
    with pytest.raises(ValueError):
        BatchRunner(deptstore.mapping_fig4(), error_policy="explode")


# -- spawn-importability guard ------------------------------------------------


def test_spawn_guard_names_the_fix(monkeypatch):
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    monkeypatch.delenv("PYTHONPATH", raising=False)
    with pytest.raises(WorkerSetupError) as excinfo:
        batch_module._require_importable_for_spawn(ctx)
    assert "PYTHONPATH" in str(excinfo.value)
    assert "spawn" in str(excinfo.value)


def test_spawn_guard_passes_with_pythonpath(monkeypatch):
    import multiprocessing

    import repro

    package_root = os.path.abspath(
        os.path.join(os.path.dirname(repro.__file__), os.pardir)
    )
    ctx = multiprocessing.get_context("spawn")
    monkeypatch.setenv("PYTHONPATH", package_root)
    batch_module._require_importable_for_spawn(ctx)  # no raise


def test_spawn_guard_wired_into_pool_path(monkeypatch, mapping, documents):
    import multiprocessing

    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.setattr(
        batch_module,
        "_pool_context",
        lambda: multiprocessing.get_context("spawn"),
    )
    with pytest.raises(WorkerSetupError):
        BatchRunner(mapping, workers=2, cache=PlanCache()).run(documents[:2])


def test_fork_path_ignores_guard():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    ctx = multiprocessing.get_context("fork")
    batch_module._require_importable_for_spawn(ctx)  # no raise


# -- fault injector harness ---------------------------------------------------


def test_injector_validates_fault_kind():
    with pytest.raises(ValueError):
        Fault(kind="meltdown")


def test_injector_unknown_error_name_falls_back():
    fault = Fault(error="NoSuchError")
    assert fault.resolve_error() is ExecutionError


# -- metrics v2 ---------------------------------------------------------------


def test_metrics_v2_schema_and_roundtrip(mapping, documents):
    injector = FaultInjector({1: Fault()})
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        error_policy="collect",
        injector=injector,
    ).run(documents)
    doc = batch.metrics.to_dict()
    assert doc["version"] == 2
    assert doc["error_policy"] == "collect"
    assert doc["failures"] == 1
    assert doc["dead_letter"] == 1
    assert doc["retries"] == 0
    assert doc["timeouts"] == 0
    assert doc["pool_rebuilds"] == 0
    parsed = BatchMetrics.from_dict(doc)
    assert parsed.to_dict() == doc
    assert BatchMetrics.from_json(batch.metrics.to_json()).to_dict() == doc


def test_metrics_v1_documents_still_parse():
    v1 = {
        "format": "clip-batch-metrics",
        "version": 1,
        "engine": "tgd",
        "workers": 4,
        "documents": 100,
        "plan_cache": {"hits": 99, "misses": 1, "evictions": 0,
                       "compile_seconds": 0.0004},
        "timings": {"compile_seconds": 0.0004, "execute_seconds": 0.031,
                    "wall_seconds": 0.033},
        "source_elements": 12000,
        "target_elements": 4200,
        "validation_violations": 0,
        "stages": [{"index": 0, "source_root": "source",
                    "target_root": "target", "documents": 100,
                    "execute_seconds": 0.031, "violations": 0}],
    }
    metrics = BatchMetrics.from_dict(v1)
    assert metrics.documents == 100
    assert metrics.failures == 0
    assert metrics.error_policy == "fail_fast"
    # The per-stage breakdown is gone; a document carrying it parses.
    assert "stages" not in metrics.to_dict()
    with pytest.raises(ValueError):
        BatchMetrics.from_dict({"format": "clip-batch-metrics", "version": 99,
                                "engine": "tgd", "workers": 1})
    with pytest.raises(ValueError):
        BatchMetrics.from_dict({"format": "something-else"})


# -- pipeline stage-level propagation ----------------------------------------


@pytest.fixture(scope="module")
def publications_pipeline():
    from repro.pipeline import Pipeline
    from repro.scenarios import publications

    return Pipeline(
        [publications.normalize_mapping(), publications.publish_mapping()]
    )


@pytest.fixture(scope="module")
def feeds():
    from repro.scenarios import publications

    return [publications.feed_instance() for _ in range(4)]


def _with_step_one_double(plan, fail_on=()):
    """``plan`` with step 1 replaced by an in-process test double that
    records every document it receives and raises on the calls
    numbered in ``fail_on``; returns the plan and the call log."""
    from repro.runtime import CompiledPlan
    from repro.runtime.plan import chain_plans

    first, (second, name, attrs) = plan.steps
    calls = []

    def run(doc, trace=None):
        calls.append(doc)
        if len(calls) - 1 in fail_on:
            raise ExecutionError("injected step-1 fault")
        return second.run(doc, trace=trace)

    double = CompiledPlan(second.engine, second.fingerprint, second.tgd,
                          run, target=second.target)
    return chain_plans([first, (double, name, attrs)],
                       fp=plan.fingerprint), calls


def test_pipeline_stage_failure_dead_letters_the_input(
    publications_pipeline, feeds
):
    plan = publications_pipeline.plan()
    clean = BatchRunner(plan, cache=PlanCache()).run(feeds)
    doubled, _ = _with_step_one_double(plan, fail_on={1})
    batch = BatchRunner(
        doubled, cache=PlanCache(), error_policy="collect"
    ).run(feeds)
    assert batch.success_indices == [0, 2, 3]
    assert [to_xml(result) for result in batch.results] == [
        to_xml(clean.results[index]) for index in (0, 2, 3)
    ]
    [failure] = batch.failures
    assert failure.index == 1
    assert failure.stage == 1
    # The dead letter holds the input the runner consumed — the
    # original feed, which replays through the same pipeline.
    [letter] = batch.dead_letters
    assert letter.document.tag == "feed"
    assert to_xml(plan.run(letter.document)) == to_xml(clean.results[1])
    assert batch.metrics.failures == 1
    assert batch.metrics.dead_letter == 1
    assert batch.metrics.documents == 3


def test_pipeline_failed_document_not_fed_downstream(
    publications_pipeline, feeds
):
    plan = publications_pipeline.plan()
    batch = BatchRunner(
        plan,
        cache=PlanCache(),
        error_policy="skip",
        injector=FaultInjector({0: Fault()}),
        workers=_ENV_WORKERS,
    ).run(feeds)
    assert batch.success_indices == [1, 2, 3]
    assert [failure.stage for failure in batch.failures] == [0]
    # Step 1 sees only the three documents that passed step 0.
    doubled, calls = _with_step_one_double(plan)
    BatchRunner(
        doubled, error_policy="skip", injector=FaultInjector({0: Fault()})
    ).run(feeds)
    assert len(calls) == 3


def test_pipeline_fail_fast_reports_stage(publications_pipeline, feeds):
    doubled, _ = _with_step_one_double(
        publications_pipeline.plan(), fail_on={2}
    )
    with pytest.raises(DocumentFailureError) as excinfo:
        BatchRunner(doubled, cache=PlanCache()).run(feeds)
    assert excinfo.value.failure.stage == 1
    assert excinfo.value.failure.index == 2
    with pytest.raises(DocumentFailureError) as excinfo:
        BatchRunner(
            publications_pipeline.plan(), cache=PlanCache(),
            injector=FaultInjector({2: Fault()}), workers=_ENV_WORKERS,
        ).run(feeds)
    assert excinfo.value.failure.stage == 0
    assert excinfo.value.failure.index == 2


# -- property: collect == the fault-free successes, dead letters == faults ---


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(faulted=st.sets(st.integers(min_value=0, max_value=11), max_size=12))
def test_collect_partition_property(faulted, mapping):
    """For any scripted fault pattern: ``collect`` returns exactly the
    successes a fault-free run produces, in order, and the dead-letter
    set equals the injected-fault set."""
    documents = _docs(12)
    clean = BatchRunner(mapping, cache=PlanCache()).run(documents)
    injector = FaultInjector({index: Fault() for index in faulted})
    batch = BatchRunner(
        mapping,
        cache=PlanCache(),
        error_policy="collect",
        injector=injector,
    ).run(documents)
    expected_indices = [
        index for index in range(len(documents)) if index not in faulted
    ]
    assert batch.success_indices == expected_indices
    assert [to_xml(result) for result in batch.results] == [
        to_xml(clean.results[index]) for index in expected_indices
    ]
    assert {letter.failure.index for letter in batch.dead_letters} == set(
        faulted
    )
    assert batch.metrics.failures == len(faulted)
    assert batch.metrics.dead_letter == len(faulted)


# -- CLI flags ----------------------------------------------------------------


class TestCliFaultFlags:
    @pytest.fixture()
    def mapping_file(self, tmp_path):
        from repro.io import save

        path = tmp_path / "mapping.json"
        save(deptstore.mapping_fig4(), str(path))
        return str(path)

    @pytest.fixture()
    def source_files(self, tmp_path):
        paths = []
        for seed in range(3):
            doc = make_deptstore_instance(
                DeptstoreSpec(departments=1, projects_per_dept=1,
                              employees_per_dept=2, seed=seed)
            )
            path = tmp_path / f"src{seed}.xml"
            path.write_text(to_xml(doc), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_collect_run_reports_zero_failures(
        self, mapping_file, source_files, tmp_path, dead_letter_dir, capsys
    ):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        letters = dead_letter_dir / "batch"
        assert main(
            ["batch", mapping_file, *source_files,
             "--error-policy", "collect", "--max-retries", "2",
             "--timeout", "30", "--dead-letter-dir", str(letters),
             "--metrics-json", str(metrics_path)]
        ) == 0
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert doc["version"] == 2
        assert doc["error_policy"] == "collect"
        assert doc["failures"] == 0
        assert doc["documents"] == 3
        # No failures → no dead-letter directory is created.
        assert not letters.exists()

    def test_dead_letter_dir_promotes_policy(self, mapping_file, source_files,
                                             tmp_path, dead_letter_dir):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["batch", mapping_file, *source_files,
             "--dead-letter-dir", str(dead_letter_dir / "batch"),
             "--metrics-json", str(metrics_path)]
        ) == 0
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert doc["error_policy"] == "collect"

    def test_bad_retry_and_timeout_flags_rejected(self, mapping_file,
                                                  source_files):
        from repro.cli import main

        assert main(
            ["batch", mapping_file, source_files[0], "--max-retries", "-1"]
        ) == 2
        assert main(
            ["batch", mapping_file, source_files[0], "--timeout", "0"]
        ) == 2
