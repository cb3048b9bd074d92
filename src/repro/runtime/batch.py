"""Batch execution: fan a stream of documents across worker processes.

The runtime's contract, in order of importance:

* **plan reuse** — the once-per-mapping work (validity, tgd
  compilation, engine-artifact emission) happens exactly once per
  ``(mapping, engine)`` via the plan cache, however many documents
  run; every document application is one cache retrieval plus one
  evaluation;
* **determinism** — results come back in input order, and
  ``workers=N`` produces byte-for-byte the instances ``workers=1``
  does (the engines are pure functions of plan × document);
* **fault isolation** — partial failure is the normal case: one
  malformed document, one engine error, one timed-out evaluation or
  one crashed worker affects only that document (under
  ``error_policy="skip"``/``"collect"``) or aborts with a full
  failure record (``"fail_fast"``).  Transient failures are retried
  on a deterministic backoff schedule; a crashed pool is rebuilt once
  and the in-flight documents replayed — successful results stay
  byte-identical to a fault-free run;
* **observability** — every run yields a :class:`BatchMetrics` report
  (documents, failures, retries, timeouts, dead-letter counts, cache
  hits/misses, compile/execute/wall seconds, violations) ready for
  ``--metrics-json``.

``workers=1`` runs in-process (no pickling, no pool, streaming over
any iterator).  ``workers>1`` ships the plan's description — per step,
the *compiled tgd* and its generated source — to each worker once
(pool initializer); workers re-emit only their engine artifacts, and
the parent reassembles results in input order.  A pipeline is one plan
(:meth:`repro.pipeline.Pipeline.plan`), so a worker runs every stage
of its document.  The ``fork`` start method is preferred where
available; when only ``spawn`` exists the runner checks eagerly that a
child interpreter could import ``repro`` (``PYTHONPATH=src`` or an
installed package) and raises :class:`repro.errors.WorkerSetupError`
naming the fix instead of letting the pool die with an opaque
traceback.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..core.mapping import ClipMapping
from ..errors import (
    DocumentFailureError,
    DocumentTimeout,
    ReproError,
    WorkerCrashError,
    WorkerSetupError,
)
from ..executor.planner import OPTIMIZE_ENV
from ..settings import boolean, resolve_setting
from ..xml.model import XmlElement
from .cache import PlanCache, default_cache
from .faults import DeadLetter, DocumentFailure, ErrorPolicy, FaultInjector
from .metrics import BatchMetrics
from .plan import ENGINES, CompiledPlan, plan_from_description
from .retry import Deadline, RetryPolicy, active_deadline, check_deadline
from .trace import event_payload, shift_payload

#: A worker task: (document index, attempt number, document).
Task = tuple

#: A worker record: ("ok", index, attempt, result, seconds) or
#: ("err", index, attempt, DocumentFailure, seconds) — plus, when the
#: run is traced, a sixth element holding the attempt's serialized
#: span payload (see :mod:`repro.runtime.trace`).
Record = tuple


def _attempt(
    plan: CompiledPlan,
    doc: XmlElement,
    index: int,
    attempt: int,
    injector: Optional[FaultInjector],
    timeout: Optional[float],
    traced: bool,
) -> tuple[Record, Optional[BaseException]]:
    """One attempt at one document, in-process or in a pool worker.

    Returns the attempt's :data:`Record` (failures become
    :class:`DocumentFailure` records, so the parent settles both paths
    uniformly) and, on failure, the raised exception — which only the
    in-process caller can use, to chain it under ``fail_fast``.

    The evaluation runs under ``with Deadline(timeout)``, nested in any
    enclosing deadline, so an overrun raises ``DocumentTimeout`` from
    the engine's own checks.  ``traced`` builds an ``attempt[k]`` span
    around the evaluation and its engine spans (an ``error`` span on
    failure, carrying the failure triage) and appends its serialized
    payload to the record; the parent grafts it under the right
    ``doc[i]`` span, so worker counts never change the canonical tree.
    """
    scratch = span = None
    if traced:
        from .trace import SpanTracer

        scratch = SpanTracer()
        span = scratch.begin(f"attempt[{attempt}]")
    started = time.perf_counter()
    try:
        with Deadline(timeout):
            if injector is not None:
                injector.fire(index, attempt)
            result = plan.run(doc, trace=scratch)
    except Exception as exc:
        failure = DocumentFailure.from_exception(
            index, exc, attempts=attempt + 1
        )
        record: Record = ("err", index, attempt, failure,
                          time.perf_counter() - started)
        if span is not None:
            span.kind = "error"
            scratch.end(
                span, status="error", error=failure.error,
                message=failure.message, transient=failure.transient,
                timed_out=failure.timed_out,
            )
            record += (span.to_payload(),)
        return record, exc
    record = ("ok", index, attempt, result, time.perf_counter() - started)
    if span is not None:
        scratch.end(span, status="ok")
        record += (span.to_payload(),)
    return record, None


# -- worker-process side ----------------------------------------------------

_WORKER_PLAN: Optional[CompiledPlan] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None
_WORKER_TIMEOUT: Optional[float] = None
_WORKER_TRACE: bool = False


def _init_worker(
    plan_bytes: bytes,
    injector_bytes: bytes,
    timeout: Optional[float],
    trace: bool = False,
) -> None:
    """Pool initializer: rebuild the plan once per worker from its
    pickled :meth:`~repro.runtime.plan.CompiledPlan.description`.

    For optimized tgd steps the description carries the generated
    *source* and each worker re-materializes its closures with one
    ``compile()``/``exec`` — the deterministic-emission contract lets
    the worker verify the cached source against its own plan.  A worker
    forked inside a service request inherits its paused collector;
    result trees are cycles until pickled, so it collects again.
    """
    global _WORKER_PLAN, _WORKER_INJECTOR, _WORKER_TIMEOUT, _WORKER_TRACE
    gc.enable()
    _WORKER_PLAN = plan_from_description(pickle.loads(plan_bytes))
    _WORKER_INJECTOR = pickle.loads(injector_bytes) if injector_bytes else None
    _WORKER_TIMEOUT = timeout
    _WORKER_TRACE = trace


def _run_task(task: Task) -> Record:
    """Apply the worker's plan to one task; never raises.

    (A scripted ``exit`` fault bypasses this via ``os._exit``, which is
    the point: it simulates a crash.)
    """
    index, attempt, doc = task
    assert _WORKER_PLAN is not None, "worker initializer did not run"
    return _attempt(
        _WORKER_PLAN, doc, index, attempt, _WORKER_INJECTOR,
        _WORKER_TIMEOUT, _WORKER_TRACE,
    )[0]


# -- parent side ------------------------------------------------------------


class BatchResult:
    """The ordered results of a batch run plus its metrics report.

    ``results`` holds the *successful* outputs in input order;
    ``success_indices`` maps each back to its input position.  Under
    ``error_policy="skip"``/``"collect"``, ``failures`` carries one
    :class:`DocumentFailure` per failed document, and — for
    ``"collect"`` only — ``dead_letters`` pairs each failure with the
    failed input document, ready for
    :func:`repro.runtime.faults.write_dead_letters`.
    """

    __slots__ = ("results", "metrics", "failures", "dead_letters",
                 "success_indices")

    def __init__(
        self,
        results: list[XmlElement],
        metrics: BatchMetrics,
        *,
        failures: Optional[list[DocumentFailure]] = None,
        dead_letters: Optional[list[DeadLetter]] = None,
        success_indices: Optional[list[int]] = None,
    ):
        self.results = results
        self.metrics = metrics
        self.failures = failures if failures is not None else []
        self.dead_letters = dead_letters if dead_letters is not None else []
        self.success_indices = (
            success_indices
            if success_indices is not None
            else list(range(len(results)))
        )

    def reindex(
        self,
        positions: Sequence[int],
        failures: Sequence[DocumentFailure] = (),
        dead_letters: Sequence[DeadLetter] = (),
    ) -> "BatchResult":
        """Re-express the runner's document indices as input positions.

        ``positions[i]`` is the input position of the runner's document
        ``i``.  ``failures`` and ``dead_letters`` — already at input
        positions, such as :func:`parse_documents`' — are folded into
        the result's and counted into its metrics.  Returns ``self``.
        """
        for failure in self.failures:
            failure.index = positions[failure.index]
        self.success_indices = [positions[i] for i in self.success_indices]
        if failures:
            self.failures = sorted(
                [*self.failures, *failures], key=lambda f: f.index
            )
            self.metrics.failures += len(failures)
        if dead_letters:
            self.dead_letters = sorted(
                [*self.dead_letters, *dead_letters],
                key=lambda letter: letter.failure.index,
            )
            self.metrics.dead_letter += len(dead_letters)
        return self

    def __iter__(self) -> Iterator[XmlElement]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self) -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        return (
            f"BatchResult({len(self.results)} documents{failed}, "
            f"engine={self.metrics.engine!r}, workers={self.metrics.workers})"
        )


class ParsedDocuments:
    """The outcome of :func:`parse_documents`: the documents that parsed,
    the input position of each, and the parse failures (plus, under
    ``collect``, their dead letters) at their input positions."""

    __slots__ = ("documents", "positions", "failures", "dead_letters")

    def __init__(self) -> None:
        self.documents: list[XmlElement] = []
        self.positions: list[int] = []
        self.failures: list[DocumentFailure] = []
        self.dead_letters: list[DeadLetter] = []


def parse_documents(
    sources: Iterable[Any],
    parse: Callable[[str], XmlElement],
    error_policy: Union[ErrorPolicy, str],
    *,
    read: Optional[Callable[[Any], str]] = None,
) -> ParsedDocuments:
    """Parse every input with per-document isolation.

    Each source is XML text, or whatever ``read`` turns into text (the
    CLI passes file paths).  Under ``skip``/``collect`` an input that
    cannot be read or parsed becomes a permanent
    :class:`DocumentFailure` at its input position instead of aborting
    the batch, and ``collect`` dead-letters its raw text (empty when
    it could not be read); under ``fail_fast`` the error propagates.
    A parse that overruns the enclosing :class:`Deadline` raises
    :class:`~repro.errors.DocumentTimeout` under every policy: the
    request is out of time, not the document at fault.

    Feed :attr:`ParsedDocuments.documents` to a :class:`BatchRunner`
    and hand the rest to :meth:`BatchResult.reindex`.
    """
    policy = ErrorPolicy.coerce(error_policy)
    parsed = ParsedDocuments()
    for position, source in enumerate(sources):
        text = ""
        try:
            text = source if read is None else read(source)
            document = parse(text)
        except (OSError, ReproError) as exc:
            if policy is ErrorPolicy.FAIL_FAST or isinstance(
                exc, DocumentTimeout
            ):
                raise
            failure = DocumentFailure.from_exception(position, exc)
            parsed.failures.append(failure)
            if policy is ErrorPolicy.COLLECT:
                parsed.dead_letters.append(DeadLetter(failure, text))
        else:
            parsed.documents.append(document)
            parsed.positions.append(position)
    return parsed


def _pool_context():
    import multiprocessing  # loaded on the pool path only (see _run_pool)

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _require_importable_for_spawn(ctx) -> None:
    """Fail fast, with the fix, when ``spawn`` children cannot import us.

    A ``spawn`` child is a fresh interpreter: it sees ``PYTHONPATH``
    and the standard site directories, not the parent's ``sys.path``
    mutations.  When :mod:`repro` lives outside both (the usual
    in-repo layout under ``src/``), the pool would die with an opaque
    ``ImportError`` traceback; raise a named error instead.
    """
    if ctx.get_start_method() != "spawn":
        return
    import sysconfig

    package_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    )
    candidates = {
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    }
    paths = sysconfig.get_paths()
    for key in ("purelib", "platlib"):
        if key in paths:
            candidates.add(os.path.abspath(paths[key]))
    if package_root not in candidates:
        raise WorkerSetupError(
            "workers>1 uses the 'spawn' start method on this platform, and "
            "spawn children re-import 'repro' in a fresh interpreter — but "
            f"{package_root} is on neither PYTHONPATH nor site-packages, so "
            "the pool would fail with an opaque ImportError. Fix: export "
            f"PYTHONPATH={package_root} (PYTHONPATH=src from the repository "
            "root) or install the package."
        )


def _attach_doc_spans(tracer, span_log: dict) -> None:
    """Build ``doc[i]`` spans from the collected attempt payloads.

    Documents are emitted in input order and attempts in attempt order,
    whatever order the pool completed them in — this, plus the
    payloads being built by the same :func:`_attempt` on both
    paths, is what makes the canonical trace worker-count-independent.
    Each doc span is widened to cover its (re-based) attempts so the
    Chrome rendering nests sensibly.
    """
    for index in sorted(span_log):
        attempts = span_log[index]
        span = tracer.begin(f"doc[{index}]", index=index)
        for attempt in sorted(attempts):
            tracer.attach(attempts[attempt])
        tracer.end(span)
        for child in span.children:
            span.expand(child.t0, child.t1)


class BatchRunner:
    """Apply one mapping to many documents, reusing the compiled plan.

    Parameters
    ----------
    mapping:
        The Clip mapping to apply, or an already-built
        :class:`CompiledPlan` (a fused composition or a whole pipeline,
        which have no Clip mapping behind them).  A handed plan is used
        as is: it supplies the engine, ``optimize``, the fingerprint,
        the trace seed and the target schema, and the runner makes no
        cache lookup for it.
    engine:
        ``"tgd"`` (default), ``"xquery"`` or ``"xslt"``.
    workers:
        Degree of process fan-out; ``1`` (default) runs in-process.
    cache:
        The :class:`PlanCache` to retrieve plans from; defaults to the
        process-wide cache, so runners share compiled plans.
    validate:
        Validate every result against the mapping's target schema and
        count violations into the metrics.
    error_policy:
        ``"fail_fast"`` (default — first terminal failure raises
        :class:`DocumentFailureError`), ``"skip"`` (drop failed
        documents, count them) or ``"collect"`` (keep failure records
        and dead-letter the failed inputs on the result).
    max_retries / backoff / timeout:
        Shorthand for ``retry=RetryPolicy(max_retries=…, backoff=…,
        timeout=…)``: transient failures are re-attempted up to
        ``max_retries`` times on a deterministic exponential backoff;
        ``timeout`` bounds each document's evaluation wall-clock.
    retry:
        A full :class:`RetryPolicy`, overriding the shorthand knobs.
    injector:
        A :class:`FaultInjector` fired on every ``(document index,
        attempt)`` — the deterministic fault-injection harness used by
        the test suite.
    optimize:
        Evaluation strategy for the tgd engine: ``True`` runs the
        join-aware compiled plans of :mod:`repro.executor.planner` as
        generated code, ``False`` the naive reference path, ``None``
        (default) the ``CLIP_OPTIMIZE`` environment default (on).
        Both produce byte-identical results; the flag participates in
        the plan fingerprint, so both variants coexist in a shared
        cache.  Pool workers rebuild the generated closures from the
        cached source (shipped once in the initializer).
    trace:
        A :class:`repro.runtime.trace.SpanTracer` to record the run
        into: a ``batch`` span containing one ``doc[i]`` span per
        input with ``attempt[k]`` children (error spans on failure,
        dead-letter events under ``collect``) and the engines' own
        execute/plan subtrees.  Pool workers serialize their spans
        across the process boundary and the parent merges them by
        (document, attempt), so the canonical trace is byte-identical
        for any worker count.  ``None`` (default) records nothing and
        costs nothing.
    fingerprint:
        The precomputed plan-cache key of ``(mapping, engine,
        optimize)``, for callers (the HTTP service) that already hold
        it; ``None`` (default) derives it with
        :meth:`PlanCache.derive` on the first retrieval, from the
        compile that builds the plan on a miss.  Passing a key that does
        not match the other arguments corrupts cache keying — only
        pass values obtained from
        :func:`repro.runtime.plan.canonical_fingerprint` with
        identical inputs.
    """

    def __init__(
        self,
        mapping: Union[ClipMapping, CompiledPlan],
        *,
        engine: str = "tgd",
        workers: int = 1,
        cache: Optional[PlanCache] = None,
        validate: bool = False,
        error_policy: Union[ErrorPolicy, str] = ErrorPolicy.FAIL_FAST,
        max_retries: int = 0,
        backoff: float = 0.05,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        optimize: Optional[bool] = None,
        trace=None,
        fingerprint: Optional[str] = None,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self.plan: Optional[CompiledPlan] = None
        self.mapping: Optional[ClipMapping] = None
        if isinstance(mapping, CompiledPlan):
            self.plan = mapping
            engine, optimize = mapping.engine, mapping.optimize
            fingerprint = mapping.fingerprint
        else:
            self.mapping = mapping
        self.target = mapping.target
        self.engine = engine
        self.workers = workers
        self.cache = cache if cache is not None else default_cache()
        self.validate = validate
        self.error_policy = ErrorPolicy.coerce(error_policy)
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=max_retries, backoff=backoff, timeout=timeout
        )
        self.injector = injector
        self.trace = trace
        self.optimize = resolve_setting(
            optimize, OPTIMIZE_ENV, True, parse=boolean
        )
        # One key per runner: per-document retrievals are then pure
        # dictionary hits.  A long-lived caller (the HTTP service) that
        # already keyed the mapping at registration passes it in,
        # keeping per-request runner construction free of the
        # compile-and-hash cost.
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        """The plan-cache key of this runner's retrievals: the one
        passed in, or the canonical key derived on first use — so an
        invalid mapping raises from the first retrieval, not here."""
        if self._fingerprint is None:
            self._fingerprint = self.cache.fingerprint_for(
                self.mapping, self.engine, optimize=self.optimize
            )
        return self._fingerprint

    # -- execution ---------------------------------------------------------

    def run(self, documents: Iterable[XmlElement]) -> BatchResult:
        """Apply the mapping to every document, in order.

        Returns the successes (input order preserved) plus failure
        records according to the error policy; see
        :class:`BatchResult`.
        """
        wall_started = time.perf_counter()
        stats_before = self.cache.stats
        metrics = BatchMetrics(
            engine=self.engine,
            workers=self.workers,
            error_policy=self.error_policy.value,
        )
        results: dict[int, XmlElement] = {}
        failures: dict[int, DocumentFailure] = {}
        dead_letters: list[DeadLetter] = []
        tracer = self.trace
        batch_span = None
        span_log: Optional[dict] = None
        owns_trace = False
        if tracer:
            from .plan import trace_seed

            if not tracer.seed:
                # The optimize-independent base fingerprint: span ids
                # agree across evaluation strategies by construction.
                # A handed plan has no mapping to derive it from; its
                # fingerprint is as stable.
                tracer.seed = (
                    self.fingerprint if self.plan is not None
                    else trace_seed(self.mapping, self.engine)
                )
            if not tracer.engine:
                tracer.engine = self.engine
            tracer.meta.setdefault("workers", self.workers)
            owns_trace = not tracer.active
            batch_span = tracer.begin("batch", policy=self.error_policy.value)
            # (document index) → (attempt number) → span payload; built
            # identically by the inline and pool paths, so the merged
            # tree is worker-count-independent.
            span_log = {}
        if self.workers == 1:
            self._run_inline(
                documents, metrics, results, failures, dead_letters, span_log
            )
        else:
            self._run_pool(
                documents, metrics, results, failures, dead_letters, span_log
            )
        stats_after = self.cache.stats
        metrics.cache_hits = stats_after.hits - stats_before.hits
        metrics.cache_misses = stats_after.misses - stats_before.misses
        metrics.cache_evictions = stats_after.evictions - stats_before.evictions
        metrics.compile_seconds = (
            stats_after.compile_seconds - stats_before.compile_seconds
        )
        metrics.wall_seconds = time.perf_counter() - wall_started
        if batch_span is not None:
            _attach_doc_spans(tracer, span_log)
            batch_span.attrs["documents"] = metrics.documents + metrics.failures
            tracer.end(batch_span)
            for child in batch_span.children:
                batch_span.expand(child.t0, child.t1)
            if owns_trace:
                metrics.trace = tracer.to_trace().to_dict()
        success_indices = sorted(results)
        dead_letters.sort(key=lambda letter: letter.failure.index)
        return BatchResult(
            [results[index] for index in success_indices],
            metrics,
            failures=[failures[index] for index in sorted(failures)],
            dead_letters=dead_letters,
            success_indices=success_indices,
        )

    def __call__(self, documents: Iterable[XmlElement]) -> BatchResult:
        return self.run(documents)

    def _retrieve_plan(self):
        if self.plan is not None:
            return self.plan
        if self._fingerprint is None:
            # The first retrieval keys the runner, and a miss builds the
            # plan from that one compile.
            plan = self.cache.derive(
                self.mapping, self.engine, optimize=self.optimize
            )[0]
            self._fingerprint = plan.fingerprint
            return plan
        return self.cache.get_or_compile(
            self.mapping, self.engine, fp=self.fingerprint,
            optimize=self.optimize,
        )

    def _account(
        self,
        metrics: BatchMetrics,
        doc: XmlElement,
        result: XmlElement,
        seconds: float,
    ) -> None:
        metrics.documents += 1
        metrics.execute_seconds += seconds
        metrics.source_elements += doc.size()
        metrics.target_elements += result.size()
        if self.validate:
            from ..xsd.validate import validate as validate_instance

            metrics.validation_violations += len(
                validate_instance(result, self.target)
            )

    def _run_inline(
        self,
        documents: Iterable[XmlElement],
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        span_log: Optional[dict] = None,
    ) -> None:
        first_plan = None
        counters_before = None
        for index, doc in enumerate(documents):
            plan = self._retrieve_plan()
            if first_plan is None:
                first_plan = plan
                stats = plan.tgd_plan.stats if plan.tgd_plan else None
                # The cached plan accumulates counters across runs;
                # snapshot now so the report shows this run's deltas.
                counters_before = stats.snapshot() if stats else None
            attempt = 0
            while True:
                check_deadline()  # a passed enclosing deadline ends the run
                record, cause = _attempt(
                    plan, doc, index, attempt, self.injector,
                    self.retry.timeout, span_log is not None,
                )
                try:
                    retry = self._settle(
                        record, doc, metrics, results, failures,
                        dead_letters, span_log,
                    )
                except DocumentFailureError as error:
                    # In-process, the engine's own exception survives:
                    # chain it so fail_fast callers see the cause.
                    raise error from cause
                if not retry:
                    break
                attempt += 1
        if first_plan is not None:
            report = first_plan.plan_report()
            if report is not None:
                stats = (
                    first_plan.tgd_plan.stats if first_plan.tgd_plan else None
                )
                if stats is not None and counters_before is not None:
                    report["counters"] = [
                        c.to_dict() for c in stats.diff(counters_before)
                    ]
                metrics.plan = report

    def _run_pool(
        self,
        documents: Iterable[XmlElement],
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        span_log: Optional[dict] = None,
    ) -> None:
        # Imported here, not at module top: an in-process batch and a
        # service start never load the pool's modules.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        docs = list(documents)
        if not docs:
            return
        plan = self._retrieve_plan()  # the one compile, if any
        report = plan.plan_report()
        if report is not None:
            # Pool workers keep their runtime counters process-local;
            # the parent reports the static plan shape only.
            report.pop("counters", None)
            metrics.plan = report
        # One payload per pool, not per task.
        payload = pickle.dumps(plan.description())
        injector_bytes = (
            pickle.dumps(self.injector) if self.injector is not None else b""
        )
        ctx = _pool_context()
        _require_importable_for_spawn(ctx)
        # A worker's attempt gets no more than the enclosing deadline has
        # left, and the parent stops waiting when that deadline passes.
        enclosing = active_deadline()
        timeout = self.retry.timeout
        if enclosing is not None:
            left = max(enclosing.remaining(), 1e-6)
            timeout = left if timeout is None else min(timeout, left)

        def make_executor() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(payload, injector_bytes, timeout,
                          span_log is not None),
            )

        # Retrieval accounting matches the inline path: one cache
        # access per document (the retrieval above covers document 0).
        for _ in range(len(docs) - 1):
            self._retrieve_plan()

        to_submit: deque = deque((index, 0) for index in range(len(docs)))
        pending: dict = {}
        executor = make_executor()
        try:
            while to_submit or pending:
                crashed = False
                try:
                    while to_submit:
                        index, attempt = to_submit[0]
                        future = executor.submit(
                            _run_task, (index, attempt, docs[index])
                        )
                        to_submit.popleft()
                        pending[future] = (index, attempt)
                except BrokenProcessPool:
                    crashed = True
                if pending and not crashed:
                    done, _ = wait(
                        set(pending),
                        timeout=None if enclosing is None
                        else enclosing.remaining(),
                        return_when=FIRST_COMPLETED,
                    )
                    check_deadline()
                    for future in done:
                        index, attempt = pending.pop(future)
                        error = future.exception()
                        if isinstance(error, BrokenProcessPool):
                            # This future was in flight when a worker
                            # died; schedule its replay.
                            crashed = True
                            to_submit.appendleft((index, attempt + 1))
                            continue
                        if error is not None:
                            raise error
                        if self._settle(
                            future.result(), docs[index], metrics, results,
                            failures, dead_letters, span_log,
                        ):
                            to_submit.append((index, attempt + 1))
                if crashed:
                    metrics.pool_rebuilds += 1
                    if metrics.pool_rebuilds > 1:
                        raise WorkerCrashError(
                            "worker pool crashed twice; giving up "
                            f"({len(results)} of {len(docs)} documents "
                            "completed)"
                        )
                    # Rebuild once and replay every in-flight document;
                    # completed results are untouched, so successful
                    # outputs stay identical to a crash-free run.
                    for future, (index, attempt) in pending.items():
                        to_submit.append((index, attempt + 1))
                    pending.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = make_executor()
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # Every future has settled and the workers are idle: join them
        # now.  Left to the interpreter's exit hook, the join races the
        # manager thread closing its wakeup pipe (a spurious "Bad file
        # descriptor" traceback on stderr).
        executor.shutdown(wait=True)

    def _settle(
        self,
        record: Record,
        doc: XmlElement,
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        span_log: Optional[dict] = None,
    ) -> bool:
        """Decide one attempt's outcome, for the inline and pool paths
        alike: account a success, or count a failure's timeout and
        either schedule a retry (after its backoff) or apply the error
        policy.  Returns whether the document gets another attempt."""
        kind, index, attempt, value, seconds = record[:5]
        payload = record[5] if len(record) > 5 else None
        if payload is not None and span_log is not None:
            # Re-base the attempt's clock (a worker's differs) so the
            # subtree ends when the record arrived (durations
            # preserved; canonical output ignores timestamps either
            # way), then keep the *first* payload per (document,
            # attempt) — crash replays can duplicate one, and
            # first-wins matches the result dedup.
            shift_payload(payload, time.perf_counter() - payload["t1"])
            attempts = span_log.setdefault(index, {})
            if attempt in attempts:
                payload = attempts[attempt]
            else:
                attempts[attempt] = payload
        if kind == "ok":
            # A crash replay can duplicate a completed document (the
            # pure engines make re-evaluation idempotent); keep the
            # first result.
            if index not in results:
                results[index] = value
                self._account(metrics, doc, value, seconds)
            return False
        failure = value
        if failure.timed_out:
            metrics.timeouts += 1
        if self.retry.should_retry(attempt + 1, failure.transient):
            metrics.retries += 1
            if payload is not None:
                payload["attrs"]["retried"] = True
            delay = self.retry.delay(attempt + 1)
            if delay:
                enclosing = active_deadline()  # the backoff obeys it too
                time.sleep(delay if enclosing is None else min(delay, enclosing.remaining()))
                check_deadline()
            return True
        if payload is not None:
            payload["attrs"]["terminal"] = True
            if self.error_policy is ErrorPolicy.COLLECT:
                payload["children"].append(
                    event_payload(
                        "dead-letter", at=payload["t1"],
                        error=failure.error,
                    )
                )
        metrics.failures += 1
        failures[index] = failure
        if self.error_policy is ErrorPolicy.FAIL_FAST:
            raise DocumentFailureError(failure)
        if self.error_policy is ErrorPolicy.COLLECT:
            dead_letters.append(DeadLetter(failure, doc))
            metrics.dead_letter += 1
        return False
