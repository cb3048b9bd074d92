"""Sequential composition of schema mappings.

Data integration chains mappings: staging → canonical → mart.  The
theory of composing the *logical* mappings is its own research line
(the paper cites Fagin et al.'s second-order tgds [8]); what every
practical tool ships is the operational version — run the
transformations in sequence, checking that each stage's output schema
feeds the next stage's input schema.  :class:`Pipeline` provides that,
with per-stage validation and inspection hooks.

``Pipeline(…, fuse=True)`` additionally *algebraically* fuses adjacent
stages via :func:`repro.algebra.compose_tgds`: runs of stages inside
the composable fragment collapse into single one-pass plans (no
intermediate instance is materialized), while stage pairs outside it
keep their seam.  Fused and unfused pipelines produce byte-identical
output — the fused plans are cached under
:func:`repro.algebra.compose_fingerprint` chain keys in the shared
:class:`~repro.runtime.PlanCache`.  :class:`ComposedTransformer` (what
``Transformer.compose`` returns) is the two-stage fused pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core.mapping import ClipMapping
from .core.tgd import NestedTgd
from .errors import ComposeError, MappingError, ValidationError
from .transformer import Transformer
from .xml.model import XmlElement
from .xsd.render import render_schema
from .xsd.validate import validate


@dataclass
class StageResult:
    """One stage's output, kept for inspection."""

    index: int
    instance: XmlElement
    violations: list


class Pipeline:
    """A chain of Clip mappings applied in sequence.

    Stages are Clip mappings (compiled here for ``engine``) or
    already-built :class:`~repro.transformer.Transformer` objects on
    that engine, which keep their compiled tgds and their own
    ``optimize``.  The stages' schemas must line up: stage *i*'s target
    schema is stage *i+1*'s source schema (compared structurally, since
    schema objects may have been built twice from the same definition).

    ``fuse=True`` greedily composes adjacent stages' tgds
    (:func:`repro.algebra.compose_tgds`); :attr:`fused_groups` records
    which original stages each fused plan covers (``[[0, 1], [2]]`` —
    stages 0 and 1 inlined, stage 2 kept its seam), and
    :attr:`fallback_reasons` why each kept seam did not fuse.
    """

    def __init__(self, stages: Sequence[Union[ClipMapping, Transformer]],
                 *, engine: str = "tgd", fuse: bool = False):
        if not stages:
            raise MappingError("a pipeline needs at least one mapping")
        self.engine = engine
        self.transformers = [
            stage if isinstance(stage, Transformer)
            else Transformer(stage, engine=engine)
            for stage in stages
        ]
        for transformer in self.transformers:
            if transformer.engine != engine:
                raise ValueError(
                    f"cannot chain transformers on different engines "
                    f"({transformer.engine!r} vs {engine!r})"
                )
        # Render each schema object at most once across the adjacency
        # checks — shared schema objects (stage i's target handed to
        # stage i+1 as its source) used to be rendered per comparison.
        rendered: dict[int, str] = {}

        def render_once(schema) -> str:
            key = id(schema)
            if key not in rendered:
                rendered[key] = render_schema(schema)
            return rendered[key]

        for index in range(len(stages) - 1):
            upstream = self.transformers[index].mapping.target
            downstream = self.transformers[index + 1].mapping.source
            if render_once(upstream) != render_once(downstream):
                raise MappingError(
                    f"pipeline stage {index} produces schema "
                    f"{upstream.root.name!r} but stage {index + 1} consumes "
                    f"{downstream.root.name!r} (structures differ)"
                )
        self.fuse = fuse
        #: Original stage indices covered by each fused unit (one
        #: singleton list per stage when ``fuse`` is off or nothing
        #: composed).
        self.fused_groups: list[list[int]] = []
        #: With ``fuse``, one entry per seam (stage *i* → *i+1*):
        #: ``None`` where the stages fused, else the
        #: :class:`~repro.errors.ComposeError` reason that kept it.
        self.fallback_reasons: list[Optional[str]] = []
        self._fused_tgds: list = []
        self._fused_plans = None
        if fuse:
            self._plan_fusion()
        else:
            self.fused_groups = [[i] for i in range(len(self.transformers))]

    def __len__(self) -> int:
        return len(self.transformers)

    # -- adjacent-stage fusion -----------------------------------------

    def _plan_fusion(self) -> None:
        """Greedily fold adjacent stages' tgds: each stage joins the
        current fused run when :func:`compose_tgds` accepts the pair,
        otherwise the run closes and the stage starts a new one."""
        from .algebra import compose_tgds

        accumulated = self.transformers[0].tgd
        group = [0]
        for index in range(1, len(self.transformers)):
            stage_tgd = self.transformers[index].tgd
            try:
                accumulated = compose_tgds(accumulated, stage_tgd)
            except ComposeError as error:
                self.fallback_reasons.append(error.reason)
                self._fused_tgds.append(accumulated)
                self.fused_groups.append(group)
                accumulated = stage_tgd
                group = [index]
            else:
                self.fallback_reasons.append(None)
                group.append(index)
        self._fused_tgds.append(accumulated)
        self.fused_groups.append(group)

    def _stage_fingerprints(self, group: Sequence[int]) -> list[str]:
        """The plan-cache keys of ``group``'s stages, each at the fused
        plan's own engine and ``optimize`` (its last stage's) — what
        :func:`compose_fingerprint` folds into the fused key.  Keyed
        from the stages' compiled tgds, so nothing compiles twice."""
        from .runtime import canonical_fingerprint

        optimize = self.transformers[group[-1]].optimize
        return [
            canonical_fingerprint(stage.mapping, self.engine,
                                  optimize=optimize, tgd=stage.tgd)
            for stage in (self.transformers[index] for index in group)
        ]

    @property
    def fused_plans(self):
        """The compiled plans of the fused units (``fuse=True`` only),
        built lazily with each unit's last-stage ``optimize`` and
        shared through the default plan cache under
        :func:`repro.algebra.compose_fingerprint` chain keys (a
        single-stage unit keys as that stage)."""
        if not self.fuse:
            raise MappingError(
                "this pipeline was built without fuse=True; "
                "there are no fused plans"
            )
        if self._fused_plans is None:
            from .algebra import compose_fingerprint
            from .runtime import default_cache, plan_from_tgd

            cache = default_cache()
            plans = []
            for tgd, group in zip(self._fused_tgds, self.fused_groups):
                fp = compose_fingerprint(*self._stage_fingerprints(group))
                plan = cache.peek(fp)
                if plan is None:
                    last = self.transformers[group[-1]]
                    plan = plan_from_tgd(
                        tgd, self.engine, fp=fp, optimize=last.optimize,
                        target=last.mapping.target,
                    )
                    cache.put(plan)
                plans.append(plan)
            self._fused_plans = plans
        return self._fused_plans

    def _seed_trace(self, trace) -> None:
        """Namespace a shared tracer under the whole chain: the
        combined hash of every stage's base fingerprint, so a pipeline
        trace never collides with any single stage's own."""
        if not trace.seed:
            from .runtime.plan import trace_seed
            from .runtime.trace import combine_seeds

            trace.seed = combine_seeds(
                trace_seed(t.mapping, self.engine) for t in self.transformers
            )
        if not trace.engine:
            trace.engine = self.engine

    def run(
        self,
        instance: XmlElement,
        *,
        validate_stages: bool = False,
        keep_intermediates: bool = False,
        trace=None,
    ):
        """Apply all stages.  Returns the final instance, or — with
        ``keep_intermediates=True`` — the list of :class:`StageResult`.

        ``validate_stages=True`` validates each stage's output against
        its target schema and raises :class:`ValidationError` on the
        first violation.

        ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records a
        ``pipeline`` span with one ``stage[i]`` child per mapping, each
        containing that transformer's prepare/transform subtree.

        With ``fuse=True`` the fused plans run instead — byte-identical
        output, no intermediate instances for inlined seams — unless
        ``validate_stages`` or ``keep_intermediates`` is set, which
        need every per-stage instance and therefore run the unfused
        path.  Traced fused runs record one ``fused[i]`` span per unit,
        tagged with the original stage indices it covers.
        """
        fused = self.fuse and not validate_stages and not keep_intermediates
        if fused:
            units = [
                (plan.run, f"fused[{index}]",
                 {"stages": ",".join(map(str, group))})
                for index, (plan, group) in enumerate(
                    zip(self.fused_plans, self.fused_groups)
                )
            ]
        else:
            units = [
                (transformer.apply, f"stage[{index}]",
                 {"source": transformer.mapping.source.root.name,
                  "target": transformer.mapping.target.root.name})
                for index, transformer in enumerate(self.transformers)
            ]
        current = instance
        results: list[StageResult] = []
        pipeline_span = None
        if trace:
            self._seed_trace(trace)
            pipeline_span = trace.begin(
                "pipeline", stages=len(self),
                **({"fused": len(units)} if fused else {}),
            )
        for index, (step, name, attrs) in enumerate(units):
            span = trace.begin(name, **attrs) if trace else None
            try:
                current = step(current, trace=trace)
                violations = []
                if validate_stages:
                    target = self.transformers[index].mapping.target
                    violations = validate(current, target)
                    if violations:
                        raise ValidationError(violations)
            except Exception:
                if span is not None:
                    span.attrs["status"] = "error"
                    trace.end(span)
                    trace.end(pipeline_span)
                raise
            if span is not None:
                if validate_stages:
                    span.attrs["violations"] = len(violations)
                trace.end(span, status="ok")
            if keep_intermediates:
                results.append(StageResult(index, current, violations))
        if pipeline_span is not None:
            trace.end(pipeline_span)
        return results if keep_intermediates else current

    def __call__(self, instance: XmlElement) -> XmlElement:
        return self.run(instance)

    def run_batch(
        self,
        documents,
        *,
        workers: int = 1,
        validate: bool = False,
        cache=None,
        error_policy="fail_fast",
        max_retries: int = 0,
        backoff: float = 0.05,
        timeout=None,
        retry=None,
        injectors=None,
        trace=None,
    ):
        """Stream a batch of documents through all stages.

        Stage-major execution: every document passes stage 0, then the
        intermediate instances pass stage 1, and so on — each stage's
        compiled plan is retrieved once per document application from
        the plan cache, which this method seeds with the transformers'
        already-compiled tgds (no stage compiles twice).  ``workers``
        fans each stage's documents across a process pool
        (:class:`repro.runtime.BatchRunner`); results keep input order.

        Failures propagate at stage granularity: a document that fails
        stage *k* (after ``max_retries`` re-attempts of transient
        errors, each bounded by ``timeout`` seconds) is *not* fed to
        stage *k+1*.  Under ``error_policy="fail_fast"`` the first
        terminal failure raises :class:`repro.errors.DocumentFailureError`
        with the stage recorded on the failure; under ``"skip"`` /
        ``"collect"`` the surviving documents keep flowing, and
        ``"collect"`` additionally dead-letters the instance the
        failing stage consumed.  Failure records and
        ``success_indices`` on the returned result are expressed in
        *original input* indices.

        ``injectors`` (tests only) maps a stage index to a
        :class:`repro.runtime.FaultInjector` fired on that stage's
        local document indices.

        Returns a :class:`repro.runtime.BatchResult` whose metrics
        carry a per-stage breakdown (documents, execute seconds,
        validation violations, failures/retries/timeouts/dead-letter).
        Unlike :meth:`run`, ``validate=True`` counts violations into
        the metrics instead of raising, so one bad document does not
        abort the batch.

        ``trace`` records a ``pipeline-batch`` span with one
        ``stage[i]`` child per mapping, each containing that stage's
        full ``batch`` subtree (doc/attempt spans, worker merging —
        see :class:`repro.runtime.BatchRunner`); the finished trace
        document is embedded in the metrics' ``trace`` key.
        """
        from .errors import DocumentFailureError
        from .runtime import (
            BatchMetrics,
            BatchResult,
            BatchRunner,
            ErrorPolicy,
            StageMetrics,
            canonical_fingerprint,
            default_cache,
            plan_from_tgd,
        )

        cache = cache if cache is not None else default_cache()
        policy = ErrorPolicy.coerce(error_policy)
        current = list(documents)
        # Original input index of each document still flowing.
        alive = list(range(len(current)))
        metrics = BatchMetrics(
            engine=self.engine, workers=workers, error_policy=policy.value
        )
        metrics.source_elements = sum(doc.size() for doc in current)
        failures = []
        dead_letters = []
        root_span = None
        owns_trace = False
        if trace:
            self._seed_trace(trace)
            owns_trace = not trace.active
            root_span = trace.begin("pipeline-batch", stages=len(self))
        for index, transformer in enumerate(self.transformers):
            optimize = transformer.optimize
            fp = canonical_fingerprint(transformer.mapping, self.engine,
                                       optimize=optimize, tgd=transformer.tgd)
            if fp not in cache:
                cache.put(plan_from_tgd(
                    transformer.tgd, self.engine, fp=fp, optimize=optimize,
                    target=transformer.mapping.target,
                ))
            runner = BatchRunner(
                transformer.mapping,
                engine=self.engine,
                optimize=optimize,
                workers=workers,
                cache=cache,
                fingerprint=fp,
                validate=validate,
                error_policy=policy,
                max_retries=max_retries,
                backoff=backoff,
                timeout=timeout,
                retry=retry,
                injector=injectors.get(index) if injectors else None,
                trace=trace,
            )
            stage_span = None
            if trace:
                mapping = transformer.mapping
                stage_span = trace.begin(
                    f"stage[{index}]",
                    source=mapping.source.root.name,
                    target=mapping.target.root.name,
                )
            try:
                batch = runner.run(current)
            except DocumentFailureError as error:
                # Under fail_fast no earlier stage dropped a document,
                # so the stage-local index is already the input index.
                error.failure.stage = index
                raise
            if stage_span is not None:
                trace.end(stage_span)
            batch.reindex(alive)
            for failure in batch.failures:
                failure.stage = index
            failures.extend(batch.failures)
            dead_letters.extend(batch.dead_letters)
            mapping = transformer.mapping
            metrics.stages.append(
                StageMetrics(
                    index=index,
                    source_root=mapping.source.root.name,
                    target_root=mapping.target.root.name,
                    documents=len(current),
                    execute_seconds=batch.metrics.execute_seconds,
                    violations=batch.metrics.validation_violations,
                    failures=batch.metrics.failures,
                    retries=batch.metrics.retries,
                    timeouts=batch.metrics.timeouts,
                    dead_letter=batch.metrics.dead_letter,
                )
            )
            metrics.cache_hits += batch.metrics.cache_hits
            metrics.cache_misses += batch.metrics.cache_misses
            metrics.compile_seconds += batch.metrics.compile_seconds
            metrics.execute_seconds += batch.metrics.execute_seconds
            metrics.validation_violations += batch.metrics.validation_violations
            metrics.wall_seconds += batch.metrics.wall_seconds
            metrics.failures += batch.metrics.failures
            metrics.retries += batch.metrics.retries
            metrics.timeouts += batch.metrics.timeouts
            metrics.dead_letter += batch.metrics.dead_letter
            metrics.pool_rebuilds += batch.metrics.pool_rebuilds
            alive = batch.success_indices
            current = batch.results
        metrics.documents = len(current)
        metrics.target_elements = sum(doc.size() for doc in current)
        if root_span is not None:
            trace.end(root_span)
            if owns_trace:
                metrics.trace = trace.to_trace().to_dict()
        failures.sort(key=lambda failure: (failure.index, failure.stage))
        dead_letters.sort(key=lambda letter: letter.failure.index)
        return BatchResult(
            current,
            metrics,
            failures=failures,
            dead_letters=dead_letters,
            success_indices=alive,
        )

    def describe(self) -> str:
        """One line per stage: source root → target root."""
        lines = []
        for index, transformer in enumerate(self.transformers):
            mapping = transformer.mapping
            lines.append(
                f"stage {index}: {mapping.source.root.name} → "
                f"{mapping.target.root.name} "
                f"({len(mapping.value_mappings)} value mappings, "
                f"{len(mapping.build_nodes())} build nodes)"
            )
        return "\n".join(lines)


class ComposedTransformer(Pipeline):
    """An ``A→C`` transformer built from an ``A→B`` and a ``B→C`` one:
    a two-stage fused :class:`Pipeline`.

    Inside the composable fragment (:func:`repro.algebra.compose_tgds`)
    the two tgds fuse into one, whose single-pass plan is
    byte-identical to chaining the stages (``mode == "inlined"``).
    Outside it — grouping, aggregates, opaque value flow — the seam
    stays and the stages run in sequence (``mode == "sequential"``),
    with the :class:`~repro.errors.ComposeError` reason in
    :attr:`fallback_reason`.  Either mode produces the same bytes,
    which the test suite asserts across the corpus.
    """

    def __init__(self, first: Transformer, second: Transformer):
        super().__init__([first, second], engine=first.engine, fuse=True)
        self.first, self.second = self.transformers

    @property
    def fallback_reason(self) -> Optional[str]:
        """The seam's :class:`~repro.errors.ComposeError` reason tag,
        ``None`` when the pair fused."""
        return self.fallback_reasons[0]

    @property
    def mode(self) -> str:
        """``"inlined"`` (one fused plan) or ``"sequential"``."""
        return "inlined" if self.fallback_reason is None else "sequential"

    @property
    def tgd(self) -> Optional[NestedTgd]:
        """The fused ``A→C`` nested tgd (``None`` in sequential mode)."""
        return self._fused_tgds[0] if self.fallback_reason is None else None

    @property
    def fingerprint(self) -> str:
        """The fused cache key (stable whether or not the pair fused)."""
        from .algebra import compose_fingerprint

        return compose_fingerprint(*self._stage_fingerprints([0, 1]))

    @property
    def plan(self):
        """The fused :class:`repro.runtime.CompiledPlan`; raises
        :class:`~repro.errors.ComposeError` in sequential mode."""
        if self.fallback_reason is not None:
            raise ComposeError(
                self.fallback_reason,
                "this composition runs sequentially; it has no fused plan",
            )
        return self.fused_plans[0]

    def apply(self, source_instance: XmlElement, *,
              trace=None) -> XmlElement:
        """Transform ``A`` documents straight to ``C`` (see :meth:`run`)."""
        return self.run(source_instance, trace=trace)
