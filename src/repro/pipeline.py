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

Fused or not, a pipeline is one :class:`~repro.runtime.CompiledPlan`
(:meth:`Pipeline.plan`); a batch of documents runs through it as
``BatchRunner(pipeline.plan(), …)``, each document through every stage.
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
        #: Each step's tgd: a fused group's composition, or a stage's.
        self._step_tgds: list = []
        self._plan = None
        if fuse:
            self._plan_fusion()
        else:
            self.fused_groups = [[i] for i in range(len(self.transformers))]
            self._step_tgds = [t.tgd for t in self.transformers]

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
                self._step_tgds.append(accumulated)
                self.fused_groups.append(group)
                accumulated = stage_tgd
                group = [index]
            else:
                self.fallback_reasons.append(None)
                group.append(index)
        self._step_tgds.append(accumulated)
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

    def plan(self):
        """The whole chain as one :class:`repro.runtime.CompiledPlan`
        (built once): its steps are the fused groups (``fuse=True``) or
        the stages, each with its last stage's ``optimize`` and shared
        through the default plan cache under its
        :func:`repro.algebra.compose_fingerprint` key (a single stage
        keys as itself).  The chain's key folds every step's stage
        keys.  Hand it to :class:`repro.runtime.BatchRunner` to run a
        batch: a failure's ``stage`` names the step that raised, and a
        traced run records ``fused[i]``/``stage[i]`` step spans."""
        return self._chain()

    def _chain(self):
        """:meth:`plan`, under a name that
        :attr:`ComposedTransformer.plan` does not shadow."""
        if self._plan is None:
            from .algebra import compose_fingerprint
            from .runtime import default_cache
            from .runtime.plan import chain_plans

            cache = default_cache()
            steps, keys = [], []
            for index, (tgd, group) in enumerate(
                zip(self._step_tgds, self.fused_groups)
            ):
                stage_keys = self._stage_fingerprints(group)
                keys.extend(stage_keys)
                last = self.transformers[group[-1]]
                plan = cache.plan_for_tgd(
                    tgd, self.engine, fp=compose_fingerprint(*stage_keys),
                    optimize=last.optimize, target=last.mapping.target,
                )
                if self.fuse:
                    label = (f"fused[{index}]",
                             {"stages": ",".join(map(str, group))})
                else:
                    mapping = last.mapping
                    label = (f"stage[{index}]",
                             {"source": mapping.source.root.name,
                              "target": mapping.target.root.name})
                steps.append((plan, *label))
            self._plan = chain_plans(steps, fp=compose_fingerprint(*keys))
        return self._plan

    @property
    def fused_plans(self):
        """The compiled plans of the fused units (``fuse=True`` only):
        the steps of :meth:`plan`."""
        if not self.fuse:
            raise MappingError(
                "this pipeline was built without fuse=True; "
                "there are no fused plans"
            )
        return [step for step, _, _ in self._chain().steps]

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

        The chain runs as its :meth:`plan` — with ``fuse=True``, no
        intermediate instance for inlined seams — unless
        ``validate_stages`` or ``keep_intermediates`` is set, which
        need every per-stage instance and therefore apply the stages'
        transformers one by one.  ``validate_stages=True`` validates
        each stage's output against its target schema and raises
        :class:`ValidationError` on the first violation.

        ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records a
        ``pipeline`` span with one child per step: ``fused[i]`` per
        fused unit, tagged with the original stage indices it covers,
        or ``stage[i]`` per mapping.
        """
        per_stage = validate_stages or keep_intermediates
        if not trace and not per_stage:
            return self._chain().run(instance)
        pipeline_span = None
        if trace:
            self._seed_trace(trace)
            fused = self.fuse and not per_stage
            pipeline_span = trace.begin(
                "pipeline", stages=len(self),
                **({"fused": len(self.fused_groups)} if fused else {}),
            )
        try:
            if not per_stage:
                return self._chain().run(instance, trace=trace)
            return self._run_stages(
                instance, validate_stages, keep_intermediates, trace
            )
        finally:
            if pipeline_span is not None:
                trace.end(pipeline_span)

    def _run_stages(self, instance, validate_stages, keep_intermediates,
                    trace):
        """Apply every stage's transformer in turn, keeping (and
        validating) each intermediate instance."""
        current = instance
        results: list[StageResult] = []
        for index, transformer in enumerate(self.transformers):
            mapping = transformer.mapping
            span = trace.begin(
                f"stage[{index}]", source=mapping.source.root.name,
                target=mapping.target.root.name,
            ) if trace else None
            try:
                current = transformer.apply(current, trace=trace)
                violations = []
                if validate_stages:
                    violations = validate(current, mapping.target)
                    if violations:
                        raise ValidationError(violations)
            except Exception:
                if span is not None:
                    trace.end(span, status="error")
                raise
            if span is not None:
                if validate_stages:
                    span.attrs["violations"] = len(violations)
                trace.end(span, status="ok")
            if keep_intermediates:
                results.append(StageResult(index, current, violations))
        return results if keep_intermediates else current

    def __call__(self, instance: XmlElement) -> XmlElement:
        return self.run(instance)

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
        return self._step_tgds[0] if self.fallback_reason is None else None

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
