"""The end-to-end wrapper: one Clip mapping, compiled once, applied to
many source instances through any of the three engines.

:class:`Transformer` is the library's front door (re-exported as
``repro.Transformer``).  :meth:`Transformer.compose` fuses two of them
into a :class:`repro.pipeline.ComposedTransformer`.
"""

from __future__ import annotations

from .core.compile import compile_clip
from .core.mapping import ClipMapping
from .core.tgd import NestedTgd
from .core.validity import ValidityReport, check
from .xml.model import XmlElement
from .xquery.emit import emit_xquery
from .xquery.serialize import serialize as serialize_xquery


class Transformer:
    """End-to-end convenience wrapper: Clip mapping → tgd → execution.

    Compiles the mapping once; calling the transformer converts source
    instances to target instances.  ``engine`` selects the direct tgd
    executor (``"tgd"``, default), the generated-XQuery interpreter
    (``"xquery"``), or the generated-XSLT interpreter (``"xslt"``,
    supported for non-grouped, non-distributed mappings) — all engines
    produce identical instances, which the test suite verifies
    extensively.
    """

    def __init__(self, mapping: ClipMapping, *, engine: str = "tgd",
                 require_valid: bool = True, optimize: bool | None = None,
                 trace=None):
        if engine not in ("tgd", "xquery", "xslt"):
            raise ValueError(
                f"unknown engine {engine!r}; use 'tgd', 'xquery' or 'xslt'"
            )
        self.mapping = mapping
        self.engine = engine
        #: Tgd-engine evaluation strategy: ``True`` join-aware compiled
        #: plans, ``False`` the naive reference path, ``None`` the
        #: ``CLIP_OPTIMIZE`` environment default (on).
        self.optimize = optimize
        #: Optional :class:`repro.runtime.trace.SpanTracer`: every call
        #: records compile → prepare → execute spans into it (see
        #: :mod:`repro.runtime.trace`); ``None`` records nothing and
        #: costs nothing.
        self._trace = trace
        span = trace.begin("compile") if trace else None
        self.report: ValidityReport = check(mapping)
        self.tgd: NestedTgd = compile_clip(
            mapping, require_valid=require_valid, report=self.report
        )
        if span is not None:
            trace.end(span, valid=self.report.is_valid)
            self._seed_trace(trace)
        self._plan = None
        self._query = None
        self._stylesheet = None

    def _seed_trace(self, trace) -> None:
        """Namespace the tracer's span ids under this mapping's base
        fingerprint (first mapping wins when a tracer is shared)."""
        if not trace.seed:
            from .runtime.plan import trace_seed

            trace.seed = trace_seed(self.mapping, self.engine)
        if not trace.engine:
            trace.engine = self.engine

    @property
    def plan(self):
        """The :class:`repro.runtime.CompiledPlan` every call runs, on
        this transformer's engine (built lazily, reused across calls)."""
        if self._plan is None:
            from .runtime.plan import plan_from_tgd

            self._plan = plan_from_tgd(
                self.tgd, self.engine, optimize=self.optimize,
                target=self.mapping.target,
            )
        return self._plan

    @property
    def xquery(self):
        """The emitted XQuery AST (built lazily)."""
        if self._query is None:
            self._query = emit_xquery(self.tgd)
        return self._query

    @property
    def xquery_text(self) -> str:
        """The generated XQuery, as query text."""
        return serialize_xquery(self.xquery)

    @property
    def stylesheet(self):
        """The emitted XSLT stylesheet (built lazily; may raise
        :class:`repro.xslt.UnsupportedForXslt`)."""
        if self._stylesheet is None:
            from .xslt import emit_xslt

            self._stylesheet = emit_xslt(self.tgd)
        return self._stylesheet

    @property
    def xslt_text(self) -> str:
        """The generated XSLT, as stylesheet text."""
        return self.stylesheet.serialize()

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self.apply(source_instance)

    def apply(self, source_instance: XmlElement, *,
              trace=None) -> XmlElement:
        """Transform one source instance.

        ``trace`` overrides the constructor's tracer for this call; a
        falsy tracer (the default when neither is set) runs the exact
        untraced path.  Traced calls record a ``prepare`` span (the
        lazy engine-artifact build; instantaneous once built) and a
        ``transform`` span containing the engine's execute/plan/eval
        subtree — traced and untraced runs produce byte-identical
        outputs, which the differential suite asserts.
        """
        if trace is None:
            trace = self._trace
        if not trace:
            return self.plan.run(source_instance)
        self._seed_trace(trace)
        # The prepare span is always present (stable trace shape across
        # repeated calls); after the first call it is an instant no-op.
        span = trace.begin("prepare")
        plan = self.plan
        trace.end(span)
        span = trace.begin("transform")
        try:
            result = plan.run(source_instance, trace=trace)
        except Exception:
            span.attrs["status"] = "error"
            trace.end(span)
            raise
        trace.end(span, status="ok")
        return result

    def explain(self, source_instance: XmlElement):
        """Run the mapping with per-level counters (iterations, filtered
        tuples, elements built, groups); returns an
        :class:`repro.executor.ExecutionReport` whose ``result`` equals
        what calling the transformer would produce."""
        from .executor import explain as _explain

        return _explain(self.tgd, source_instance)

    def explain_plan(self, source_instance: XmlElement):
        """Compile and run the mapping through the join-aware planner,
        returning a :class:`repro.executor.PlanExplain` — the compiled
        plan (joins, pushed filters, generator order) plus runtime
        counters, renderable as text or ``clip-plan-explain`` JSON."""
        from .executor import explain_plan as _explain_plan

        return _explain_plan(self.tgd, source_instance,
                             optimize=self.optimize)

    def compose(self, other):
        """Fuse this ``A→B`` transformer with a ``B→C`` mapping (or
        transformer) into one ``A→C`` transformer.

        When the pair lies in the composable fragment
        (:func:`repro.algebra.compose_tgds`) the result runs a single
        fused one-pass plan; otherwise it silently degrades to
        sequential execution — either way the output is byte-identical
        to applying the two stages in order, and
        :attr:`ComposedTransformer.mode` says which path runs.  Both
        stages keep their compiled tgds and their own ``optimize``.
        """
        from .pipeline import ComposedTransformer

        if not isinstance(other, Transformer):
            other = Transformer(
                other, engine=self.engine, optimize=self.optimize
            )
        return ComposedTransformer(self, other)
