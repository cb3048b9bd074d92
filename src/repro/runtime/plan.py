"""Compiled execution plans: compile a mapping once, run it many times.

Section VI's point is that a Clip mapping is *compiled* — the nested
tgd, the emitted XQuery, the generated XSLT are all artifacts of the
mapping alone — and then applied to arbitrarily many instance
documents.  :class:`CompiledPlan` reifies that split: everything that
depends only on ``(mapping, engine)`` happens in :func:`compile_plan`
(validity check, tgd compilation, engine-artifact emission, evaluation
ordering), and applying the plan to a document touches none of it.

:func:`canonical_fingerprint` is a plan's identity: the SHA-256 of the
compiled tgd's canonical normal form, the two schemas and the engine
name, so drawings over the same schemas that differ only in variable
names or ``where``-conjunct order — which compile to the same plan —
share one key.  Every plan-cache key comes from it.  The structural :func:`fingerprint` (the
mapping's persistent JSON document, see :mod:`repro.io`) only seeds
trace span ids (:func:`trace_seed`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Optional

from ..core.compile import compile_clip
from ..core.mapping import ClipMapping
from ..core.tgd import NestedTgd
from ..core.validity import ValidityReport, check
from ..executor.engine import TgdPlan, prepare
from ..executor.planner import OPTIMIZE_ENV
from ..settings import boolean, resolve_setting
from ..xml.model import XmlElement
from .retry import check_deadline

#: The engines a plan can target, in cross-check order.
ENGINES = ("tgd", "xquery", "xslt")


def _marker(engine: str, optimize: Optional[bool]) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")
    if resolve_setting(optimize, OPTIMIZE_ENV, True, parse=boolean):
        return ""
    return ":no-optimize"


def fingerprint(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    optimize: Optional[bool] = None,
) -> str:
    """A structural fingerprint of ``(mapping, engine, optimize)``.

    Computed from the mapping's persistent JSON document, so distinct
    in-memory objects describing the same drawing share it, and any
    edit (a new value mapping, a changed condition, a different
    schema, or a renamed variable) produces a new one.  It seeds trace
    span ids (:func:`trace_seed`); plan caches key on
    :func:`canonical_fingerprint`.  The default (optimized) case keeps
    the historical payload, so recorded seeds still match.
    """
    from ..io import dumps as _dump_mapping

    payload = f"{engine}{_marker(engine, optimize)}\n{_dump_mapping(mapping)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_fingerprint(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    optimize: Optional[bool] = None,
    tgd: Optional[NestedTgd] = None,
) -> str:
    """The plan-cache key of ``(mapping, engine, optimize)``:
    alpha-renamed-equivalent mappings share it.

    Hashes the canonical normal form of the compiled tgd
    (:func:`repro.algebra.canonical_render`), so two drawings that
    differ only in bound variable names or ``where``-conjunct order key
    the same cache slot.  The source and target schemas (their XSD
    text) participate too: instances are parsed and typed against them,
    so mappings whose drawings agree over different schemas never share
    a key.  A caller already holding the compiled tgd passes it as
    ``tgd`` and skips the compile (which raises
    :class:`~repro.errors.InvalidMappingError` on an invalid mapping:
    it has no plan to key).  The resolved ``optimize`` flag participates
    (a shared cache never serves an optimized plan to a caller that
    asked for the naive path), and a ``|canonical`` tag keeps the key
    apart from any structural :func:`fingerprint`.
    """
    # Keys are derived in the parent only: a pool worker, which
    # rebuilds its plan from a shipped tgd, never imports these.
    from ..algebra.normalize import canonical_render
    from ..xsd.parser import to_xsd

    marker = _marker(engine, optimize)
    if tgd is None:
        tgd = compile_clip(mapping)
    payload = (
        f"{engine}{marker}|canonical\n{to_xsd(mapping.source)}\n"
        f"{to_xsd(mapping.target)}\n{canonical_render(tgd)}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def eligible_engines(tgd: NestedTgd) -> tuple[str, ...]:
    """The engines able to execute an already-compiled tgd.

    The tgd executor and the XQuery pipeline cover the full language;
    XSLT 1.0 covers the non-grouped, non-distributed subset only.  The
    probe is the XSLT emitter itself — emission is cheap, pure, and
    exactly the authority on its own limits — so eligibility can never
    drift from what :func:`repro.xslt.emit_xslt` actually accepts.
    The fuzz farm uses this to decide which engines to cross-check per
    corpus case.
    """
    from ..xslt import UnsupportedForXslt, emit_xslt

    try:
        emit_xslt(tgd)
    except UnsupportedForXslt:
        return ("tgd", "xquery")
    return ("tgd", "xquery", "xslt")


def trace_seed(mapping: ClipMapping, engine: str = "tgd") -> str:
    """The trace-id namespace for ``(mapping, engine)``.

    Deliberately the *base* fingerprint (the optimized payload,
    optimize-independent): span ids must agree between
    ``optimize=True``/``optimize=False`` runs of the same mapping, so
    their traces differ only in the ``plan`` subtree's content — the
    determinism contract ``docs/FORMATS.md`` §7 specifies and the
    property suite enforces.
    """
    return fingerprint(mapping, engine, optimize=True)


class CompiledPlan:
    """One mapping, compiled for one engine, ready for repeated use.

    Calling the plan transforms a source instance.  The plan carries
    the compiled tgd (so it can be shipped to worker processes, which
    rebuild only the engine artifact), the seconds spent compiling
    (so batch metrics can report compile vs. execute time) and the
    target schema results validate against.  A chain of plans
    (:func:`chain_plans`, a whole pipeline) is a plan too: it has no
    single tgd, and carries its ``steps`` instead.
    """

    __slots__ = (
        "engine",
        "fingerprint",
        "report",
        "tgd",
        "optimize",
        "tgd_plan",
        "compile_seconds",
        "target",
        "steps",
        "_runner",
    )

    def __init__(
        self,
        engine: str,
        fp: str,
        tgd: Optional[NestedTgd],
        runner: Callable[[XmlElement], XmlElement],
        *,
        report: Optional[ValidityReport] = None,
        compile_seconds: float = 0.0,
        optimize: bool = True,
        tgd_plan: Optional[TgdPlan] = None,
        target=None,
        steps: Optional[tuple] = None,
    ):
        self.engine = engine
        self.fingerprint = fp
        self.report = report
        self.tgd = tgd
        self.compile_seconds = compile_seconds
        self.optimize = optimize
        #: The underlying :class:`TgdPlan` (tgd engine only): carries
        #: the compiled level plans and the accumulated plan counters
        #: that batch metrics report.
        self.tgd_plan = tgd_plan
        #: The target XSD schema (``None`` when built from a bare tgd
        #: without one).
        self.target = target
        #: A chain's ``(plan, span name, span attrs)`` steps, in order;
        #: ``None`` for a plan of one compiled tgd.
        self.steps = steps
        self._runner = runner

    def plan_report(self) -> Optional[dict]:
        """The compiled-plan description plus accumulated counters, or
        ``None`` when the engine has no planner (xquery/xslt)."""
        if self.tgd_plan is None or self.tgd_plan.planned is None:
            if self.engine == "tgd" and self.steps is None:
                return {"optimize": False, "exec_mode": "interp"}
            return None
        stats = self.tgd_plan.stats
        return {
            "optimize": True,
            "exec_mode": self.tgd_plan.exec_mode,
            "levels": [p.describe() for p in self.tgd_plan.planned.levels],
            "counters": [c.to_dict() for c in stats.counters] if stats else [],
            "codegen": self.tgd_plan.program.describe(),
        }

    def description(self) -> tuple:
        """What a pool worker rebuilds this plan from
        (:func:`plan_from_description`): per step, the tgd, engine,
        ``optimize``, generated source (source pickles; code objects
        don't) and the step's span name and attrs.  A plan that is not
        a chain describes itself as one step with no span name."""
        described = []
        for plan, name, attrs in self.steps or ((self, None, None),):
            program = plan.tgd_plan.program if plan.tgd_plan else None
            source = program.source if program is not None else None
            described.append(
                (plan.tgd, plan.engine, plan.optimize, source, name, attrs)
            )
        return tuple(described)

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self._runner(source_instance)

    def run(self, source_instance: XmlElement, *, trace=None) -> XmlElement:
        """Apply the plan to one source instance.

        ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records
        the engine's execution spans; ``None`` (default) runs the
        untraced closure unchanged.
        """
        if trace is None:
            return self._runner(source_instance)
        return self._runner(source_instance, trace=trace)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(engine={self.engine!r}, "
            f"fingerprint={self.fingerprint[:12]}…)"
        )


def _engine_runner(
    tgd: NestedTgd,
    engine: str,
    optimize: bool,
    codegen_source: Optional[str] = None,
) -> tuple[Callable[[XmlElement], XmlElement], Optional[TgdPlan]]:
    """Build the per-document evaluation closure for one engine.

    Returns the closure plus, for the tgd engine, the underlying
    :class:`TgdPlan` (so plan statistics stay reachable).  The tgd and
    XQuery evaluators both navigate through the shared per-document
    index of :func:`repro.xml.index.index_for`, built lazily on first
    use and reused across every mapping applied to the same document.

    Every closure accepts an optional ``trace`` keyword: the tgd
    engine records execute/plan spans, the XQuery interpreter eval
    spans; XSLT has no internal instrumentation, so its closure wraps
    the whole application in one ``execute`` span.
    """
    if engine == "tgd":
        tgd_plan = prepare(
            tgd, optimize=optimize, codegen_source=codegen_source
        )
        return tgd_plan.run, tgd_plan
    if engine == "xquery":
        from ..xquery.emit import emit_xquery
        from ..xquery.interp import run_query

        query = emit_xquery(tgd)
        return (lambda doc, trace=None: run_query(query, doc, trace=trace)), None
    if engine == "xslt":
        from ..xslt import apply_stylesheet, emit_xslt

        sheet = emit_xslt(tgd)

        def run_xslt(doc: XmlElement, trace=None) -> XmlElement:
            if not trace:
                return apply_stylesheet(sheet, doc)
            # Recorded as failed unless the application returns.
            with trace.span("execute", status="error") as span:
                result = apply_stylesheet(sheet, doc)
                span.attrs.update(
                    status="ok", source_elements=doc.size(),
                    target_elements=result.size(),
                )
            return result

        return run_xslt, None
    raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")


def plan_from_tgd(
    tgd: NestedTgd,
    engine: str = "tgd",
    *,
    fp: str = "",
    optimize: Optional[bool] = None,
    codegen_source: Optional[str] = None,
    target=None,
    report: Optional[ValidityReport] = None,
) -> CompiledPlan:
    """Rebuild a plan from an already-compiled tgd (``target``: the
    schema its results validate against, and ``report``: its validity
    report, when the caller has them).

    Worker processes use this, through :func:`plan_from_description`:
    the parent ships them each step's (picklable) tgd — plus, for
    optimized tgd plans, the cached generated source string — and each
    worker re-emits only its engine artifact.  The Clip compilation and
    validity check never run twice anywhere.
    """
    resolved = resolve_setting(optimize, OPTIMIZE_ENV, True, parse=boolean)
    started = time.perf_counter()
    runner, tgd_plan = _engine_runner(tgd, engine, resolved, codegen_source)
    return CompiledPlan(
        engine, fp, tgd, runner,
        report=report,
        compile_seconds=time.perf_counter() - started,
        optimize=resolved,
        tgd_plan=tgd_plan,
        target=target,
    )


def chain_plans(steps, *, fp: str = "") -> CompiledPlan:
    """One plan applying ``steps`` — ``(plan, span name, span attrs)``
    triples — to each document in order: a pipeline's stages or fused
    groups, under the chain's key ``fp``.

    When step *k* raises — a deadline that passes before or during it
    included — the exception carries ``stage = k``, which
    :class:`~repro.runtime.faults.DocumentFailure` reports.  A traced
    run records one span per step around that step's engine spans.
    """
    steps = tuple(steps)

    def run(doc: XmlElement, trace=None) -> XmlElement:
        for index, (plan, name, attrs) in enumerate(steps):
            span = trace.begin(name, **attrs) if trace else None
            try:
                check_deadline()
                doc = plan.run(doc, trace=trace)
            except Exception as exc:
                setattr(exc, "stage", index)
                if span is not None:
                    trace.end(span, status="error")
                raise
            if span is not None:
                trace.end(span, status="ok")
        return doc

    last = steps[-1][0]
    return CompiledPlan(
        last.engine, fp, None, run, optimize=last.optimize,
        target=last.target, steps=steps,
    )


def plan_from_description(description: tuple) -> CompiledPlan:
    """Rebuild a plan from :meth:`CompiledPlan.description`: each step
    through :func:`plan_from_tgd`, chained unless it is a lone plan."""
    steps = [
        (plan_from_tgd(tgd, engine, optimize=optimize,
                       codegen_source=source), name, attrs)
        for tgd, engine, optimize, source, name, attrs in description
    ]
    plan, name, _ = steps[0]
    return plan if name is None else chain_plans(steps)


def compile_plan(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    require_valid: bool = True,
    fp: Optional[str] = None,
    optimize: Optional[bool] = None,
) -> CompiledPlan:
    """Compile a mapping into a reusable plan for one engine.

    Performs the full once-per-mapping work: Section III validity
    check, tgd compilation, engine-artifact emission, and (for the tgd
    engine, unless ``optimize`` resolves off) the join-aware level
    plans of :mod:`repro.executor.planner` with their generated
    program.  ``fp`` lets callers that already computed the key (the
    cache) skip recomputing it; the default is the
    :func:`canonical_fingerprint` of the tgd compiled here.
    """
    started = time.perf_counter()
    report = check(mapping)
    tgd = compile_clip(mapping, require_valid=require_valid, report=report)
    if fp is None:
        fp = canonical_fingerprint(mapping, engine, optimize=optimize, tgd=tgd)
    plan = plan_from_tgd(
        tgd, engine, fp=fp, optimize=optimize, target=mapping.target,
        report=report,
    )
    plan.compile_seconds = time.perf_counter() - started
    return plan
