"""Compiled execution plans: compile a mapping once, run it many times.

Section VI's point is that a Clip mapping is *compiled* — the nested
tgd, the emitted XQuery, the generated XSLT are all artifacts of the
mapping alone — and then applied to arbitrarily many instance
documents.  :class:`CompiledPlan` reifies that split: everything that
depends only on ``(mapping, engine)`` happens in :func:`compile_plan`
(validity check, tgd compilation, engine-artifact emission, evaluation
ordering), and applying the plan to a document touches none of it.

:func:`fingerprint` gives plans a stable identity: the SHA-256 of the
mapping's persistent JSON document (schemas as XSD text plus the drawn
lines, see :mod:`repro.io`) combined with the engine name.  Two
structurally equal mappings — the same drawing, loaded twice —
fingerprint identically; any structural edit changes the digest.  The
plan cache (:mod:`repro.runtime.cache`) keys on exactly this.
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
from ..io import dumps as _dump_mapping
from ..settings import boolean, resolve_setting
from ..xml.model import XmlElement

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
    """A stable content fingerprint of ``(mapping, engine, optimize)``.

    Structural: computed from the mapping's persistent JSON document,
    so distinct in-memory objects describing the same drawing share a
    fingerprint, and any edit (a new value mapping, a changed
    condition, a different schema) produces a new one.

    The (resolved) ``optimize`` flag participates so that a shared
    plan cache never serves an optimized plan to a caller that asked
    for the naive reference path, or vice versa.  The default
    (optimized) case keeps the historical payload, so fingerprints
    recorded before the planner existed still match.
    """
    payload = f"{engine}{_marker(engine, optimize)}\n{_dump_mapping(mapping)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_fingerprint(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    optimize: Optional[bool] = None,
) -> str:
    """A *semantic* plan fingerprint: alpha-renamed-equivalent mappings
    share it.

    Hashes the canonical normal form of the compiled tgd
    (:func:`repro.algebra.canonical_render`) instead of the persistent
    JSON document, so two drawings that differ only in bound variable
    names or ``where``-conjunct order key the same cache slot.  The
    engine / optimize markers participate exactly as in
    :func:`fingerprint`, plus a ``|canonical`` tag so canonical and
    structural keys can never collide.

    Used by :class:`repro.runtime.cache.PlanCache` when canonicalization
    is enabled (``CLIP_CACHE_CANONICALIZE``).
    """
    from ..algebra.normalize import canonical_render

    marker = _marker(engine, optimize)
    tgd = mapping if isinstance(mapping, NestedTgd) else compile_clip(mapping)
    payload = f"{engine}{marker}|canonical\n{canonical_render(tgd)}"
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
    target schema results validate against.
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
        "_runner",
    )

    def __init__(
        self,
        engine: str,
        fp: str,
        tgd: NestedTgd,
        runner: Callable[[XmlElement], XmlElement],
        *,
        report: Optional[ValidityReport] = None,
        compile_seconds: float = 0.0,
        optimize: bool = True,
        tgd_plan: Optional[TgdPlan] = None,
        target=None,
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
        self._runner = runner

    def plan_report(self) -> Optional[dict]:
        """The compiled-plan description plus accumulated counters, or
        ``None`` when the engine has no planner (xquery/xslt)."""
        if self.tgd_plan is None or self.tgd_plan.planned is None:
            if self.engine == "tgd":
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
    spans; XSLT has no internal instrumentation, so its closure accepts
    and ignores the tracer (the batch layer's attempt spans still
    cover it).
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
        return (lambda doc, trace=None: apply_stylesheet(sheet, doc)), None
    raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")


def plan_from_tgd(
    tgd: NestedTgd,
    engine: str = "tgd",
    *,
    fp: str = "",
    optimize: Optional[bool] = None,
    codegen_source: Optional[str] = None,
    target=None,
) -> CompiledPlan:
    """Rebuild a plan from an already-compiled tgd (``target``: the
    schema its results validate against, when the caller has one).

    Worker processes use this: the parent ships them the (picklable)
    tgd — plus, for optimized tgd plans, the cached generated source
    string (source pickles; code objects don't) — and each worker
    re-emits only its engine artifact.  The Clip compilation and
    validity check never run twice anywhere.
    """
    resolved = resolve_setting(optimize, OPTIMIZE_ENV, True, parse=boolean)
    started = time.perf_counter()
    runner, tgd_plan = _engine_runner(tgd, engine, resolved, codegen_source)
    return CompiledPlan(
        engine, fp, tgd, runner,
        compile_seconds=time.perf_counter() - started,
        optimize=resolved,
        tgd_plan=tgd_plan,
        target=target,
    )


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
    program.  ``fp`` lets callers that already computed the
    fingerprint (the cache) skip recomputing it.
    """
    resolved = resolve_setting(optimize, OPTIMIZE_ENV, True, parse=boolean)
    if fp is None:
        fp = fingerprint(mapping, engine, optimize=resolved)
    started = time.perf_counter()
    report = check(mapping)
    tgd = compile_clip(mapping, require_valid=require_valid, report=report)
    runner, tgd_plan = _engine_runner(tgd, engine, resolved)
    return CompiledPlan(
        engine, fp, tgd, runner,
        report=report,
        compile_seconds=time.perf_counter() - started,
        optimize=resolved,
        tgd_plan=tgd_plan,
        target=mapping.target,
    )
