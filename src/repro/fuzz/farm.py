"""The differential fuzz farm: every corpus case, every engine, both
optimizer modes, dead-lettering divergences for replay.

The farm turns the corpus of :mod:`repro.generation.corpus` into a
continuous differential regression net.  For each case it executes a
*reference* combo — the tgd executor, join-aware planner on, in
process — and then cross-checks every other committed combo against
it:

* ``tgd`` with ``optimize=False`` (the naive reference path) must
  serialize **byte-identically** — the reference itself runs the
  plan's generated program (:mod:`repro.executor.codegen`), so every
  dead-letter kit also captures that source (``generated.py``);
* ``xquery`` must serialize **byte-identically** (both full-coverage
  engines follow the paper's iteration order);
* ``xslt`` — probed per case via
  :func:`repro.runtime.eligible_engines`, since XSLT 1.0 covers the
  non-grouped, non-distributed subset only — must agree
  **canonically** (sibling order of unlike tags is unspecified there);
* ``workers > 1`` runs the reference engine through
  :class:`repro.runtime.BatchRunner`'s process pool and must reproduce
  the in-process bytes document-for-document;
* ``delta``-axis cases additionally run an *incremental* leg: the
  case's edit script is applied (:func:`~repro.generation.corpus
  .apply_edits`), and :func:`~repro.runtime.incremental.transform_delta`
  from the base document's target must reproduce a full recompute of
  the edited document **byte-identically** — whether it took the
  scoped path or fell back;
* ``composition``-axis cases additionally run a *compose* leg: the
  second-stage mapping carried in ``params["compose_with"]`` is
  composed with the case's own tgd
  (:func:`~repro.algebra.compose_tgds`), and the fused one-pass plan
  must reproduce the sequential two-stage execution
  **byte-identically**; whether ``compose_tgds`` inlines or declines
  (sequential fallback) is held to the corpus's ``expect_inlined``
  prediction;
* ``round-trip``-axis cases additionally run an *inversion* leg:
  :func:`~repro.algebra.quasi_inverse` is applied to the case's
  target, and the recovered source must match the
  containment-predicted core (:func:`~repro.algebra.predicted_core`)
  **byte-identically** — two independently derived tgds, one required
  answer.

Each check is an *oracle*, named in :data:`ORACLES` and written once
as a *leg*: a :class:`FuzzFarm` method that runs one case under one
combo and returns an :class:`Outcome`, which :func:`compare` judges.
``engine`` runs the combos above on every case, and every other
oracle is a per-axis leg enabled by one corpus parameter.  A
:class:`Combo` records the oracle that judged it; the check and the
replay run the same leg, so a replayed kit reaches its check's verdict.

Any disagreement (or an engine error where the reference succeeded)
becomes a :class:`~repro.fuzz.report.Divergence` in the
``clip-fuzz-report`` and — when a dead-letter root is given — a replay
directory holding the mapping, the source instance, both outputs, the
rendered diff, and a ``clip-trace`` of the leg's own plan.
:func:`FuzzFarm.replay` re-runs a dead-lettered case from exactly
those artifacts.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ..algebra import (
    compose_fingerprint,
    compose_tgds,
    predicted_core,
    quasi_inverse,
)
from ..errors import ComposeError, ReproError
from ..generation.corpus import (
    AXES,
    CorpusCase,
    apply_edits,
    generate_corpus,
    resolve_axes,
)
from ..io import load as load_mapping
from ..io import loads as loads_mapping
from ..io import save as save_mapping
from ..runtime import (
    ENGINES,
    BatchRunner,
    PlanCache,
    SpanTracer,
    eligible_engines,
    plan_from_tgd,
)
from ..runtime.incremental import transform_delta
from ..xml.diff import compute_delta, diff, render_diff
from ..xml.model import XmlElement
from ..xml.parser import parse_xml
from ..xml.serialize import to_xml
from .report import AxisCoverage, Divergence, FuzzReport

#: Manifest format written into each dead-letter case directory.
FUZZ_CASE_FORMAT = "clip-fuzz-case"
FUZZ_CASE_VERSION = 1

#: How many rendered diff lines a divergence carries in the report.
_DETAIL_LINES = 6


class FuzzError(ReproError):
    """A farm-level failure (bad configuration, unreadable case dir)."""


@dataclass(frozen=True)
class Combo:
    """One execution configuration cross-checked against the reference."""

    engine: str
    optimize: bool
    workers: int
    #: The :data:`ORACLES` entry that judged this combo.
    oracle: str = "engine"

    @property
    def slug(self) -> str:
        mode = "opt" if self.optimize else "naive"
        if self.oracle != "engine":
            mode = self.oracle
        return f"{self.engine}-{mode}-w{self.workers}"


@dataclass
class ReplayResult:
    """The outcome of re-running a dead-lettered case."""

    case_id: str
    combo: Combo
    diverged: bool
    differences: list[str] = field(default_factory=list)
    expected_xml: str = ""
    actual_xml: str = ""
    #: The verdict or typed error — set only when ``diverged``.
    error: Optional[str] = None
    trace: Optional[dict] = None


@dataclass
class Outcome:
    """What one oracle leg ran for one case and combo.

    ``expected`` is the answer the leg demands and ``actual`` what the
    run under test produced — or ``error``, the typed exception it
    raised instead.  ``kind`` says how the two compare (``"bytes"`` or
    ``"canonical"``); ``verdict`` holds a failed expectation that is no
    comparison (compose inlining where the corpus predicted a fallback,
    or the reverse).  ``tally`` is the :class:`FuzzReport` counters the
    leg bumps, and ``rerun(trace=...)`` re-runs the leg's own plan
    under a tracer for the kit's ``trace.json``.
    """

    expected: XmlElement
    actual: Optional[XmlElement] = None
    error: Optional[ReproError] = None
    kind: str = "bytes"
    verdict: tuple[str, ...] = ()
    tally: dict[str, int] = field(default_factory=dict)
    rerun: Optional[Callable[..., object]] = None


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def compare(outcome: Outcome) -> tuple[bool, str, tuple[str, ...]]:
    """Judge one leg's outcome: ``(diverged, kind, detail)``.

    The one divergence predicate the check and the replay share.  A
    verdict or an error diverges as kind ``"error"``; otherwise
    ``detail`` is the full rendered diff.  An outcome with nothing to
    compare (a predicted compose fallback) agrees.
    """
    if outcome.verdict:
        return True, "error", outcome.verdict
    if outcome.error is not None:
        return True, "error", (_describe(outcome.error),)
    expected, actual = outcome.expected, outcome.actual
    if actual is None:
        return False, outcome.kind, ()
    if outcome.kind == "canonical":
        agree = expected.equals_canonically(actual)
    else:
        agree = to_xml(expected) == to_xml(actual)
    if agree:
        return False, outcome.kind, ()
    differences = diff(expected.canonical(), actual.canonical())
    if not differences:
        # Canonically equal, byte-different: show the document-order
        # diff instead.
        differences = diff(expected, actual)
    return True, outcome.kind, tuple(render_diff(differences).splitlines())


class FuzzFarm:
    """Differential executor over corpus cases.

    ``engines`` defaults to every committed engine (``tgd``, ``xquery``
    and — where the per-case probe allows — ``xslt``).  ``workers``
    beyond 1 exercises the process-pool path and is markedly slower;
    the CLI and the tier-1 smoke slice keep the default ``(1,)``.
    """

    def __init__(
        self,
        *,
        engines: Optional[Sequence[str]] = None,
        optimize_modes: Sequence[bool] = (True, False),
        workers: Sequence[int] = (1,),
        dead_letter_dir: Union[str, Path, None] = None,
        budget_seconds: Optional[float] = None,
        cache: Optional[PlanCache] = None,
    ):
        self.engines = tuple(engines) if engines is not None else ENGINES
        unknown = [e for e in self.engines if e not in ENGINES]
        if unknown:
            raise FuzzError(
                f"unknown engines {unknown}; choose from {', '.join(ENGINES)}"
            )
        if "tgd" not in self.engines:
            raise FuzzError("the tgd reference engine cannot be disabled")
        self.optimize_modes = tuple(optimize_modes)
        self.workers = tuple(sorted(set(workers)))
        if any(w < 1 for w in self.workers):
            raise FuzzError(f"workers must be >= 1, got {list(workers)}")
        self.dead_letter_dir = (
            Path(dead_letter_dir) if dead_letter_dir is not None else None
        )
        self.budget_seconds = budget_seconds
        self.cache = cache if cache is not None else PlanCache(maxsize=512)

    # -- combo enumeration -------------------------------------------------

    def _combos(self, eligible: Sequence[str]) -> list[Combo]:
        """Every cross-check combo for one case, reference excluded.

        The optimizer toggle only exists on the tgd engine (xquery and
        xslt have no join-aware planner), so ``optimize=False`` is
        enumerated for tgd alone — anything else would re-run identical
        work under a different label.
        """
        combos: list[Combo] = []
        if False in self.optimize_modes:
            combos.append(Combo("tgd", False, 1))
        for engine in ("xquery", "xslt"):
            if engine in self.engines and engine in eligible:
                combos.append(Combo(engine, True, 1))
        for w in self.workers:
            if w > 1:
                combos.append(Combo("tgd", True, w))
        return combos

    # -- execution ---------------------------------------------------------

    def _execute(
        self, case: CorpusCase, combo: Combo, *, trace: Optional[SpanTracer] = None
    ) -> XmlElement:
        if combo.workers > 1:
            runner = BatchRunner(
                case.mapping,
                engine=combo.engine,
                workers=combo.workers,
                optimize=combo.optimize,
                cache=self.cache,
            )
            return runner.run([case.instance]).results[0]
        plan = self.cache.get_or_compile(
            case.mapping, combo.engine, optimize=combo.optimize
        )
        return plan.run(case.instance, trace=trace)

    def _check_case(self, case: CorpusCase, report: FuzzReport) -> None:
        """Run every oracle the case enables against the reference: each
        leg once per combo, its counters tallied, its outcome judged by
        :func:`compare`."""
        reference = self.cache.get_or_compile(
            case.mapping, "tgd", optimize=True
        )
        target = reference(case.instance)
        report.executions += 1
        eligible = eligible_engines(reference.tgd)
        if "xslt" in eligible:
            report.axis_coverage[case.axis].xslt_eligible += 1
        for name, oracle in ORACLES.items():
            if oracle.param is not None and not case.params.get(oracle.param):
                continue
            combos = (
                self._combos(eligible) if name == "engine"
                else [Combo("tgd", True, 1, name)]
            )
            for combo in combos:
                outcome = oracle.leg(self, case, combo, reference, target)
                for counter, n in outcome.tally.items():
                    setattr(report, counter, getattr(report, counter) + n)
                diverged, kind, detail = compare(outcome)
                if diverged:
                    self._record(
                        case, combo, report,
                        kind=kind,
                        detail=detail[:_DETAIL_LINES],
                        expected=outcome.expected,
                        actual=None if kind == "error" else outcome.actual,
                        rerun=outcome.rerun,
                    )

    # -- oracle legs: one case, one combo, one Outcome ---------------------

    def _engine_leg(
        self, case: CorpusCase, combo: Combo, reference, target: XmlElement
    ) -> Outcome:
        """The ``engine`` oracle: one cross-check combo against the
        reference output — bytes, or canonically for XSLT."""
        outcome = Outcome(
            target,
            kind="canonical" if combo.engine == "xslt" else "bytes",
            tally={"executions": 1, "comparisons": 1},
            # Pool combos trace an in-process run: a deterministic
            # single-process trace is the more useful kit artifact.
            rerun=functools.partial(
                self._execute, case, replace(combo, workers=1)
            ),
        )
        try:
            outcome.actual = self._execute(case, combo)
        except ReproError as exc:
            outcome.error = exc
        return outcome

    def _incremental_leg(
        self, case: CorpusCase, combo: Combo, reference, target: XmlElement
    ) -> Outcome:
        """The ``delta``-axis leg: apply the case's edit script and
        cross-check :func:`transform_delta` (from the base document's
        target) against a full recompute of the edited one."""
        edited = apply_edits(case.instance, case.params["edits"])
        outcome = Outcome(
            reference(edited),
            tally={"executions": 2, "comparisons": 1, "incremental_checks": 1},
            rerun=functools.partial(reference.run, case.instance),
        )
        try:
            delta = compute_delta(case.instance, edited)
            outcome.actual, inc_report = transform_delta(
                reference, case.instance, target, delta, new_source=edited,
            )
        except ReproError as exc:
            outcome.error = exc
            return outcome
        path = "hits" if inc_report.incremental else "fallbacks"
        outcome.tally[f"incremental_{path}"] = 1
        return outcome

    def _compose_leg(
        self, case: CorpusCase, combo: Combo, reference, target: XmlElement
    ) -> Outcome:
        """The ``composition``-axis leg: compose the case's ``A→B`` tgd
        with the ``B→C`` stage in ``params["compose_with"]`` and
        cross-check the fused one-pass plan against sequential
        two-stage execution, byte for byte; whether compose inlines at
        all is held to the corpus's ``expect_inlined`` prediction."""
        second = loads_mapping(case.params["compose_with"])
        second_plan = self.cache.get_or_compile(second, "tgd", optimize=True)
        outcome = Outcome(
            second_plan(target), tally={"compose_checks": 1, "executions": 1}
        )
        expect_inlined = bool(case.params.get("expect_inlined"))
        try:
            fused_tgd = compose_tgds(reference.tgd, second_plan.tgd)
        except ComposeError as exc:
            outcome.tally["compose_fallbacks"] = 1
            if expect_inlined:
                outcome.verdict = (
                    "compose declined where the corpus predicted inlining",
                    _describe(exc),
                )
            return outcome
        outcome.tally.update(compose_inlined=1, executions=2, comparisons=1)
        if not expect_inlined:
            outcome.verdict = (
                "compose inlined where the corpus predicted a sequential"
                " fallback",
            )
        # Both stage keys are at the fused plan's engine and optimize.
        fp = compose_fingerprint(reference.fingerprint, second_plan.fingerprint)
        try:
            fused_plan = plan_from_tgd(fused_tgd, "tgd", fp=fp, optimize=True)
            outcome.rerun = functools.partial(fused_plan.run, case.instance)
            outcome.actual = fused_plan.run(case.instance)
        except ReproError as exc:
            outcome.error = exc
        return outcome

    def _round_trip_leg(
        self, case: CorpusCase, combo: Combo, reference, target: XmlElement
    ) -> Outcome:
        """The ``round-trip``-axis leg: run the quasi-inverse over the
        case's target and cross-check the recovered source against the
        independently derived containment-predicted core."""
        # Until both sides exist the target stands as ``expected``:
        # that is what an error kit records.
        outcome = Outcome(
            target,
            tally={"round_trip_checks": 1, "executions": 2, "comparisons": 1},
        )
        try:
            inverse_plan = self.cache.get_or_compile(
                quasi_inverse(case.mapping), "tgd", optimize=True
            )
            outcome.rerun = functools.partial(inverse_plan.run, target)
            actual = inverse_plan(target)
            outcome.expected = predicted_core(case.mapping, case.instance)
            outcome.actual = actual
        except ReproError as exc:
            outcome.error = exc
        return outcome

    def _record(
        self,
        case: CorpusCase,
        combo: Combo,
        report: FuzzReport,
        *,
        kind: str,
        detail: tuple[str, ...],
        expected: XmlElement,
        actual: Optional[XmlElement] = None,
        rerun: Optional[Callable[..., object]] = None,
    ) -> None:
        letter_name = None
        if self.dead_letter_dir is not None:
            letter_name = self._dead_letter(
                case, combo, kind=kind, detail=detail,
                expected=expected, actual=actual, rerun=rerun,
            )
        report.divergences.append(
            Divergence(
                case_id=case.case_id,
                axis=case.axis,
                engine=combo.engine,
                optimize=combo.optimize,
                workers=combo.workers,
                kind=kind,
                detail=detail,
                dead_letter=letter_name,
                oracle=combo.oracle,
            )
        )

    # -- dead letters ------------------------------------------------------

    def _dead_letter(
        self,
        case: CorpusCase,
        combo: Combo,
        *,
        kind: str,
        detail: tuple[str, ...],
        expected: XmlElement,
        actual: Optional[XmlElement],
        rerun: Optional[Callable[..., object]],
    ) -> str:
        assert self.dead_letter_dir is not None
        name = f"{case.case_id}--{combo.slug}"
        directory = self.dead_letter_dir / name
        directory.mkdir(parents=True, exist_ok=True)
        save_mapping(case.mapping, str(directory / "mapping.json"))
        (directory / "source.xml").write_text(
            to_xml(case.instance), encoding="utf-8"
        )
        (directory / "expected.xml").write_text(
            to_xml(expected), encoding="utf-8"
        )
        if actual is not None:
            (directory / "actual.xml").write_text(
                to_xml(actual), encoding="utf-8"
            )
        trace = self._trace(rerun)
        if trace is not None:
            (directory / "trace.json").write_text(
                json.dumps(trace, indent=2, sort_keys=True), encoding="utf-8"
            )
        source = self._generated_source(case)
        if source is not None:
            (directory / "generated.py").write_text(source, encoding="utf-8")
        manifest = {
            "format": FUZZ_CASE_FORMAT,
            "version": FUZZ_CASE_VERSION,
            "case_id": case.case_id,
            "axis": case.axis,
            "seed": case.seed,
            "index": case.index,
            "params": dict(case.params),
            "fingerprint": case.fingerprint(),
            "combo": {
                "engine": combo.engine,
                "optimize": combo.optimize,
                "workers": combo.workers,
                "oracle": combo.oracle,
            },
            "kind": kind,
            "detail": list(detail),
        }
        (directory / "case.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        return name

    @staticmethod
    def _trace(rerun: Optional[Callable[..., object]]) -> Optional[dict]:
        """Re-run a leg's own plan under a tracer, best effort: the
        kit's ``trace.json`` and a replay's ``trace``."""
        if rerun is None:
            return None
        tracer = SpanTracer()
        try:
            rerun(trace=tracer)
        except ReproError:
            pass  # the error itself is in the manifest
        trace = tracer.to_trace()
        return trace.to_dict() if trace.spans else None

    def _generated_source(self, case: CorpusCase) -> Optional[str]:
        """The generated Python of this case's reference plan, best
        effort — the replay kit's most useful artifact when the
        optimized program disagrees with another engine."""
        try:
            plan = self.cache.get_or_compile(case.mapping, "tgd", optimize=True)
        except ReproError:
            return None
        return plan.tgd_plan.program.source

    # -- entry points ------------------------------------------------------

    def run(self, cases: Iterable[CorpusCase], report: FuzzReport) -> FuzzReport:
        """Cross-check ``cases``, mutating and returning ``report``."""
        started = time.monotonic()
        pending = list(cases)
        report.cases = len(pending)
        for axis in report.axes:
            report.axis_coverage.setdefault(axis, AxisCoverage())
        for case in pending:
            coverage = report.axis_coverage.setdefault(
                case.axis, AxisCoverage()
            )
            coverage.cases += 1
        for position, case in enumerate(pending):
            if self.budget_seconds is not None and (
                time.monotonic() - started >= self.budget_seconds
            ):
                report.exhausted_budget = True
                report.skipped = len(pending) - position
                break
            self._check_case(case, report)
            report.axis_coverage[case.axis].executed += 1
        return report

    def run_corpus(
        self,
        seed: int = 7,
        count: int = 100,
        *,
        axes: Optional[Sequence[str]] = None,
    ) -> FuzzReport:
        """Generate the ``(seed, count, axes)`` corpus and cross-check it."""
        selected = resolve_axes(axes)
        report = FuzzReport(
            seed=seed,
            count=count,
            axes=selected,
            engines=self.engines,
            optimize_modes=self.optimize_modes,
            workers=self.workers,
            budget_seconds=self.budget_seconds,
        )
        return self.run(generate_corpus(seed, count, axes=selected), report)

    # -- replay ------------------------------------------------------------

    def replay(self, case_dir: Union[str, Path]) -> ReplayResult:
        """Re-run one dead-lettered divergence from its artifacts.

        Loads the persisted mapping and source instance, runs the
        recorded oracle's leg once and judges it with :func:`compare`
        — the very step the check took — so the replay reports whether
        the divergence still reproduces; after an engine fix it comes
        back clean.
        """
        directory = Path(case_dir)
        manifest_path = directory / "case.json"
        if not manifest_path.is_file():
            raise FuzzError(f"no case.json in {directory}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != FUZZ_CASE_FORMAT:
            raise FuzzError(
                f"{manifest_path} is not a {FUZZ_CASE_FORMAT} document"
            )
        mapping = load_mapping(str(directory / "mapping.json"))
        instance = parse_xml(
            (directory / "source.xml").read_text(encoding="utf-8"),
            mapping.source,
        )
        recorded = manifest["combo"]
        # Kits written before the oracle field carry ``exec_mode``:
        # ``interp`` and ``codegen`` both meant the engine cross-check
        # (now always the optimized generated program), and the leg
        # names were already oracle names.
        oracle = recorded.get("oracle", recorded.get("exec_mode", "engine"))
        if oracle in ("interp", "codegen"):
            oracle = "engine"
        if oracle not in ORACLES:
            raise FuzzError(f"{manifest_path} names unknown oracle {oracle!r}")
        combo = Combo(
            engine=recorded["engine"],
            optimize=bool(recorded["optimize"]),
            workers=int(recorded["workers"]),
            oracle=oracle,
        )
        case = CorpusCase(
            case_id=manifest["case_id"],
            axis=manifest["axis"],
            seed=manifest["seed"],
            index=manifest["index"],
            mapping=mapping,
            instance=instance,
            params=manifest.get("params", {}),
        )
        reference = self.cache.get_or_compile(mapping, "tgd", optimize=True)
        outcome = ORACLES[oracle].leg(
            self, case, combo, reference, reference(case.instance)
        )
        diverged, kind, detail = compare(outcome)
        failed = kind == "error"
        return ReplayResult(
            case_id=case.case_id,
            combo=combo,
            diverged=diverged,
            differences=[] if failed else list(detail),
            expected_xml=to_xml(outcome.expected),
            actual_xml="" if outcome.actual is None else to_xml(outcome.actual),
            error="; ".join(detail) if failed else None,
            trace=self._trace(outcome.rerun),
        )


class Oracle(NamedTuple):
    """One differential oracle: the corpus parameter that enables it
    (``None``: every case) and its *leg* — the :class:`FuzzFarm`
    method that runs one case under one combo and returns an
    :class:`Outcome`.  The check and the replay both run the leg and
    judge it with :func:`compare`, so a kit replays to the verdict its
    check reached."""

    param: Optional[str]
    leg: Callable[..., Outcome]


#: Every oracle, by the name a :class:`Combo` records — adding one
#: means adding its leg and an entry here.
ORACLES: dict[str, Oracle] = {
    "engine": Oracle(None, FuzzFarm._engine_leg),
    "incremental": Oracle("edits", FuzzFarm._incremental_leg),
    "compose": Oracle("compose_with", FuzzFarm._compose_leg),
    "round-trip": Oracle("round_trip", FuzzFarm._round_trip_leg),
}


def run_fuzz(
    seed: int = 7,
    count: int = 100,
    *,
    axes: Optional[Sequence[str]] = None,
    workers: Sequence[int] = (1,),
    budget_seconds: Optional[float] = None,
    dead_letter_dir: Union[str, Path, None] = None,
    cache: Optional[PlanCache] = None,
) -> FuzzReport:
    """One-call farm run over the ``(seed, count, axes)`` corpus."""
    farm = FuzzFarm(
        workers=workers,
        budget_seconds=budget_seconds,
        dead_letter_dir=dead_letter_dir,
        cache=cache,
    )
    return farm.run_corpus(seed, count, axes=axes)


__all__ = [
    "AXES",
    "Combo",
    "FuzzError",
    "FuzzFarm",
    "ORACLES",
    "Oracle",
    "ReplayResult",
    "run_fuzz",
]
