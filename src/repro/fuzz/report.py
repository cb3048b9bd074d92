"""The ``clip-fuzz-report`` document: one fuzz run, machine readable.

Format v1 (specified in ``docs/FORMATS.md`` §9) summarizes a farm run:
the seed window, per-axis coverage, every engine/optimize/workers combo
exercised, and each divergence with a pointer to its dead-letter case
directory.  The report is *byte-deterministic*: it carries no wall
clocks, host names or absolute paths, so re-running the same seed
window over the same code yields the identical document — which is the
regression contract CI diffs against.

The only sanctioned nondeterminism is budget truncation: a run under
``--budget-seconds`` may stop early, and ``exhausted_budget`` +
``skipped`` record that honestly.  Unbudgeted runs of the same seed
window are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

FUZZ_REPORT_FORMAT = "clip-fuzz-report"
FUZZ_REPORT_VERSION = 1

#: Versions :func:`parse_report` accepts.
PARSEABLE_FUZZ_VERSIONS = (1,)


@dataclass(frozen=True)
class Divergence:
    """One combo whose output disagreed with the reference execution."""

    case_id: str
    axis: str
    engine: str
    optimize: bool
    workers: int
    #: ``"bytes"`` (tgd/xquery serialize differently) or ``"canonical"``
    #: (XSLT disagrees even modulo sibling order) or ``"error"`` (the
    #: combo raised where the reference succeeded).
    kind: str
    #: First few rendered difference lines (or the error message).
    detail: tuple[str, ...] = ()
    #: Dead-letter case directory name (not an absolute path), when the
    #: farm was given a dead-letter root.
    dead_letter: Optional[str] = None
    #: The oracle that judged the combo: ``"engine"`` (the engine
    #: cross-check) or a per-axis leg (``"incremental"``,
    #: ``"compose"``, ``"round-trip"``); additive in format v1.
    oracle: str = "engine"

    def to_dict(self) -> dict:
        out: dict = {
            "case_id": self.case_id,
            "axis": self.axis,
            "engine": self.engine,
            "optimize": self.optimize,
            "oracle": self.oracle,
            "workers": self.workers,
            "kind": self.kind,
            "detail": list(self.detail),
        }
        if self.dead_letter is not None:
            out["dead_letter"] = self.dead_letter
        return out


@dataclass
class AxisCoverage:
    """How thoroughly one corpus axis was exercised."""

    cases: int = 0
    executed: int = 0
    xslt_eligible: int = 0

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "executed": self.executed,
            "xslt_eligible": self.xslt_eligible,
        }


@dataclass
class FuzzReport:
    """The full run summary; serialize with :meth:`to_json`."""

    seed: int
    count: int
    axes: Sequence[str]
    engines: Sequence[str]
    optimize_modes: Sequence[bool]
    workers: Sequence[int]
    cases: int = 0
    executions: int = 0
    comparisons: int = 0
    #: Incremental (``delta``-axis) legs: transform_delta cross-checked
    #: against a full recompute of the edited document.  Additive in
    #: format v1.
    incremental_checks: int = 0
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    #: Composition (``composition``-axis) legs: the fused one-pass plan
    #: cross-checked byte-for-byte against sequential two-stage
    #: execution.  ``compose_inlined``/``compose_fallbacks`` split the
    #: checks by whether :func:`~repro.algebra.compose_tgds` produced a
    #: fused tgd or declined (sequential fallback).  Additive in v1.
    compose_checks: int = 0
    compose_inlined: int = 0
    compose_fallbacks: int = 0
    #: Round-trip (``round-trip``-axis) legs: source → target →
    #: quasi-inverse(source′) cross-checked against the
    #: containment-predicted core.  Additive in v1.
    round_trip_checks: int = 0
    budget_seconds: Optional[float] = None
    exhausted_budget: bool = False
    skipped: int = 0
    axis_coverage: Mapping[str, AxisCoverage] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "divergent" if self.divergences else "ok"

    def to_dict(self) -> dict:
        return {
            "format": FUZZ_REPORT_FORMAT,
            "version": FUZZ_REPORT_VERSION,
            "seed": self.seed,
            "count": self.count,
            "axes": list(self.axes),
            "engines": list(self.engines),
            "optimize_modes": list(self.optimize_modes),
            "workers": list(self.workers),
            "cases": self.cases,
            "executions": self.executions,
            "comparisons": self.comparisons,
            "incremental_checks": self.incremental_checks,
            "incremental_hits": self.incremental_hits,
            "incremental_fallbacks": self.incremental_fallbacks,
            "compose_checks": self.compose_checks,
            "compose_inlined": self.compose_inlined,
            "compose_fallbacks": self.compose_fallbacks,
            "round_trip_checks": self.round_trip_checks,
            "budget_seconds": self.budget_seconds,
            "exhausted_budget": self.exhausted_budget,
            "skipped": self.skipped,
            "axis_coverage": {
                axis: cov.to_dict()
                for axis, cov in sorted(self.axis_coverage.items())
            },
            "divergences": [d.to_dict() for d in self.divergences],
            "status": self.status,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def parse_report(text: str) -> dict:
    """Validate and load a ``clip-fuzz-report`` document."""
    document = json.loads(text)
    if document.get("format") != FUZZ_REPORT_FORMAT:
        raise ValueError(
            f"not a {FUZZ_REPORT_FORMAT} document: "
            f"format={document.get('format')!r}"
        )
    version = document.get("version")
    if version not in PARSEABLE_FUZZ_VERSIONS:
        raise ValueError(
            f"unsupported {FUZZ_REPORT_FORMAT} version {version!r}; "
            f"parseable: {PARSEABLE_FUZZ_VERSIONS}"
        )
    return document
