"""Continuous differential fuzzing across engines and optimizer modes.

* :mod:`repro.fuzz.farm` — :class:`FuzzFarm`, the differential runner:
  every corpus case through tgd (optimized and naive), XQuery, XSLT
  (where eligible) and the process-pool path, plus the per-axis
  oracles of :data:`ORACLES`, dead-lettering any divergence with its
  ``clip-trace`` for replay;
* :mod:`repro.fuzz.report` — the byte-deterministic
  ``clip-fuzz-report`` v1 document (``docs/FORMATS.md`` §9).

Quickstart::

    from repro.fuzz import run_fuzz

    report = run_fuzz(seed=7, count=100, dead_letter_dir="dead-letters")
    assert report.status == "ok", report.to_json()
"""

from __future__ import annotations

from .farm import ORACLES, Combo, FuzzError, FuzzFarm, Oracle, ReplayResult, run_fuzz
from .report import (
    FUZZ_REPORT_FORMAT,
    FUZZ_REPORT_VERSION,
    PARSEABLE_FUZZ_VERSIONS,
    AxisCoverage,
    Divergence,
    FuzzReport,
    parse_report,
)

__all__ = [
    "AxisCoverage",
    "Combo",
    "Divergence",
    "FUZZ_REPORT_FORMAT",
    "FUZZ_REPORT_VERSION",
    "FuzzError",
    "FuzzFarm",
    "FuzzReport",
    "ORACLES",
    "Oracle",
    "PARSEABLE_FUZZ_VERSIONS",
    "ReplayResult",
    "parse_report",
    "run_fuzz",
]
