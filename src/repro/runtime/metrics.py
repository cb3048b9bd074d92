"""Machine-readable run metrics for batch execution.

Every batch run produces one :class:`BatchMetrics` report: document
counts, plan-cache hits/misses, compile vs. execute vs. wall seconds,
element counts, validation-violation counts and fault accounting.
``to_dict()`` yields a stable, version-tagged document — the contract
the CLI's ``--metrics-json`` writes and CI consumes::

    {
      "format": "clip-batch-metrics",
      "version": 2,
      "engine": "tgd",
      "workers": 4,
      "error_policy": "collect",
      "documents": 90,
      "failures": 10,
      "retries": 3,
      "timeouts": 1,
      "dead_letter": 10,
      "pool_rebuilds": 0,
      "plan_cache": {"hits": 99, "misses": 1, "evictions": 0,
                     "compile_seconds": 0.0004},
      "timings": {"compile_seconds": 0.0004,
                  "execute_seconds": 0.0310,
                  "wall_seconds": 0.0330},
      "source_elements": 12000,
      "target_elements": 4200,
      "validation_violations": 0
    }

``documents`` counts *successful* documents; ``documents + failures``
is the input size.  A pipeline batch is one plan's batch and reports
the same fields.

Version history: version 1 lacked ``error_policy`` and the fault
counters (``failures``/``retries``/``timeouts``/``dead_letter``/
``pool_rebuilds``).  :func:`BatchMetrics.from_dict` parses both
versions — absent fault counters read as zero.  Documents of either
version written before pipelines ran as one plan may carry a
per-stage ``stages`` list; it parses and is ignored.

Version 2 documents may additionally carry an optional ``plan`` key —
the compiled tgd plan's description and per-level runtime counters
(see :mod:`repro.executor.planner`).  The key is additive: documents
without it parse unchanged, so the version stays 2.

Likewise additive is the optional ``trace`` key: a full ``clip-trace``
document (:mod:`repro.runtime.trace`) embedded when the run was traced
(``BatchRunner(trace=…)`` / ``--trace-json``).  Versioning of the
embedded document is the trace format's own; the metrics version stays
2 either way.

A third additive key, ``incremental``, carries the
:class:`~repro.runtime.incremental.IncrementalReport` of a
delta-scoped run (``clip run --incremental`` or the service's
``/transform/delta``): mode, fallback reason, delta/unit accounting.
Documents without it parse unchanged; the version stays 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

METRICS_FORMAT = "clip-batch-metrics"
METRICS_VERSION = 2

#: Versions :func:`BatchMetrics.from_dict` accepts.
PARSEABLE_VERSIONS = (1, 2)


@dataclass
class BatchMetrics:
    """The aggregate report of one batch run."""

    engine: str
    workers: int
    error_policy: str = "fail_fast"
    documents: int = 0
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    dead_letter: int = 0
    pool_rebuilds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    wall_seconds: float = 0.0
    source_elements: int = 0
    target_elements: int = 0
    validation_violations: int = 0
    #: Optional compiled-plan report: ``{"optimize": bool, "levels":
    #: [...], "counters": [...]}`` (tgd engine; counters for inline
    #: runs only — pool workers keep their counters process-local).
    plan: Optional[dict] = None
    #: Optional embedded ``clip-trace`` document (see
    #: :mod:`repro.runtime.trace`): present when the run was traced
    #: and this runner owned the tracer.  Additive, like ``plan``.
    trace: Optional[dict] = None
    #: Optional delta-scoped execution report (see
    #: :mod:`repro.runtime.incremental`): ``IncrementalReport.to_dict()``
    #: of an incremental run.  Additive, like ``plan`` and ``trace``.
    incremental: Optional[dict] = None

    def to_dict(self) -> dict:
        doc = {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "engine": self.engine,
            "workers": self.workers,
            "error_policy": self.error_policy,
            "documents": self.documents,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "dead_letter": self.dead_letter,
            "pool_rebuilds": self.pool_rebuilds,
            "plan_cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "compile_seconds": self.compile_seconds,
            },
            "timings": {
                "compile_seconds": self.compile_seconds,
                "execute_seconds": self.execute_seconds,
                "wall_seconds": self.wall_seconds,
            },
            "source_elements": self.source_elements,
            "target_elements": self.target_elements,
            "validation_violations": self.validation_violations,
        }
        if self.plan is not None:
            doc["plan"] = self.plan
        if self.trace is not None:
            doc["trace"] = self.trace
        if self.incremental is not None:
            doc["incremental"] = self.incremental
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchMetrics":
        """Parse a metrics document of any supported version.

        Version-1 documents (no fault accounting) read back with zero
        failures/retries/timeouts and ``error_policy="fail_fast"`` —
        exactly what their all-or-nothing runs meant.
        """
        if doc.get("format") != METRICS_FORMAT:
            raise ValueError(
                f"not a {METRICS_FORMAT} document: "
                f"format={doc.get('format')!r}"
            )
        version = doc.get("version")
        if version not in PARSEABLE_VERSIONS:
            raise ValueError(
                f"unsupported {METRICS_FORMAT} version {version!r}; "
                f"supported: {PARSEABLE_VERSIONS}"
            )
        plan_cache = doc.get("plan_cache", {})
        timings = doc.get("timings", {})
        return cls(
            engine=doc["engine"],
            workers=doc["workers"],
            error_policy=doc.get("error_policy", "fail_fast"),
            documents=doc.get("documents", 0),
            failures=doc.get("failures", 0),
            retries=doc.get("retries", 0),
            timeouts=doc.get("timeouts", 0),
            dead_letter=doc.get("dead_letter", 0),
            pool_rebuilds=doc.get("pool_rebuilds", 0),
            cache_hits=plan_cache.get("hits", 0),
            cache_misses=plan_cache.get("misses", 0),
            cache_evictions=plan_cache.get("evictions", 0),
            compile_seconds=timings.get("compile_seconds", 0.0),
            execute_seconds=timings.get("execute_seconds", 0.0),
            wall_seconds=timings.get("wall_seconds", 0.0),
            source_elements=doc.get("source_elements", 0),
            target_elements=doc.get("target_elements", 0),
            validation_violations=doc.get("validation_violations", 0),
            plan=doc.get("plan"),
            trace=doc.get("trace"),
            incremental=doc.get("incremental"),
        )

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "BatchMetrics":
        return cls.from_dict(json.loads(text))
