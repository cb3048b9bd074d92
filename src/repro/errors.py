"""Exception hierarchy for the Clip reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the subsystems:
instances (:class:`XmlError`), schemas (:class:`SchemaError`), the Clip
language (:class:`MappingError`), mapping generation
(:class:`GenerationError`) and query translation/evaluation
(:class:`XQueryError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class XmlError(ReproError):
    """Malformed XML instance data or an illegal instance operation."""


class XmlParseError(XmlError):
    """The XML text could not be parsed into an instance tree."""


class PathError(XmlError):
    """A path expression is malformed or cannot be evaluated."""


class SchemaError(ReproError):
    """An XML Schema is malformed or an illegal schema operation occurred."""


class SchemaParseError(SchemaError):
    """The XSD text could not be parsed into a schema tree."""


class ValidationError(SchemaError):
    """An instance does not conform to its schema.

    The validator normally returns a report of violations; this exception
    is raised by ``validate(..., raise_on_error=True)`` convenience calls.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations) or "invalid instance"
        super().__init__(lines)


class MappingError(ReproError):
    """A Clip mapping is structurally malformed (not merely *invalid*).

    Invalid-but-expressible mappings (Section III of the paper) are
    reported through :class:`repro.core.validity.ValidityReport`; this
    exception is reserved for constructions the object model cannot
    represent at all (e.g. a build node with two outgoing builders).
    """


class InvalidMappingError(MappingError):
    """Raised when a compile/execute step requires a valid mapping.

    Carries the validity report so callers can inspect the offending
    rules.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class CompileError(MappingError):
    """The Clip-to-tgd compiler could not translate a mapping."""


class ExecutionError(ReproError):
    """The tgd executor failed to evaluate a mapping over an instance."""


class TransientError(ReproError):
    """An error expected to succeed on retry (I/O hiccup, resource
    pressure, injected transient fault).

    The batch runtime's retry policy re-attempts documents that fail
    with a transient error; everything else is permanent and goes
    straight to the dead-letter set.  See
    :func:`repro.runtime.retry.is_transient`.
    """


class DocumentTimeout(TransientError):
    """A single document's evaluation exceeded its wall-clock budget.

    Raised by the per-document timeout of the batch runtime
    (``BatchRunner(timeout=…)``); classified transient, so a retry
    policy may re-attempt the document.
    """


class DocumentFailureError(ExecutionError):
    """A document failed under ``error_policy="fail_fast"``.

    Carries the :class:`repro.runtime.faults.DocumentFailure` record as
    ``failure`` so callers see the document index, stage, attempt count
    and truncated traceback even when the original exception object is
    unavailable (worker-process failures cross the pool boundary as
    records, not exceptions).
    """

    def __init__(self, failure):
        self.failure = failure
        super().__init__(str(failure))


class WorkerCrashError(ExecutionError):
    """A pool worker died and the batch could not be completed.

    The runner rebuilds a crashed pool once and replays the in-flight
    documents; a second crash raises this error.
    """


class WorkerSetupError(ReproError):
    """The worker pool cannot be started in this environment.

    Raised eagerly — with the fix in the message — instead of letting
    the pool die with an opaque traceback (e.g. ``spawn`` children that
    cannot import :mod:`repro` because ``PYTHONPATH`` lacks ``src``).
    """


class ServiceError(ReproError):
    """A request to the mapping service could not be served.

    The HTTP layer (:mod:`repro.service`) maps this hierarchy — and the
    rest of :mod:`repro.errors` — onto structured JSON error envelopes
    with appropriate status codes; see ``repro.service.app.error_status``.
    """


class AuthError(ServiceError):
    """A service request failed HMAC authentication (missing or wrong
    ``X-Clip-Signature`` when the shared secret is configured)."""


class UnknownMappingError(ServiceError):
    """A transform request referenced a mapping fingerprint that was
    never registered (``POST /mappings``) with the service."""


class PayloadTooLargeError(ServiceError):
    """A request body exceeded the service's configured size ceiling."""


class OverloadError(TransientError):
    """The service shed a request because too many were in flight.

    Transient by definition — the client should back off and retry —
    so the triage of :func:`repro.runtime.retry.is_transient` applies.
    """


class AlgebraError(ReproError):
    """A mapping-algebra operation could not be carried out.

    The algebra (:mod:`repro.algebra`) works on a *symbolic fragment* of
    the nested-tgd language; operations outside that fragment raise a
    subclass naming the offending construct rather than producing a
    semantically wrong result."""


class ComposeError(AlgebraError):
    """Two mappings could not be composed into a single tgd.

    Composition falls back to sequential execution in this case; the
    ``reason`` attribute carries a stable, machine-readable tag."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        message = reason if not detail else f"{reason}: {detail}"
        super().__init__(message)


class InverseError(AlgebraError):
    """A mapping lies outside the invertible (copy-like) fragment."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        message = reason if not detail else f"{reason}: {detail}"
        super().__init__(message)


class GenerationError(ReproError):
    """Mapping generation (tableaux/skeletons/nesting) failed."""


class XQueryError(ReproError):
    """XQuery emission, serialization or interpretation failed."""


class XQueryTypeError(XQueryError):
    """An XQuery expression was applied to values of the wrong type."""
