"""The mapping service: HTTP-shaped request handling over the batch runtime.

:class:`ClipService` is transport-independent — :meth:`ClipService.dispatch`
takes ``(method, path, headers, body)`` and returns a
:class:`ServiceResponse`; :mod:`repro.service.server` adapts it onto
``http.server``.  That split keeps the entire request surface testable
without sockets and the HTTP layer a thin shim.

Endpoints
---------

* ``POST /mappings`` — register a ``clip-mapping`` JSON document
  (optionally ``?engine=``/``?optimize=``); compiles it
  once into the shared :class:`~repro.runtime.cache.PlanCache` and
  returns the fingerprint that transform requests address it by.
  Re-registering is idempotent and a visible plan-cache hit.  With a
  canonicalizing cache (``CLIP_CACHE_CANONICALIZE``) the fingerprint is
  the *canonical* one — an alpha-renamed variant of a registered
  mapping registers as a cache hit without a second compile.
* ``POST /mappings/compose`` — fuse two registered mappings (JSON
  envelope ``{"first": FP_AB, "second": FP_BC}``) into one composed
  ``A→C`` plan via :func:`repro.algebra.compose_tgds`; the composed
  entry is addressable by its :func:`repro.algebra.compose_fingerprint`
  exactly like a registered mapping, and transforms through it are
  byte-identical to chaining the two originals.  Pairs outside the
  composable fragment answer 422 with the :class:`ComposeError` reason.
* ``POST /transform?mapping=FP`` — transform one document (raw XML
  body, or a JSON envelope ``{"mapping": …, "document": …}``); the
  response body is the output XML, byte-identical to what the CLI
  ``run -o`` writes for the same inputs.
* ``POST /transform/batch`` — transform many documents through
  :class:`~repro.runtime.batch.BatchRunner` (JSON envelope); each
  result's XML is byte-identical to the file CLI ``batch --output-dir``
  writes.
* ``POST /transform/delta`` — re-transform an *edited* document
  incrementally (JSON envelope ``{"request": "req-…", "document":
  …}``): the named past transform supplies the previous source/target
  pair, :func:`~repro.runtime.incremental.transform_delta` recomputes
  only what the edit can reach, and the response XML is byte-identical
  to a full ``POST /transform`` of the edited document.  Responses are
  themselves stored in history, so successive edits chain.
* ``GET /requests/{id}[/metrics|/trace|/explain]`` — the
  ``clip-batch-metrics`` / ``clip-trace`` / ``clip-plan-explain``
  payloads of a past transform request (bounded history).
* ``GET /mappings[/{fp}]`` — registry listing and per-mapping detail
  (compiled-plan report, served via :meth:`PlanCache.peek` so
  inspection never skews the hit/miss statistics).
* ``GET /health`` — liveness (open even when HMAC auth is on).
* ``GET /metrics`` — Prometheus text exposition
  (:mod:`repro.service.metrics`).

Production-safety contract (the heimdex worker idioms): every request
runs under a :class:`~repro.runtime.retry.Deadline` whose overrun is
the same transient :class:`~repro.errors.DocumentTimeout` the batch
timeout raises (returned as a structured 504); malformed documents and
per-document failures shed into the existing error-policy/dead-letter
machinery instead of crashing the server; the in-flight ceiling sheds
excess load with 503; errors map onto structured JSON envelopes from
the :mod:`repro.errors` hierarchy; optional HMAC auth guards every
parsing path.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import errors as errors_module
from ..algebra import compose_fingerprint, compose_tgds
from ..core.compile import compile_clip
from ..core.mapping import ClipMapping
from ..core.tgd import NestedTgd
from ..errors import (
    AlgebraError,
    AuthError,
    DocumentFailureError,
    DocumentTimeout,
    ExecutionError,
    GenerationError,
    InvalidMappingError,
    MappingError,
    OverloadError,
    PayloadTooLargeError,
    ReproError,
    SchemaError,
    ServiceError,
    TransientError,
    UnknownMappingError,
    XmlError,
    XQueryError,
)
from ..executor.planner import OPTIMIZE_ENV
from ..executor.stats import PlanExplain
from ..io import loads as load_mapping_text
from ..runtime import (
    BatchMetrics,
    BatchRunner,
    CompiledPlan,
    DeadLetter,
    Deadline,
    DocumentFailure,
    ErrorPolicy,
    PlanCache,
    SpanTracer,
    is_transient,
    plan_from_tgd,
    transform_delta,
    write_dead_letters,
)
from ..xml.diff import compute_delta
from ..runtime.plan import ENGINES
from ..settings import boolean, resolve_setting
from ..xml.model import XmlElement
from ..xml.parser import parse_xml
from ..xml.serialize import to_xml
from .auth import SIGNATURE_HEADER, verify_signature
from .config import ServiceConfig
from .metrics import ServiceMetrics

#: Schema identifiers of the JSON documents the service emits.
ERROR_FORMAT = "clip-service-error"
ERROR_VERSION = 1
BATCH_FORMAT = "clip-service-batch"
BATCH_VERSION = 1
MAPPING_FORMAT = "clip-service-mapping"
MAPPING_VERSION = 1

#: The repro.errors hierarchy mapped onto HTTP statuses, most specific
#: first — the first ``isinstance`` match wins.
_STATUS_BY_TYPE: Tuple[Tuple[type, int], ...] = (
    (AuthError, 401),
    (UnknownMappingError, 404),
    (PayloadTooLargeError, 413),
    (OverloadError, 503),
    (DocumentTimeout, 504),
    (TransientError, 503),
    (AlgebraError, 422),
    (InvalidMappingError, 422),
    (XmlError, 400),
    (SchemaError, 400),
    (MappingError, 400),
    (GenerationError, 400),
    (XQueryError, 500),
    (ExecutionError, 500),
    (ServiceError, 400),
    (ReproError, 500),
    (ValueError, 400),
)


def error_status(error: BaseException) -> int:
    """The HTTP status for an exception, per the hierarchy table."""
    for cls, status in _STATUS_BY_TYPE:
        if isinstance(error, cls):
            return status
    return 500


def status_for_failure(failure: DocumentFailure) -> int:
    """The HTTP status for a :class:`DocumentFailure` record.

    Failure records cross the worker-pool boundary carrying the
    exception *class name*, not the object; resolve it against
    :mod:`repro.errors` and fall back on the transient triage.
    """
    if failure.timed_out:
        return 504
    cls = getattr(errors_module, failure.error, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        for klass, status in _STATUS_BY_TYPE:
            if issubclass(cls, klass):
                return status
    return 503 if failure.transient else 500


class ServiceResponse(NamedTuple):
    """One response: status, content type, body bytes, extra headers."""

    status: int
    content_type: str
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = ()


def _exec_mode(engine: str, optimize: bool) -> str:
    """The ``exec_mode`` a registry entry reports: ``"codegen"`` when
    optimized tgd plans run as generated code, ``"interp"`` otherwise."""
    return "codegen" if engine == "tgd" and optimize else "interp"


@dataclass(frozen=True)
class RegisteredMapping:
    """One registry entry: a mapping pinned to its execution strategy."""

    fingerprint: str
    mapping: ClipMapping
    engine: str
    optimize: bool

    def describe(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "optimize": self.optimize,
            "exec_mode": _exec_mode(self.engine, self.optimize),
        }


@dataclass(frozen=True)
class RegisteredComposition:
    """One composed registry entry: an ``A→C`` tgd fused from two
    registered mappings, pinned to its execution strategy.

    There is no Clip mapping behind it — the composed nested tgd *is*
    the artifact — so the entry carries the schemas transforms need
    (the first operand's source, the second's target) and enough to
    rebuild the plan after a cache eviction.
    """

    fingerprint: str
    tgd: NestedTgd
    source: object  # the first operand's source XSD schema
    target: object  # the second operand's target XSD schema
    engine: str
    optimize: bool
    first: str
    second: str

    def describe(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "optimize": self.optimize,
            "exec_mode": _exec_mode(self.engine, self.optimize),
            "composed": [self.first, self.second],
        }


def _json_body(doc: dict, status: int = 200,
               headers: Tuple[Tuple[str, str], ...] = ()) -> ServiceResponse:
    payload = (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    return ServiceResponse(status, "application/json; charset=utf-8",
                           payload, headers)


def _flag(value: Optional[str]) -> bool:
    """A boolean query parameter (``1``/``true``/``yes``/``on``)."""
    return value is not None and value.strip().lower() in (
        "1", "true", "yes", "on"
    )


def _optimize_param(params: dict) -> bool:
    """The ``?optimize=`` query parameter, resolved like the
    ``optimize`` keyword everywhere else (absent → ``CLIP_OPTIMIZE``)."""
    value = params.get("optimize")
    try:
        flag = None if value is None else boolean(value)
    except ValueError:
        raise ValueError(f"optimize must be a boolean, got {value!r}") from None
    return resolve_setting(flag, OPTIMIZE_ENV, True, parse=boolean)


class ClipService:
    """The long-lived mapping service: warm plans, bounded everything.

    Parameters
    ----------
    config:
        A resolved :class:`~repro.service.config.ServiceConfig`;
        ``None`` resolves one from the environment and defaults.
    cache:
        The :class:`PlanCache` to keep compiled plans warm in; defaults
        to a fresh cache owned by this service (so ``GET /metrics``
        describes exactly this service's traffic, not whatever the
        process compiled before).
    injector:
        A :class:`repro.runtime.faults.FaultInjector` threaded into
        every transform's :class:`BatchRunner` — the same deterministic
        fault harness the batch test suite uses, here so the service
        tests can script timeouts and errors without real slow inputs.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        cache: Optional[PlanCache] = None,
        injector=None,
    ):
        self.config = config if config is not None else ServiceConfig.resolve()
        self.cache = cache if cache is not None else PlanCache()
        self.injector = injector
        self.metrics = ServiceMetrics()
        self._lock = threading.Lock()
        self._registry: "OrderedDict[str, RegisteredMapping]" = OrderedDict()
        self._requests: "OrderedDict[str, dict]" = OrderedDict()
        self._request_counter = 0

    # -- dispatch ------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
    ) -> ServiceResponse:
        """Handle one request; never raises.

        ``path`` may carry a query string.  ``headers`` is any mapping
        with ``.get`` (the HTTP layer passes the request's header
        object).  Errors — the service's own and the full
        :mod:`repro.errors` hierarchy — come back as structured JSON
        envelopes with the status of :func:`error_status`.
        """
        headers = headers if headers is not None else {}
        started = time.perf_counter()
        split = urlsplit(path)
        route = split.path.rstrip("/") or "/"
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        endpoint = self._endpoint_label(route)
        depth = self.metrics.begin_request()
        status = 500
        try:
            response = self._route(
                method, route, params, headers, body, endpoint, depth
            )
            status = response.status
            return response
        except Exception as exc:  # noqa: BLE001 — every error becomes an envelope
            if isinstance(exc, AuthError):
                self.metrics.count_auth_failure()
            if isinstance(exc, OverloadError):
                self.metrics.count_shed()
            status = error_status(exc)
            return self._error_response(exc, status)
        finally:
            self.metrics.end_request(
                endpoint, status, time.perf_counter() - started
            )

    def _endpoint_label(self, route: str) -> str:
        if route == "/health":
            return "health"
        if route == "/metrics":
            return "metrics"
        if route == "/transform":
            return "transform"
        if route == "/transform/batch":
            return "transform_batch"
        if route == "/transform/delta":
            return "transform_delta"
        if route == "/mappings" or route.startswith("/mappings/"):
            return "mappings"
        if route == "/requests" or route.startswith("/requests/"):
            return "requests"
        return "other"

    def _route(
        self,
        method: str,
        route: str,
        params: dict,
        headers: Mapping[str, str],
        body: bytes,
        endpoint: str,
        depth: int,
    ) -> ServiceResponse:
        if endpoint != "health":
            # Observability endpoints are never shed — an overloaded
            # service must still answer the scrape that reports it.
            if endpoint not in ("metrics",) and depth > self.config.max_inflight:
                raise OverloadError(
                    f"{depth} requests in flight exceeds the ceiling of "
                    f"{self.config.max_inflight}; retry with backoff"
                )
            if len(body) > self.config.max_body:
                raise PayloadTooLargeError(
                    f"request body of {len(body)} bytes exceeds the "
                    f"{self.config.max_body}-byte ceiling"
                )
            verify_signature(
                self.config.secret, body, headers.get(SIGNATURE_HEADER)
            )
        if method == "GET" and route == "/health":
            return self._health()
        if method == "GET" and route == "/metrics":
            return self._prometheus()
        if method == "POST" and route == "/mappings/compose":
            return self._compose(params, body)
        if method == "POST" and route == "/mappings":
            return self._register(params, body)
        if method == "GET" and route == "/mappings":
            return self._list_mappings()
        if method == "GET" and route.startswith("/mappings/"):
            return self._mapping_detail(route)
        if method == "POST" and route == "/transform":
            return self._transform(params, headers, body)
        if method == "POST" and route == "/transform/batch":
            return self._transform_batch(params, body)
        if method == "POST" and route == "/transform/delta":
            return self._transform_delta(params, body)
        if method == "GET" and route.startswith("/requests/"):
            return self._request_artifact(route)
        return self._error_response(
            ServiceError(f"no such endpoint: {method} {route}"), 404
        )

    # -- error envelopes -------------------------------------------------

    def _error_response(
        self,
        error: BaseException,
        status: int,
        request_id: Optional[str] = None,
        **extra,
    ) -> ServiceResponse:
        doc = {
            "format": ERROR_FORMAT,
            "version": ERROR_VERSION,
            "error": type(error).__name__,
            "message": str(error),
            "status": status,
            "transient": is_transient(error),
        }
        if request_id is not None:
            doc["request"] = request_id
        doc.update(extra)
        headers = (("X-Clip-Request", request_id),) if request_id else ()
        return _json_body(doc, status, headers)

    def _failure_response(
        self,
        failure: DocumentFailure,
        request_id: str,
        dead_letter_paths: Sequence[str],
    ) -> ServiceResponse:
        status = status_for_failure(failure)
        doc = {
            "format": ERROR_FORMAT,
            "version": ERROR_VERSION,
            "error": failure.error,
            "message": failure.message,
            "status": status,
            "transient": failure.transient,
            "timed_out": failure.timed_out,
            "attempts": failure.attempts,
            "request": request_id,
        }
        if dead_letter_paths:
            doc["dead_letters"] = list(dead_letter_paths)
        return _json_body(doc, status, (("X-Clip-Request", request_id),))

    # -- observability endpoints -----------------------------------------

    def _health(self) -> ServiceResponse:
        with self._lock:
            registered = len(self._registry)
        return _json_body({
            "status": "ok",
            "mappings": registered,
            "plans": len(self.cache),
            "inflight": self.metrics.inflight,
        })

    def _prometheus(self) -> ServiceResponse:
        with self._lock:
            registered = len(self._registry)
        text = self.metrics.render_prometheus(
            self.cache.stats, len(self.cache), registered
        )
        return ServiceResponse(
            200, "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    # -- registration ------------------------------------------------------

    def _register(self, params: dict, body: bytes) -> ServiceResponse:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            raise ServiceError("mapping document is not valid UTF-8") from None
        clip = load_mapping_text(text)
        engine = params.get("engine", "tgd")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; use one of {ENGINES}"
            )
        optimize = _optimize_param(params)
        # The cache's own key function: the canonical fingerprint when
        # the cache canonicalizes (alpha-renamed variants share a plan),
        # the structural one otherwise.
        fp = self.cache.fingerprint_for(clip, engine, optimize=optimize)
        was_cached = self.cache.peek(fp) is not None
        # The one compile (on a miss): the lookup inside get_or_compile
        # counts the hit or miss that GET /metrics then reports, and —
        # since the key above is the cache's own (possibly canonical)
        # one — the canonical hit/miss as well.
        plan = self.cache.get_or_compile(
            clip, engine, fp=fp, optimize=optimize, count_canonical=True,
        )
        entry = RegisteredMapping(fp, clip, engine, optimize)
        with self._lock:
            known = fp in self._registry
            self._registry[fp] = entry
        doc = {
            "format": MAPPING_FORMAT,
            "version": MAPPING_VERSION,
            **entry.describe(),
            "cache": "hit" if was_cached else "miss",
            "valid": plan.report.is_valid if plan.report is not None else True,
        }
        return _json_body(doc, 200 if known else 201)

    def _compose(self, params: dict, body: bytes) -> ServiceResponse:
        """``POST /mappings/compose``: fuse two registered mappings into
        one composed plan, registered under the compose fingerprint.

        The envelope names the operands by their registration
        fingerprints (``{"first": FP_AB, "second": FP_BC}``); query
        parameters pin the composed plan's execution strategy exactly
        like ``POST /mappings``.  Operand pairs outside the composable
        fragment raise :class:`~repro.errors.ComposeError` (422, with
        the machine-readable reason in the message).
        """
        try:
            envelope = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"compose envelope is not valid JSON: {exc}"
            ) from None
        if not isinstance(envelope, dict):
            raise ValueError(
                "compose envelope must be a JSON object with 'first' "
                "and 'second' keys"
            )
        first_fp = envelope.get("first")
        second_fp = envelope.get("second")
        if not isinstance(first_fp, str) or not first_fp:
            raise ValueError("compose envelope is missing 'first'")
        if not isinstance(second_fp, str) or not second_fp:
            raise ValueError("compose envelope is missing 'second'")
        first = self._lookup_mapping(first_fp)
        second = self._lookup_mapping(second_fp)
        if isinstance(first, RegisteredComposition) or isinstance(
            second, RegisteredComposition
        ):
            raise ServiceError(
                "compose operands must be plain registered mappings, "
                "not compositions"
            )
        engine = params.get("engine", "tgd")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; use one of {ENGINES}"
            )
        optimize = _optimize_param(params)
        # Raises ComposeError (422) outside the composable fragment.
        composed = compose_tgds(
            compile_clip(first.mapping), compile_clip(second.mapping)
        )
        fp = compose_fingerprint(first.fingerprint, second.fingerprint)
        with self._lock:
            existing = self._registry.get(fp)
        # A cache hit only counts when the existing entry pins the same
        # execution strategy — re-composing with different parameters
        # recompiles and replaces the plan.
        was_cached = (
            self.cache.peek(fp) is not None
            and existing is not None
            and (existing.engine, existing.optimize) == (engine, optimize)
        )
        if not was_cached:
            plan = plan_from_tgd(composed, engine, fp=fp, optimize=optimize)
            self.cache.put(plan)
        entry = RegisteredComposition(
            fp, composed,
            first.mapping.source, second.mapping.target,
            engine, optimize,
            first.fingerprint, second.fingerprint,
        )
        with self._lock:
            known = fp in self._registry
            self._registry[fp] = entry
        doc = {
            "format": MAPPING_FORMAT,
            "version": MAPPING_VERSION,
            **entry.describe(),
            "cache": "hit" if was_cached else "miss",
            "valid": True,
        }
        return _json_body(doc, 200 if known else 201)

    def _composition_plan(self, entry: RegisteredComposition) -> CompiledPlan:
        """The composed entry's plan, rebuilt from the stored tgd after
        an eviction (there is no Clip mapping to recompile from)."""
        plan = self.cache.peek(entry.fingerprint)
        if plan is None:
            plan = plan_from_tgd(
                entry.tgd, entry.engine, fp=entry.fingerprint,
                optimize=entry.optimize,
            )
            self.cache.put(plan)
        return plan

    def _list_mappings(self) -> ServiceResponse:
        with self._lock:
            entries = [entry.describe() for entry in self._registry.values()]
        return _json_body({"mappings": entries})

    def _mapping_detail(self, route: str) -> ServiceResponse:
        fp = route.split("/", 2)[2]
        entry = self._lookup_mapping(fp)
        plan = self.cache.peek(entry.fingerprint)
        doc = entry.describe()
        doc["cached"] = plan is not None
        doc["plan"] = plan.plan_report() if plan is not None else None
        return _json_body(doc)

    def _lookup_mapping(self, fp: str) -> RegisteredMapping:
        with self._lock:
            entry = self._registry.get(fp)
        if entry is None:
            raise UnknownMappingError(
                f"no registered mapping with fingerprint {fp!r}; "
                "register it first with POST /mappings"
            )
        return entry

    # -- transforms ------------------------------------------------------

    def _next_request_id(self) -> str:
        with self._lock:
            self._request_counter += 1
            return f"req-{self._request_counter:06d}"

    def _deadline(self, params: dict) -> Deadline:
        """The request's deadline: the configured budget, shortenable —
        never extendable — by a ``?deadline=SECONDS`` parameter."""
        budget = self.config.deadline
        raw = params.get("deadline")
        if raw is not None:
            requested = float(raw)
            if requested <= 0:
                raise ValueError(
                    f"deadline must be positive, got {requested!r}"
                )
            budget = requested if budget is None else min(requested, budget)
        return Deadline(budget)

    def _runner(
        self,
        entry: RegisteredMapping,
        *,
        workers: int = 1,
        error_policy: str = "collect",
        max_retries: int = 0,
        timeout: Optional[float] = None,
        validate: bool = False,
        tracer=None,
    ) -> BatchRunner:
        return BatchRunner(
            entry.mapping,
            engine=entry.engine,
            workers=workers,
            cache=self.cache,
            validate=validate,
            error_policy=error_policy,
            max_retries=max_retries,
            timeout=timeout,
            optimize=entry.optimize,
            trace=tracer,
            fingerprint=entry.fingerprint,
            injector=self.injector,
        )

    def _dead_letter(self, letters: Sequence[DeadLetter],
                     request_id: str) -> list:
        """Shed failed inputs into the dead-letter machinery: counted
        always, persisted under ``<dir>/<request id>/`` when a
        directory is configured."""
        if not letters:
            return []
        self.metrics.count_dead_letters(len(letters))
        if not self.config.dead_letter_dir:
            return []
        directory = os.path.join(self.config.dead_letter_dir, request_id)
        return write_dead_letters(list(letters), directory)

    def _store_request(
        self,
        request_id: str,
        *,
        endpoint: str,
        entry: Optional[RegisteredMapping],
        status: int,
        metrics_doc: Optional[dict],
        result: Optional[XmlElement] = None,
        source_text: Optional[str] = None,
        result_xml: Optional[str] = None,
    ) -> None:
        """Record a request in the bounded history.  ``result_xml`` is
        the response body the caller already rendered, kept with
        ``source_text`` for ``POST /transform/delta``."""
        explain = None
        plan = (metrics_doc or {}).get("plan")
        if plan is not None and result is not None:
            # Re-shape the runner's plan report into the same
            # clip-plan-explain document the CLI `explain --json` emits
            # — counters here are this request's deltas.
            explain = PlanExplain(
                result=result,
                optimize=plan.get("optimize", False),
                levels=plan.get("levels", []),
                counters=plan.get("counters", []),
                exec_mode=plan.get("exec_mode", "interp"),
                codegen=plan.get("codegen"),
            ).to_dict()
        record = {
            "request": request_id,
            "endpoint": endpoint,
            "mapping": entry.fingerprint if entry is not None else None,
            "engine": entry.engine if entry is not None else None,
            "status": status,
            "metrics": metrics_doc,
            "trace": (metrics_doc or {}).get("trace"),
            "explain": explain,
            # Internal (stripped from GET /requests/{id}): the
            # source/target pair a later POST /transform/delta keys on.
            "source_xml": source_text,
            "result_xml": result_xml,
        }
        with self._lock:
            self._requests[request_id] = record
            while len(self._requests) > self.config.history:
                self._requests.popitem(last=False)

    def _transform_payload(
        self, params: dict, headers: Mapping[str, str], body: bytes
    ) -> Tuple[RegisteredMapping, str]:
        """Resolve a single-transform request into (mapping, XML text).

        Raw-XML bodies name their mapping with ``?mapping=FP``; JSON
        envelopes (``Content-Type: application/json``) carry
        ``{"mapping": FP, "document": "<xml…>"}``.
        """
        content_type = (headers.get("Content-Type") or "").lower()
        fp = params.get("mapping")
        if "json" in content_type:
            envelope = json.loads(body.decode("utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError(
                    "transform envelope must be a JSON object with "
                    "'mapping' and 'document' keys"
                )
            fp = envelope.get("mapping", fp)
            text = envelope.get("document")
            if not isinstance(text, str):
                raise ValueError("transform envelope is missing 'document'")
        else:
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                raise ServiceError(
                    "document body is not valid UTF-8"
                ) from None
        if not fp:
            raise ValueError(
                "no mapping named: pass ?mapping=FINGERPRINT or a JSON "
                "envelope with a 'mapping' key"
            )
        return self._lookup_mapping(fp), text

    def _transform(
        self, params: dict, headers: Mapping[str, str], body: bytes
    ) -> ServiceResponse:
        request_id = self._next_request_id()
        try:
            deadline = self._deadline(params)
            entry, text = self._transform_payload(params, headers, body)
            if isinstance(entry, RegisteredComposition):
                return self._transform_composed(
                    entry, text, params, deadline, request_id
                )
            try:
                document = deadline.run(
                    lambda: parse_xml(text, schema=entry.mapping.source)
                )
            except ReproError as exc:
                # Malformed input: shed into the dead-letter machinery
                # (raw text, like the CLI's parse isolation) and report.
                failure = DocumentFailure.from_exception(0, exc)
                paths = self._dead_letter([DeadLetter(failure, text)],
                                          request_id)
                self.metrics.count_documents(0, 1)
                return self._failure_response(failure, request_id, paths)
            tracer = SpanTracer() if _flag(params.get("trace")) else None
            runner = self._runner(
                entry, timeout=deadline.remaining(), tracer=tracer
            )
            batch = runner.run([document])
            metrics_doc = batch.metrics.to_dict()
            self.metrics.count_documents(
                len(batch.results), len(batch.failures)
            )
            if batch.failures:
                paths = self._dead_letter(batch.dead_letters, request_id)
                failure = batch.failures[0]
                self._store_request(
                    request_id, endpoint="transform", entry=entry,
                    status=status_for_failure(failure),
                    metrics_doc=metrics_doc,
                )
                return self._failure_response(failure, request_id, paths)
            result = batch.results[0]
            rendered = to_xml(result)
            self._store_request(
                request_id, endpoint="transform", entry=entry, status=200,
                metrics_doc=metrics_doc, result=result, source_text=text,
                result_xml=rendered,
            )
            return ServiceResponse(
                200, "application/xml; charset=utf-8",
                rendered.encode("utf-8"),
                (("X-Clip-Request", request_id),
                 ("X-Clip-Mapping", entry.fingerprint)),
            )
        except Exception as exc:  # noqa: BLE001 — envelope with the request id
            if isinstance(exc, (ReproError, ValueError)):
                return self._error_response(
                    exc, error_status(exc), request_id
                )
            raise

    def _transform_composed(
        self,
        entry: RegisteredComposition,
        text: str,
        params: dict,
        deadline: Deadline,
        request_id: str,
    ) -> ServiceResponse:
        """One transform through a composed plan: parse against the
        first operand's source schema, run the fused one-pass plan —
        byte-identical to chaining the two originals."""
        try:
            document = deadline.run(
                lambda: parse_xml(text, schema=entry.source)
            )
        except ReproError as exc:
            failure = DocumentFailure.from_exception(0, exc)
            paths = self._dead_letter([DeadLetter(failure, text)],
                                      request_id)
            self.metrics.count_documents(0, 1)
            return self._failure_response(failure, request_id, paths)
        tracer = SpanTracer() if _flag(params.get("trace")) else None
        if tracer is not None:
            # The composed entry has no Clip mapping to derive the usual
            # trace seed from; the compose fingerprint is as stable.
            tracer.seed = entry.fingerprint
            tracer.engine = entry.engine
        plan = self._composition_plan(entry)
        started = time.perf_counter()
        result = deadline.run(lambda: plan.run(document, trace=tracer))
        elapsed = time.perf_counter() - started
        self.metrics.count_documents(1, 0)
        metrics_doc = BatchMetrics(
            engine=entry.engine,
            workers=1,
            documents=1,
            execute_seconds=elapsed,
            wall_seconds=elapsed,
            source_elements=document.size(),
            target_elements=result.size(),
        ).to_dict()
        if tracer is not None:
            metrics_doc["trace"] = tracer.to_trace().to_dict()
        self._store_request(
            request_id, endpoint="transform", entry=entry, status=200,
            metrics_doc=metrics_doc, result=result,
        )
        return ServiceResponse(
            200, "application/xml; charset=utf-8",
            to_xml(result).encode("utf-8"),
            (("X-Clip-Request", request_id),
             ("X-Clip-Mapping", entry.fingerprint)),
        )

    def _transform_delta(self, params: dict, body: bytes) -> ServiceResponse:
        """``POST /transform/delta``: incremental re-transform of an
        edited document, keyed on a past request's source/target pair."""
        request_id = self._next_request_id()
        try:
            deadline = self._deadline(params)
            envelope = json.loads(body.decode("utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError(
                    "delta envelope must be a JSON object with 'request' "
                    "and 'document' keys"
                )
            base_id = envelope.get("request")
            text = envelope.get("document")
            if not isinstance(base_id, str) or not base_id:
                raise ValueError("delta envelope is missing 'request'")
            if not isinstance(text, str):
                raise ValueError("delta envelope is missing 'document'")
            with self._lock:
                base = self._requests.get(base_id)
            if base is None:
                return self._error_response(
                    ServiceError(
                        f"no such request {base_id!r} (history keeps the "
                        f"last {self.config.history})"
                    ),
                    404,
                    request_id,
                )
            if not base.get("source_xml") or not base.get("result_xml"):
                raise ServiceError(
                    f"request {base_id} stored no source/target pair; "
                    "delta transforms chain off successful single "
                    "transforms"
                )
            threshold = envelope.get("threshold")
            if threshold is not None:
                threshold = float(threshold)
                if not 0.0 <= threshold <= 1.0:
                    raise ValueError(
                        f"threshold must be within [0, 1], got {threshold!r}"
                    )
            entry = self._lookup_mapping(base["mapping"])
            if isinstance(entry, RegisteredComposition):
                raise ServiceError(
                    "delta transforms are not supported for composed "
                    "mappings; re-transform with POST /transform"
                )
            started = time.perf_counter()
            prev_source = deadline.run(
                lambda: parse_xml(
                    base["source_xml"], schema=entry.mapping.source
                )
            )
            prev_target = parse_xml(
                base["result_xml"], schema=entry.mapping.target
            )
            try:
                new_source = deadline.run(
                    lambda: parse_xml(text, schema=entry.mapping.source)
                )
            except ReproError as exc:
                failure = DocumentFailure.from_exception(0, exc)
                paths = self._dead_letter([DeadLetter(failure, text)],
                                          request_id)
                self.metrics.count_documents(0, 1)
                return self._failure_response(failure, request_id, paths)
            plan = self.cache.get_or_compile(
                entry.mapping, entry.engine, fp=entry.fingerprint,
                optimize=entry.optimize,
            )
            delta = compute_delta(prev_source, new_source)
            kwargs = {} if threshold is None else {"threshold": threshold}
            result, report = deadline.run(
                lambda: transform_delta(
                    plan, prev_source, prev_target, delta,
                    new_source=new_source, **kwargs,
                )
            )
            elapsed = time.perf_counter() - started
            self.metrics.count_incremental(fallback=not report.incremental)
            self.metrics.count_documents(1, 0)
            metrics_doc = BatchMetrics(
                engine=entry.engine,
                workers=1,
                documents=1,
                execute_seconds=elapsed,
                wall_seconds=elapsed,
                source_elements=new_source.size(),
                target_elements=result.size(),
                incremental=report.to_dict(),
            ).to_dict()
            rendered = to_xml(result)
            self._store_request(
                request_id, endpoint="transform_delta", entry=entry,
                status=200, metrics_doc=metrics_doc, result=result,
                source_text=text, result_xml=rendered,
            )
            return ServiceResponse(
                200, "application/xml; charset=utf-8",
                rendered.encode("utf-8"),
                (("X-Clip-Request", request_id),
                 ("X-Clip-Mapping", entry.fingerprint),
                 ("X-Clip-Incremental", report.mode)),
            )
        except Exception as exc:  # noqa: BLE001 — envelope with the request id
            if isinstance(exc, (ReproError, ValueError)):
                return self._error_response(
                    exc, error_status(exc), request_id
                )
            raise

    def _transform_batch(self, params: dict, body: bytes) -> ServiceResponse:
        request_id = self._next_request_id()
        try:
            return self._transform_batch_inner(params, body, request_id)
        except Exception as exc:  # noqa: BLE001 — envelope with the request id
            if isinstance(exc, (ReproError, ValueError)):
                return self._error_response(
                    exc, error_status(exc), request_id
                )
            raise

    def _transform_batch_inner(
        self, params: dict, body: bytes, request_id: str
    ) -> ServiceResponse:
        deadline = self._deadline(params)
        envelope = json.loads(body.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError(
                "batch envelope must be a JSON object with 'mapping' "
                "and 'documents' keys"
            )
        fp = envelope.get("mapping", params.get("mapping"))
        if not fp:
            raise ValueError(
                "no mapping named: pass ?mapping=FINGERPRINT or a "
                "'mapping' key in the envelope"
            )
        entry = self._lookup_mapping(fp)
        if isinstance(entry, RegisteredComposition):
            raise ServiceError(
                "batch transforms are not supported for composed "
                "mappings; use POST /transform per document"
            )
        sources = envelope.get("documents")
        if (
            not isinstance(sources, list)
            or not sources
            or not all(isinstance(item, str) for item in sources)
        ):
            raise ValueError(
                "'documents' must be a non-empty list of XML strings"
            )
        policy = ErrorPolicy.coerce(envelope.get("error_policy", "collect"))
        requested = envelope.get("workers")
        workers = self.config.workers if requested is None else int(requested)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        # The config is a ceiling: a request can narrow its fan-out but
        # never commandeer more of the host than the operator allowed.
        workers = min(workers, self.config.workers)
        max_retries = int(envelope.get("max_retries", 0))
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        validate = bool(envelope.get("validate", False))
        per_document = envelope.get("timeout")
        if per_document is not None:
            per_document = float(per_document)
            if per_document <= 0:
                raise ValueError(
                    f"timeout must be positive, got {per_document!r}"
                )
        remaining = deadline.remaining()
        if remaining is not None:
            per_document = (
                remaining if per_document is None
                else min(per_document, remaining)
            )
        # Parse with per-document isolation, like the CLI: under
        # skip/collect a malformed input is one failure, not a dead
        # batch; its raw text is what gets dead-lettered.
        documents = []
        source_index = []
        parse_failures = []
        parse_letters = []
        for position, text in enumerate(sources):
            try:
                documents.append(
                    deadline.run(
                        lambda text=text: parse_xml(
                            text, schema=entry.mapping.source
                        )
                    )
                )
            except ReproError as exc:
                if policy is ErrorPolicy.FAIL_FAST or isinstance(
                    exc, DocumentTimeout
                ):
                    raise
                failure = DocumentFailure.from_exception(position, exc)
                parse_failures.append(failure)
                if policy is ErrorPolicy.COLLECT:
                    parse_letters.append(DeadLetter(failure, text))
            else:
                source_index.append(position)
        tracer = SpanTracer() if _flag(params.get("trace")) else None
        runner = self._runner(
            entry,
            workers=workers,
            error_policy=policy.value,
            max_retries=max_retries,
            timeout=per_document,
            validate=validate,
            tracer=tracer,
        )
        try:
            batch = deadline.run(lambda: runner.run(documents))
        except DocumentFailureError as exc:
            # fail_fast: the first terminal failure aborts the request.
            failure = exc.failure
            failure.index = source_index[failure.index]
            self.metrics.count_documents(0, 1)
            return self._failure_response(failure, request_id, [])
        for failure in batch.failures:
            failure.index = source_index[failure.index]
        failures = sorted(
            list(batch.failures) + parse_failures,
            key=lambda failure: failure.index,
        )
        letters = sorted(
            list(batch.dead_letters) + parse_letters,
            key=lambda letter: letter.failure.index,
        )
        paths = self._dead_letter(letters, request_id)
        metrics = batch.metrics
        metrics.failures += len(parse_failures)
        metrics.dead_letter += len(parse_letters)
        metrics_doc = metrics.to_dict()
        self.metrics.count_documents(len(batch.results), len(failures))
        results = [
            {
                "index": source_index[batch.success_indices[position]],
                "xml": to_xml(result),
            }
            for position, result in enumerate(batch.results)
        ]
        self._store_request(
            request_id, endpoint="transform_batch", entry=entry, status=200,
            metrics_doc=metrics_doc,
        )
        doc = {
            "format": BATCH_FORMAT,
            "version": BATCH_VERSION,
            "request": request_id,
            "mapping": entry.fingerprint,
            "engine": entry.engine,
            "documents": len(sources),
            "succeeded": len(results),
            "results": results,
            "failures": [failure.to_dict() for failure in failures],
            "metrics": metrics_doc,
        }
        if paths:
            doc["dead_letters"] = paths
        return _json_body(
            doc, 200,
            (("X-Clip-Request", request_id),
             ("X-Clip-Mapping", entry.fingerprint)),
        )

    # -- request artifacts -------------------------------------------------

    def _request_artifact(self, route: str) -> ServiceResponse:
        parts = route.split("/")
        request_id = parts[2] if len(parts) > 2 else ""
        with self._lock:
            record = self._requests.get(request_id)
        if record is None:
            return self._error_response(
                ServiceError(
                    f"no such request {request_id!r} (history keeps the "
                    f"last {self.config.history})"
                ),
                404,
            )
        if len(parts) == 3:
            return _json_body({
                key: value
                for key, value in record.items()
                if key not in ("source_xml", "result_xml")
            })
        kind = parts[3]
        if kind not in ("metrics", "trace", "explain"):
            return self._error_response(
                ServiceError(
                    f"unknown artifact {kind!r}; use metrics, trace or "
                    "explain"
                ),
                404,
            )
        payload = record.get(kind)
        if payload is None:
            hint = {
                "metrics": "",
                "trace": " (request it with ?trace=1)",
                "explain": " (single transforms on the tgd engine only)",
            }[kind]
            return self._error_response(
                ServiceError(
                    f"request {request_id} recorded no {kind} payload{hint}"
                ),
                404,
            )
        return _json_body(payload)
