"""Service configuration: one resolution rule for every knob.

Every setting resolves **flag > environment > default** through the
package's one generic helper, :func:`repro.settings.resolve_setting`
(re-exported here), instead of ad-hoc ``os.environ`` reads scattered
across the CLI and the server.  The CLI ``serve`` subcommand
passes its parsed flags straight into :meth:`ServiceConfig.resolve`;
anything the user did not flag falls back to the ``CLIP_SERVICE_*``
environment and then to the documented default.

Environment variables (all optional):

========================== ============================================
``CLIP_SERVICE_HOST``       bind address (default ``127.0.0.1``)
``CLIP_SERVICE_PORT``       TCP port; ``0`` asks the OS for an
                            ephemeral port (default ``8317``)
``CLIP_SERVICE_WORKERS``    default process fan-out for
                            ``POST /transform/batch`` (default ``1``)
``CLIP_SERVICE_DEADLINE``   per-request wall-clock budget in seconds;
                            ``0`` or negative disables the deadline
                            (default ``30``)
``CLIP_SERVICE_SECRET``     shared HMAC secret; set it to require an
                            ``X-Clip-Signature`` header on every
                            request except ``GET /health``
``CLIP_SERVICE_DEAD_LETTER_DIR``
                            root directory for per-request dead-letter
                            capture (default: none — failures are
                            reported but inputs are not persisted)
``CLIP_SERVICE_MAX_INFLIGHT``
                            concurrent-request ceiling before the
                            service sheds with 503 (default ``64``)
``CLIP_SERVICE_MAX_BODY``   request-body byte ceiling (default 8 MiB)
``CLIP_SERVICE_HISTORY``    how many past requests keep their
                            metrics/trace/explain payloads fetchable
                            (default ``256``)
========================== ============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..runtime.retry import check_budget
from ..settings import resolve_setting

#: Default TCP port ("clip" on a phone keypad, truncated to a free range).
DEFAULT_PORT = 8317

#: Default per-request deadline, seconds.
DEFAULT_DEADLINE = 30.0

#: Default concurrent-request ceiling before shedding.
DEFAULT_MAX_INFLIGHT = 64

#: Default request-body ceiling, bytes (8 MiB).
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Default request-history depth.
DEFAULT_HISTORY = 256


def _parse_deadline(value: Union[str, float, None]) -> Optional[float]:
    """Normalize a deadline: positive seconds, or ``None`` (unbounded)
    for zero/negative — "no deadline" has to be expressible through an
    environment variable, and ``CLIP_SERVICE_DEADLINE=0`` is it.  NaN
    and infinity are a ``ValueError``."""
    if value is None:
        return None
    seconds = float(value)
    return None if seconds <= 0 else check_budget(seconds, "deadline")


@dataclass(frozen=True)
class ServiceConfig:
    """Resolved configuration for one :class:`repro.service.ClipService`."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 1
    deadline: Optional[float] = DEFAULT_DEADLINE
    secret: Optional[str] = None
    dead_letter_dir: Optional[str] = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    max_body: int = DEFAULT_MAX_BODY
    history: int = DEFAULT_HISTORY

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError(f"port must be 0..65535, got {self.port!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {self.max_inflight!r}"
            )
        if self.max_body < 1:
            raise ValueError(f"max_body must be >= 1, got {self.max_body!r}")
        if self.history < 1:
            raise ValueError(f"history must be >= 1, got {self.history!r}")

    @classmethod
    def resolve(
        cls,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
        secret: Optional[str] = None,
        dead_letter_dir: Optional[str] = None,
        max_inflight: Optional[int] = None,
        max_body: Optional[int] = None,
        history: Optional[int] = None,
        environ: Optional[Mapping[str, str]] = None,
    ) -> "ServiceConfig":
        """Build a config with every field resolved flag > env > default.

        ``None`` arguments mean "not flagged"; ``environ`` substitutes
        an explicit mapping for ``os.environ`` (tests).  The deadline
        accepts ``0``/negative — from flag or environment — to mean
        "no deadline", normalized to ``None``.
        """
        return cls(
            host=resolve_setting(host, "CLIP_SERVICE_HOST", "127.0.0.1",
                                 environ=environ),
            port=resolve_setting(port, "CLIP_SERVICE_PORT", DEFAULT_PORT,
                                 parse=int, environ=environ),
            workers=resolve_setting(workers, "CLIP_SERVICE_WORKERS", 1,
                                    parse=int, environ=environ),
            deadline=_parse_deadline(
                resolve_setting(deadline, "CLIP_SERVICE_DEADLINE",
                                DEFAULT_DEADLINE, parse=float,
                                environ=environ)
            ),
            secret=resolve_setting(secret, "CLIP_SERVICE_SECRET", None,
                                   environ=environ),
            dead_letter_dir=resolve_setting(
                dead_letter_dir, "CLIP_SERVICE_DEAD_LETTER_DIR", None,
                environ=environ,
            ),
            max_inflight=resolve_setting(
                max_inflight, "CLIP_SERVICE_MAX_INFLIGHT",
                DEFAULT_MAX_INFLIGHT, parse=int, environ=environ,
            ),
            max_body=resolve_setting(max_body, "CLIP_SERVICE_MAX_BODY",
                                     DEFAULT_MAX_BODY, parse=int,
                                     environ=environ),
            history=resolve_setting(history, "CLIP_SERVICE_HISTORY",
                                    DEFAULT_HISTORY, parse=int,
                                    environ=environ),
        )
