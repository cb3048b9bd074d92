"""Retry policy, deadlines and error triage for per-document execution.

A batch over real traffic sees three kinds of per-document failure:

* **transient** — worth re-attempting: resource pressure, I/O hiccups,
  a timeout, anything raising :class:`repro.errors.TransientError`;
* **permanent** — deterministic: a :class:`CompileError`, an
  :class:`ExecutionError` from the engine, malformed instance data.
  Retrying a pure function on the same input reproduces the failure,
  so these go straight to the error policy (dead-letter or raise);
* **worker loss** — the process evaluating the document died; handled
  by the pool rebuild in :mod:`repro.runtime.batch`, not here.

:class:`RetryPolicy` bundles the knobs: attempt budget, a
*deterministic* exponential backoff schedule (no jitter — reruns of a
batch must behave identically), and the per-document wall-clock
timeout.

Every time budget (a document's timeout, a request's deadline) is a
:class:`Deadline`, enforced cooperatively: the loops the package owns
— the parse walk, the engines' units and FLWOR tuples, incremental
unit builds, chained steps, injected delays — call
:func:`check_deadline`, which raises
:class:`~repro.errors.DocumentTimeout` once the tightest deadline
entered has passed (one context-variable read when none is set).  Code the package
does not own is not interruptible: ``ElementTree.fromstring`` runs to
its end (``max_body`` bounds it) and the next check notices.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from time import monotonic
from typing import Optional

from ..errors import DocumentTimeout, TransientError

#: Exception types the policy considers worth retrying.  Built on the
#: :mod:`repro.errors` hierarchy: :class:`TransientError` covers the
#: package's own retryable failures (including timeouts); ``OSError``
#: and ``TimeoutError`` cover the environment's.
TRANSIENT_TYPES: tuple = (TransientError, OSError, TimeoutError)


def is_transient(error: BaseException) -> bool:
    """Whether an error is worth re-attempting (see TRANSIENT_TYPES)."""
    return isinstance(error, TRANSIENT_TYPES)


def check_budget(seconds: Optional[float], name: str) -> Optional[float]:
    """``seconds`` if it is ``None`` or a positive finite number of
    seconds; ``ValueError`` otherwise (NaN and infinity included)."""
    if seconds is not None and not 0 < seconds < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {seconds!r}")
    return seconds


@dataclass(frozen=True)
class RetryPolicy:
    """How failing documents are re-attempted.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first (``0`` disables retries).
    backoff:
        Seconds before the first retry; each further retry multiplies
        by ``backoff_factor`` up to ``max_backoff``.  The schedule is
        deterministic — no jitter — so a rerun sleeps identically.
    timeout:
        Per-document wall-clock budget in seconds (``None`` = none), a
        :class:`Deadline` around each attempt; an overrun raises
        :class:`repro.errors.DocumentTimeout`, which is transient and
        therefore retryable.
    retry_permanent:
        Also retry permanent errors.  Off by default: the engines are
        pure functions, so a deterministic failure cannot heal.
    """

    max_retries: int = 0
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    timeout: Optional[float] = None
    retry_permanent: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        check_budget(self.timeout, "timeout")

    def delay(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (1-based)."""
        if retry_number < 1 or self.backoff <= 0:
            return 0.0
        return min(
            self.max_backoff,
            self.backoff * self.backoff_factor ** (retry_number - 1),
        )

    def should_retry(self, attempts_made: int, transient: bool) -> bool:
        """Whether a document that failed ``attempts_made`` times (and
        whose last error was/wasn't transient) gets another attempt."""
        if attempts_made > self.max_retries:
            return False
        return transient or self.retry_permanent


class Deadline:
    """A wall-clock budget that starts ticking when constructed.

    ``with deadline:`` makes it the budget :func:`check_deadline`
    enforces inside, unless an enclosing deadline ends sooner: nesting
    can shorten what is left, never extend it.  The service runs each
    request under one; a batch attempt runs under its timeout nested
    inside.  ``budget=None`` is unbounded.  Overruns raise the
    transient :class:`repro.errors.DocumentTimeout`.

    The hottest loops (parse walk, generated engine) read
    :func:`active_deadline` once, then *poll* it: ``polls -= 1``, and
    :func:`check_deadline` (which resets ``polls``) once it is below 0.
    """

    __slots__ = ("budget", "polls", "_expires", "_token")

    def __init__(self, budget: Optional[float]):
        self.budget = check_budget(budget, "budget")
        self.polls = 0
        self._expires = monotonic() + (math.inf if budget is None else budget)

    def remaining(self) -> float:
        """Seconds left: never negative, infinite when unbounded."""
        return max(0.0, self._expires - monotonic())

    def __enter__(self) -> "Deadline":
        active = _ACTIVE.get()
        if active is None or self._expires < active._expires:
            active = None if self.budget is None else self
        self._token = _ACTIVE.set(active)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)


#: The deadline in force: the tightest bounded one entered, if any.
_ACTIVE: ContextVar[Optional[Deadline]] = ContextVar(
    "repro_deadline", default=None
)


#: The deadline :func:`check_deadline` enforces here, if any.
active_deadline = _ACTIVE.get

#: A polling loop reads the clock on one poll in this many.
POLL_STRIDE = 16


def check_deadline() -> None:
    """Raise :class:`~repro.errors.DocumentTimeout` once the deadline in
    force has passed; a no-op (one context-variable read) under none."""
    deadline = active_deadline()
    if deadline is not None:
        deadline.polls = POLL_STRIDE - 1
        if monotonic() >= deadline._expires:
            raise DocumentTimeout(
                f"evaluation exceeded its {deadline.budget:g}s deadline"
            )
