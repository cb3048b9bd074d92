"""Retry policy for per-document execution: backoff, timeout, triage.

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
timeout that :func:`call_with_timeout` enforces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import DocumentTimeout, TransientError

#: Exception types the policy considers worth retrying.  Built on the
#: :mod:`repro.errors` hierarchy: :class:`TransientError` covers the
#: package's own retryable failures (including timeouts); ``OSError``
#: and ``TimeoutError`` cover the environment's.
TRANSIENT_TYPES: tuple = (TransientError, OSError, TimeoutError)


def is_transient(error: BaseException) -> bool:
    """Whether an error is worth re-attempting (see TRANSIENT_TYPES)."""
    return isinstance(error, TRANSIENT_TYPES)


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
        Per-document wall-clock budget in seconds (``None`` = none);
        an overrun raises :class:`repro.errors.DocumentTimeout`, which
        is transient and therefore retryable.
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
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")

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

    The serving layer hands each request one deadline; every stage of
    handling (body parse, plan retrieval, evaluation) then runs under
    whatever is *left* of the budget rather than a fresh one, so a slow
    early stage cannot grant later stages more time than the request
    has.  ``budget=None`` is unbounded — every method degrades to a
    no-op wrapper.

    Overruns surface as :class:`repro.errors.DocumentTimeout`, the same
    transient-classified error the per-document batch timeout raises,
    so the existing retry/error-policy triage applies unchanged.
    """

    __slots__ = ("budget", "_started")

    def __init__(self, budget: Optional[float]):
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget!r}")
        self.budget = budget
        self._started = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0.0, self.budget - self.elapsed())

    def expired(self) -> bool:
        """Whether the budget has run out (never, when unbounded)."""
        return self.budget is not None and self.elapsed() >= self.budget

    def run(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` under the *remaining* budget.

        Raises :class:`DocumentTimeout` immediately when the budget is
        already spent, and via :func:`call_with_timeout` when ``fn``
        overruns what is left.
        """
        remaining = self.remaining()
        if remaining is None:
            return fn()
        if remaining <= 0:
            raise DocumentTimeout(
                f"deadline exceeded before evaluation started "
                f"({self.budget:g}s budget)"
            )
        return call_with_timeout(fn, remaining)


#: Per-thread state of the :func:`call_with_timeout` call running on
#: that thread: ``abandoned`` is set once the caller gave up on it.
current_call = threading.local()


def call_with_timeout(
    fn: Callable[[], Any], timeout: Optional[float]
) -> Any:
    """Run ``fn()`` under a wall-clock budget.

    With no budget this is a plain call.  With one, the call runs in a
    daemon thread; an overrun raises :class:`DocumentTimeout` in the
    caller (the worker thread is left to finish and be discarded — the
    engines are pure, so an abandoned evaluation has no side effects).
    ``fn`` may watch ``current_call.abandoned`` (a
    :class:`threading.Event`) to stop early once that happened.
    """
    if timeout is None:
        return fn()
    outcome: list = []
    abandoned = threading.Event()

    def target() -> None:
        current_call.abandoned = abandoned
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:  # noqa: BLE001 — relayed below
            outcome.append(("err", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        abandoned.set()
        raise DocumentTimeout(
            f"document evaluation exceeded the {timeout:g}s budget"
        )
    kind, value = outcome[0]
    if kind == "err":
        raise value
    return value
