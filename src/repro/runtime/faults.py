"""Fault isolation for batch runs: policies, failure records, injection.

The data-exchange literature treats partial failure as the normal
case — individual instances violate target constraints or fail
containment checks without invalidating the run.  This module gives
the batch runtime that contract:

* :class:`ErrorPolicy` — what a per-document failure does to the rest
  of the batch (``fail_fast`` raises, ``skip`` drops, ``collect``
  records and dead-letters);
* :class:`DocumentFailure` — the machine-readable record of one failed
  document: index, pipeline stage, exception class, attempt count,
  transient/timeout triage and a truncated traceback;
* :func:`write_dead_letters` — persist the failed *inputs* (plus a
  manifest of their failure records) for replay;
* :class:`FaultInjector` — a deterministic harness that raises
  scripted errors, injects delays, or kills the hosting worker on
  chosen document indices, used by the fault-tolerance test suite.
"""

from __future__ import annotations

import enum
import json
import os
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Mapping, Union

from .. import errors as errors_module
from ..errors import ExecutionError
from ..xml.model import XmlElement
from .retry import check_deadline

#: Ceiling on the traceback text carried by a failure record — enough
#: for triage, small enough to ship across the pool and into metrics.
TRACEBACK_LIMIT = 2000

#: A scripted delay sleeps in slices of this many seconds, checking the
#: deadline between them.
DELAY_SLICE = 0.01


class ErrorPolicy(enum.Enum):
    """What one document's failure does to the rest of the batch.

    * ``FAIL_FAST`` — the pre-fault-tolerance behavior: the first
      failure (after retries) aborts the batch with
      :class:`repro.errors.DocumentFailureError`;
    * ``SKIP`` — failed documents are dropped; successes keep input
      order and failure counts land in the metrics;
    * ``COLLECT`` — like ``skip``, but the failure records and the
      failed *input documents* are kept on the result as the
      dead-letter set, ready for :func:`write_dead_letters`.
    """

    FAIL_FAST = "fail_fast"
    SKIP = "skip"
    COLLECT = "collect"

    @classmethod
    def coerce(cls, value: Union["ErrorPolicy", str]) -> "ErrorPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            names = ", ".join(policy.value for policy in cls)
            raise ValueError(
                f"unknown error policy {value!r}; use one of: {names}"
            ) from None


@dataclass
class DocumentFailure:
    """One document's terminal failure, as a picklable record.

    Worker processes return these instead of raising, so the parent
    applies retry/policy decisions uniformly whether the failure
    happened in-process or across the pool.
    """

    index: int
    error: str
    message: str
    attempts: int = 1
    stage: int = 0
    transient: bool = False
    timed_out: bool = False
    traceback: str = ""

    @classmethod
    def from_exception(
        cls,
        index: int,
        exc: BaseException,
        *,
        attempts: int = 1,
    ) -> "DocumentFailure":
        """The record of ``exc``; its ``stage`` is the pipeline step
        that raised it (:func:`~repro.runtime.plan.chain_plans` tags
        the exception), else 0."""
        from .retry import is_transient

        text = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            index=index,
            error=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            stage=getattr(exc, "stage", 0),
            transient=is_transient(exc),
            timed_out=isinstance(exc, errors_module.DocumentTimeout),
            traceback=text[-TRACEBACK_LIMIT:],
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "stage": self.stage,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "transient": self.transient,
            "timed_out": self.timed_out,
            "traceback": self.traceback,
        }

    def __str__(self) -> str:
        return (
            f"document {self.index} failed at stage {self.stage} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}: "
            f"{self.error}: {self.message}"
        )


@dataclass
class DeadLetter:
    """A failed input document paired with its failure record.

    ``document`` is the input the runner consumed — for a pipeline
    plan, the document fed to its first stage whichever stage failed
    (``failure.stage`` names that one), so every dead letter replays
    through the same plan — or, for an input that never parsed (CLI
    ``--error-policy skip|collect``), its raw text.
    """

    failure: DocumentFailure
    document: Union[XmlElement, str]


def write_dead_letters(
    dead_letters: list, directory: str
) -> list[str]:
    """Persist a run's dead letters for replay.

    Writes each failed input as ``dead-letter-<index>.xml`` — the
    source document the run consumed, also when a pipeline failed at a
    later stage — plus a ``failures.json`` manifest of the failure
    records (whose ``stage`` names the failing stage).  Returns the
    written paths.
    """
    from ..xml.serialize import to_xml

    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for letter in dead_letters:
        name = f"dead-letter-{letter.failure.index:05d}.xml"
        path = os.path.join(directory, name)
        document = letter.document
        # A document that never parsed is carried as its raw text.
        text = document if isinstance(document, str) else to_xml(document)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    manifest = os.path.join(directory, "failures.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump(
            [letter.failure.to_dict() for letter in dead_letters],
            handle,
            indent=2,
        )
    paths.append(manifest)
    return paths


# -- deterministic fault injection ------------------------------------------


@dataclass(frozen=True)
class Fault:
    """One scripted fault, applied to a document index.

    ``attempts`` bounds the *leading* attempts affected: a fault with
    ``attempts=2`` fires on attempt 0 and 1 and lets attempt 2 run
    clean — the shape retry tests need.  ``attempts=-1`` fires forever.

    Kinds:

    * ``"raise"`` — raise ``error`` (a :mod:`repro.errors` class name,
      e.g. ``"ExecutionError"`` or ``"TransientError"``);
    * ``"delay"`` — sleep ``seconds`` before evaluating, to trip the
      per-document timeout (it checks the deadline every
      :data:`DELAY_SLICE` seconds, so it stops once that passes);
    * ``"exit"`` — ``os._exit`` the hosting process, simulating a
      crashed pool worker.
    """

    kind: str = "raise"
    error: str = "ExecutionError"
    message: str = "injected fault"
    attempts: int = -1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "delay", "exit"):
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                "use 'raise', 'delay' or 'exit'"
            )

    def applies(self, attempt: int) -> bool:
        return self.attempts < 0 or attempt < self.attempts

    def resolve_error(self) -> type:
        cls = getattr(errors_module, self.error, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls
        return ExecutionError


class FaultInjector:
    """Scripted faults on chosen document indices, deterministically.

    The injector is picklable, so the runner ships it to pool workers;
    firing is keyed on ``(document index, attempt number)`` — both
    supplied by the parent — so the same script produces the same
    faults whichever worker draws the document and however runs
    interleave.
    """

    def __init__(self, faults: Mapping[int, Union[Fault, str]]):
        normalized: dict[int, Fault] = {}
        for index, fault in faults.items():
            normalized[int(index)] = (
                fault if isinstance(fault, Fault) else Fault(kind=str(fault))
            )
        self.faults = normalized

    def __repr__(self) -> str:
        return f"FaultInjector({sorted(self.faults)})"

    def fire(self, index: int, attempt: int = 0) -> None:
        """Apply the scripted fault for ``(index, attempt)``, if any."""
        fault = self.faults.get(index)
        if fault is None or not fault.applies(attempt):
            return
        if fault.kind == "exit":
            os._exit(17)
        if fault.kind == "delay":
            ends = time.monotonic() + fault.seconds
            while (left := ends - time.monotonic()) > 0:
                check_deadline()
                time.sleep(min(left, DELAY_SLICE))
            return
        raise fault.resolve_error()(
            f"{fault.message} (document {index}, attempt {attempt})"
        )
