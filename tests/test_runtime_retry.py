"""Edge cases of :mod:`repro.runtime.retry`.

The happy paths — a transient fault healing within the attempt budget,
the documented backoff schedule — are covered by the fault-injection
suite.  This module pins the corners: the zero-retry policy, a timeout
that fires on the *final* attempt, and the determinism of the backoff
sequence actually slept by the batch runner under a fixed fault seed.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import DocumentTimeout
from repro.runtime import (
    BatchRunner,
    Deadline,
    Fault,
    FaultInjector,
    PlanCache,
    RetryPolicy,
    check_deadline,
    is_transient,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance


@pytest.fixture
def mapping():
    return deptstore.mapping_fig4()


@pytest.fixture
def documents():
    return [
        make_deptstore_instance(
            DeptstoreSpec(departments=1, projects_per_dept=1,
                          employees_per_dept=2, seed=seed)
        )
        for seed in range(4)
    ]


class TestZeroRetryPolicy:
    def test_zero_retries_never_reattempts(self):
        policy = RetryPolicy(max_retries=0)
        assert not policy.should_retry(1, transient=True)
        assert not policy.should_retry(1, transient=False)

    def test_zero_retries_first_transient_fault_dead_letters(
        self, mapping, documents
    ):
        """With ``max_retries=0`` even a fault that would heal on the
        second attempt goes straight to the dead-letter queue."""
        injector = FaultInjector(
            {1: Fault(kind="raise", error="TransientError", attempts=1)}
        )
        batch = BatchRunner(
            mapping, cache=PlanCache(), error_policy="collect",
            max_retries=0, injector=injector,
        ).run(documents)
        [letter] = batch.dead_letters
        assert letter.failure.index == 1
        assert letter.failure.attempts == 1
        assert letter.failure.transient

    def test_delay_is_zero_for_nonpositive_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff=0.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.0, 0.0, 0.0]

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestTimeoutOnFinalAttempt:
    def test_timeout_firing_on_final_attempt_is_the_recorded_failure(
        self, mapping, documents
    ):
        """A delay fault that outlives the budget on *every* attempt:
        the last attempt's timeout is what the failure records, and the
        attempt count shows the full budget was spent."""
        injector = FaultInjector(
            {2: Fault(kind="delay", seconds=5.0, attempts=2)}
        )
        batch = BatchRunner(
            mapping, cache=PlanCache(), error_policy="collect",
            max_retries=1, timeout=0.05, injector=injector,
        ).run(documents)
        [letter] = batch.dead_letters
        assert letter.failure.index == 2
        assert letter.failure.attempts == 2  # initial + the one retry
        assert letter.failure.error == "DocumentTimeout"
        assert letter.failure.timed_out
        assert letter.failure.transient
        assert batch.metrics.to_dict()["timeouts"] == 2

    def test_heal_exactly_on_final_attempt(self, mapping, documents):
        """The mirror case: the fault stops delaying on the last
        allowed attempt, so the document succeeds with zero failures."""
        injector = FaultInjector(
            {2: Fault(kind="delay", seconds=5.0, attempts=2)}
        )
        batch = BatchRunner(
            mapping, cache=PlanCache(), error_policy="collect",
            max_retries=2, timeout=0.05, injector=injector,
        ).run(documents)
        assert batch.dead_letters == []
        assert batch.metrics.failures == 0
        assert len(batch.results) == len(documents)

    def test_an_abandoned_delay_stops_with_its_caller(self):
        """A scripted delay stops at its deadline instead of sleeping
        on: the check between its sleep slices raises."""
        injector = FaultInjector({0: Fault(kind="delay", seconds=30.0)})
        started = time.monotonic()
        with pytest.raises(DocumentTimeout), Deadline(0.02):
            injector.fire(0)
        assert time.monotonic() - started < 5.0


class TestDeadline:
    """The budget every timeout runs on: the HTTP service wraps it
    around a whole request, the batch runner around each attempt."""

    def test_unbounded_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        with deadline:
            check_deadline()

    def test_remaining_shrinks_and_floors_at_zero(self):
        deadline = Deadline(30.0)
        first = deadline.remaining()
        time.sleep(0.01)
        second = deadline.remaining()
        assert first > second > 0
        spent = Deadline(1e-9)
        time.sleep(0.01)
        assert spent.remaining() == 0.0

    def test_run_raises_document_timeout_on_overrun(self):
        with pytest.raises(DocumentTimeout) as excinfo, Deadline(0.02):
            while True:
                check_deadline()
        assert is_transient(excinfo.value)

    def test_run_on_a_spent_deadline_raises_before_calling(self):
        deadline = Deadline(1e-9)
        time.sleep(0.01)
        calls = []
        with pytest.raises(DocumentTimeout, match="deadline"), deadline:
            check_deadline()
            calls.append(1)
        assert calls == []

    def test_nonpositive_budget_is_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_run_relays_result_and_error(self):
        with Deadline(5.0):
            assert check_deadline() is None

        with pytest.raises(KeyError), Deadline(5.0):
            raise KeyError("inner")


class TestBackoffDeterminism:
    def test_schedule_formula(self):
        policy = RetryPolicy(
            max_retries=5, backoff=0.1, backoff_factor=2.0, max_backoff=0.5
        )
        assert [policy.delay(n) for n in range(1, 6)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]

    def test_slept_backoff_sequence_is_deterministic(
        self, mapping, documents, monkeypatch
    ):
        """Two identical runs under the same (seeded) fault plan sleep
        the exact same backoff sequence — the no-jitter contract the
        batch runner's reruns rely on."""

        def run_once():
            slept: list[float] = []
            with pytest.MonkeyPatch.context() as patch:
                # Only raise-kind faults are injected, so every sleep
                # in the run is a backoff sleep.
                patch.setattr(time, "sleep", slept.append)
                injector = FaultInjector({
                    0: Fault(kind="raise", error="TransientError", attempts=3),
                    3: Fault(kind="raise", error="TransientError", attempts=2),
                })
                batch = BatchRunner(
                    mapping, cache=PlanCache(), error_policy="collect",
                    max_retries=3, backoff=0.01, injector=injector,
                ).run(documents)
            assert batch.metrics.failures == 0
            return slept

        # doc 0 heals on attempt 4 → retries 1..3; doc 3 on attempt 3 →
        # retries 1..2.  backoff=0.01, factor 2 → 0.01, 0.02, 0.04 +
        # 0.01, 0.02 in document order.
        first = run_once()
        assert first == [0.01, 0.02, 0.04, 0.01, 0.02]
        assert run_once() == first
