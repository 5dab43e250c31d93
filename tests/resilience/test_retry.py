"""Tests for repro.resilience.retry — bounded retry with injectable backoff."""

import pytest

from repro.faults import WorkerKilled
from repro.resilience import RetryPolicy, retry_in_waves


class TestRetryPolicy:
    def test_delay_schedule_is_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_zero_backoff_means_immediate_retries(self):
        policy = RetryPolicy(backoff_s=0.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(7) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRetryInWaves:
    def test_wave_backoff_schedule_and_bookkeeping(self, counter_value):
        # "a" succeeds at once, "b" on its third attempt, "c" never: three
        # waves, backing off 0.5 s then 1.0 s between them.
        succeed_on = {"a": 1, "b": 3, "c": 99}
        calls = {unit: 0 for unit in succeed_on}
        waves, slept, done, exhausted = [], [], [], []

        def run_wave(pending):
            waves.append(list(pending))
            for unit in pending:
                calls[unit] += 1
                failed = calls[unit] < succeed_on[unit]
                yield unit, {"failed": True, "error": "boom"} if failed else {"ok": 1}

        retry_in_waves(
            ["a", "b", "c"],
            run_wave,
            RetryPolicy(max_attempts=3, backoff_s=0.5, backoff_factor=2.0),
            on_success=lambda unit, outcome: done.append(unit),
            on_exhausted=lambda unit, outcome, attempts: exhausted.append(
                (unit, outcome["error"], attempts)
            ),
            sleep=slept.append,
        )
        assert waves == [["a", "b", "c"], ["b", "c"], ["b", "c"]]
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]
        assert done == ["a", "b"]
        assert exhausted == [("c", "boom", 3)]
        assert counter_value("faults.errors") == 5
        assert counter_value("faults.retries") == 4
        assert counter_value("faults.exhausted") == 1

    def test_no_failures_means_one_wave_and_no_sleep(self):
        slept = []
        retry_in_waves(
            [1, 2],
            lambda pending: ((unit, {}) for unit in pending),
            RetryPolicy(backoff_s=1.0),
            on_success=lambda unit, outcome: None,
            on_exhausted=lambda unit, outcome, attempts: None,
            sleep=slept.append,
        )
        assert slept == []

    def test_single_attempt_policy_exhausts_without_sleeping(self, counter_value):
        slept, exhausted = [], []
        retry_in_waves(
            ["a"],
            lambda pending: ((unit, {"failed": True, "error": "once"}) for unit in pending),
            RetryPolicy(max_attempts=1, backoff_s=1.0),
            on_success=lambda unit, outcome: None,
            on_exhausted=lambda unit, outcome, attempts: exhausted.append((unit, attempts)),
            sleep=slept.append,
        )
        assert exhausted == [("a", 1)]
        assert slept == []
        assert counter_value("faults.retries") == 0
        assert counter_value("faults.exhausted") == 1

    def test_worker_killed_propagates_uncounted(self, counter_value):
        def killed(pending):
            raise WorkerKilled("preempted")

        with pytest.raises(WorkerKilled):
            retry_in_waves(
                ["a"],
                killed,
                RetryPolicy(max_attempts=5, backoff_s=0.0),
                on_success=lambda unit, outcome: None,
                on_exhausted=lambda unit, outcome, attempts: None,
            )
        assert counter_value("faults.errors") == 0
