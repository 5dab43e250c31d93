"""Tests for repro.resilience.retry — bounded retry with injectable backoff."""

import pytest

from repro.faults import WorkerKilled
from repro.resilience import RetryPolicy, run_with_retry
from repro.resilience.retry import retry_in_waves


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


class TestRunWithRetry:
    def test_first_success_runs_once_without_metrics(self, counter_value):
        calls = []
        result = run_with_retry(lambda: calls.append(1) or "ok")
        assert result == "ok"
        assert len(calls) == 1
        assert counter_value("faults.errors") == 0
        assert counter_value("faults.retries") == 0

    def test_transient_failures_are_retried_with_recorded_backoff(
        self, counter_value
    ):
        attempts = []
        slept = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise RuntimeError(f"attempt {len(attempts)}")
            return "recovered"

        policy = RetryPolicy(max_attempts=3, backoff_s=0.5, backoff_factor=2.0)
        result = run_with_retry(flaky, policy, sleep=slept.append)
        assert result == "recovered"
        assert len(attempts) == 3
        # First retry backs off 0.5 s, second 1.0 s — recorded, not slept.
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]
        assert counter_value("faults.errors") == 2
        assert counter_value("faults.retries") == 2
        assert counter_value("faults.exhausted") == 0

    def test_exhaustion_reraises_last_error(self, counter_value):
        def always_fails():
            raise ValueError("persistent")

        with pytest.raises(ValueError, match="persistent"):
            run_with_retry(
                always_fails,
                RetryPolicy(max_attempts=3, backoff_s=0.0),
                sleep=lambda _: None,
            )
        assert counter_value("faults.errors") == 3
        assert counter_value("faults.retries") == 2
        assert counter_value("faults.exhausted") == 1

    def test_single_attempt_policy_disables_retries(self, counter_value):
        calls = []

        def fails():
            calls.append(1)
            raise RuntimeError("once")

        with pytest.raises(RuntimeError):
            run_with_retry(fails, RetryPolicy(max_attempts=1))
        assert len(calls) == 1
        assert counter_value("faults.retries") == 0

    def test_worker_killed_is_never_retried(self):
        calls = []

        def killed():
            calls.append(1)
            raise WorkerKilled("preempted")

        with pytest.raises(WorkerKilled):
            run_with_retry(killed, RetryPolicy(max_attempts=5, backoff_s=0.0))
        assert len(calls) == 1

    def test_retry_on_filters_exception_types(self):
        calls = []

        def raises_type_error():
            calls.append(1)
            raise TypeError("not retryable here")

        with pytest.raises(TypeError):
            run_with_retry(
                raises_type_error,
                RetryPolicy(max_attempts=5, backoff_s=0.0),
                retry_on=(ValueError,),
            )
        assert len(calls) == 1


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
