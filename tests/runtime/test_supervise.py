"""The service pool's retry policy: deterministic, capped backoff.

The respawn loop that consumes the policy is exercised end to end by
the service's worker-recovery tests (``tests/test_service.py``).
"""

import pytest

from repro.runtime.supervise import RetryPolicy


def test_delay_is_deterministic_and_jittered():
    policy = RetryPolicy(backoff=0.1, seed=7)
    first = policy.delay(1, token="a")
    assert first == policy.delay(1, token="a")
    assert 0.05 <= first < 0.1
    assert policy.delay(1, token="b") != first  # de-synchronised


def test_delay_doubles_and_caps():
    policy = RetryPolicy(backoff=0.1, backoff_cap=0.3)
    d1, d2, d3, d9 = (policy.delay(n, token="t") for n in (1, 2, 3, 9))
    assert d1 < d2 < d3
    assert d9 <= 0.3  # capped


def test_delay_differs_by_seed():
    assert (RetryPolicy(seed=0).delay(1, token="t")
            != RetryPolicy(seed=1).delay(1, token="t"))


def test_delay_attempt_starts_at_one():
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-0.1)
