"""RetryPolicy's seeded jitter: deterministic, bounded, decorrelated.

The jitter stretches each backoff by a seeded fraction so retries of a
shared transient fault (same NFS hiccup, same saturated disk) spread
out — but a test harness must still get the exact same schedule from
the same seed. Stateless splitmix64 over ``(jitter_seed, attempt)``
gives both.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service.journal import RetryPolicy


def test_schedule_is_deterministic_per_seed():
    policy = RetryPolicy(attempts=5, backoff_seconds=0.01, jitter_seed=7)
    assert list(policy.delays()) == list(policy.delays())
    again = RetryPolicy(attempts=5, backoff_seconds=0.01, jitter_seed=7)
    assert list(policy.delays()) == list(again.delays())


def test_different_seeds_differ():
    a = RetryPolicy(attempts=6, jitter_seed=1)
    b = RetryPolicy(attempts=6, jitter_seed=2)
    assert list(a.delays()) != list(b.delays())


def test_delays_are_bounded_exponential():
    policy = RetryPolicy(
        attempts=8, backoff_seconds=0.01, jitter=0.5, jitter_seed=42
    )
    delays = list(policy.delays())
    assert len(delays) == 7
    base = 0.01
    for delay in delays:
        assert base <= delay <= base * 1.5
        base *= 2


def test_zero_jitter_is_exact_exponential():
    policy = RetryPolicy(attempts=4, backoff_seconds=0.02, jitter=0.0)
    assert list(policy.delays()) == [0.02, 0.04, 0.08]


def test_single_attempt_has_no_delays():
    assert list(RetryPolicy(attempts=1).delays()) == []


def test_invalid_jitter_is_typed():
    with pytest.raises(ServiceError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ServiceError, match="jitter"):
        RetryPolicy(jitter=-0.1)
