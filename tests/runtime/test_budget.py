"""Unit tests for the run-wide :class:`Budget`."""

import pytest

from repro.runtime.budget import Budget, BudgetExhaustedError
from repro.sat.solver import Limits


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_unlimited_budget_never_exhausts():
    budget = Budget.unlimited()
    for _ in range(100):
        budget.checkpoint("anywhere")
    budget.check_states(10**9)
    assert budget.remaining_seconds() is None
    assert budget.remaining_backtracks() is None
    assert budget.sub_limits(None) is None


def test_deadline_checkpoint_raises():
    clock = FakeClock()
    budget = Budget(max_seconds=5.0, clock=clock)
    budget.checkpoint("early")
    clock.advance(5.1)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        budget.checkpoint("late")
    assert excinfo.value.resource == "wall-clock"
    assert excinfo.value.point == "late"
    assert budget.exhausted_at == "late"


def test_state_cap():
    budget = Budget(max_states=100)
    budget.check_states(100)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        budget.check_states(101, point="reachability")
    assert excinfo.value.resource == "states"


def test_sub_limits_clips_seconds_to_deadline():
    clock = FakeClock()
    budget = Budget(max_seconds=10.0, clock=clock)
    clock.advance(8.0)
    limits = budget.sub_limits(Limits(max_backtracks=500, max_seconds=60.0))
    assert limits.max_backtracks == 500
    assert limits.max_seconds == pytest.approx(2.0)


def test_sub_limits_never_negative():
    clock = FakeClock()
    budget = Budget(max_seconds=1.0, clock=clock)
    clock.advance(5.0)
    limits = budget.sub_limits(Limits(max_seconds=60.0))
    assert limits.max_seconds == 0.0


def test_backtrack_pool_drains():
    budget = Budget(max_backtracks=1000)
    budget.charge_backtracks(400)
    assert budget.remaining_backtracks() == 600
    limits = budget.sub_limits(Limits(max_backtracks=10_000))
    assert limits.max_backtracks == 600
    budget.charge_backtracks(700)
    assert budget.remaining_backtracks() == 0
    assert budget.sub_limits(None).max_backtracks == 0


def test_sub_limits_without_caps_passes_through():
    budget = Budget()
    original = Limits(max_backtracks=7, max_seconds=3.0)
    assert budget.sub_limits(original) is original


def test_snapshot_shape():
    budget = Budget(max_seconds=2.0, max_states=50, max_backtracks=10)
    budget.charge_backtracks(3)
    budget.checkpoint()
    snap = budget.snapshot()
    assert snap["max_seconds"] == 2.0
    assert snap["max_states"] == 50
    assert snap["backtracks_used"] == 3
    assert snap["checkpoints"] == 1
    assert snap["exhausted_at"] is None
