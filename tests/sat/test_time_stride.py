"""Regression: wall-clock deadlines fire on conflict-free stretches.

Both search engines used to consult ``Limits.max_seconds`` only when a
conflict occurred, so a long decide/propagate run with no conflicts
sailed past the deadline.  These tests pin the fix -- a stride-based
check on decisions -- with an injected always-expired clock and a
conflict-free formula: without the stride the runs would return SAT,
never having looked at the clock.
"""

from functools import partial

import pytest

from repro.sat import Cnf, Limits, solve_with
from repro.sat.solver import LIMIT, solve

#: The one-shot CDCL engine: a fresh ``IncrementalSolver`` per call.
cdcl = partial(solve_with, engine="cdcl")


class ExpiredStopwatch:
    """A clock already past any finite deadline."""

    def __init__(self, clock=None):
        pass

    def elapsed(self):
        return 1e9

    def exceeded(self, max_seconds):
        return max_seconds is not None


def conflict_free_cnf():
    # 150 disjoint binary clauses: satisfiable with zero conflicts but
    # well over the check stride's worth of decisions.
    cnf = Cnf()
    variables = [cnf.new_var() for _ in range(300)]
    for i in range(0, 300, 2):
        cnf.add_clause([variables[i], variables[i + 1]])
    return cnf


@pytest.mark.parametrize(
    "module, engine",
    [("repro.sat.solver", solve), ("repro.sat.incremental", cdcl)],
    ids=["dpll", "cdcl"],
)
def test_deadline_fires_without_conflicts(monkeypatch, module, engine):
    monkeypatch.setattr(f"{module}.Stopwatch", ExpiredStopwatch)
    result = engine(conflict_free_cnf(), Limits(max_seconds=0.001))
    assert result.status == LIMIT


@pytest.mark.parametrize(
    "engine", [solve, cdcl], ids=["dpll", "cdcl"]
)
def test_no_deadline_still_completes(engine):
    # The stride check must be inert when max_seconds is None.
    result = engine(conflict_free_cnf(), Limits())
    assert result.status == "sat"
