"""The literal-coded solver searches exactly like the solver it replaced.

``tests/sat/reference_incremental.py`` is the previous
:mod:`repro.sat.incremental`, kept verbatim.  Both solvers are driven
with the same stream of ``new_var``/``add_vars``/``add_clause``/``solve``
calls, and every solve must agree on its status, model, assumption core,
clause count and search counters -- the same decisions, propagations and
conflicts, so no synthesised circuit can move.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.csc.solve
from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc.sat_csc import IncrementalCscFormula
from repro.obs import Stopwatch
from repro.runtime.options import SynthesisOptions
from repro.runtime.run import run_synthesis
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import Limits
from tests.sat import reference_incremental
from tests.sat.reference_incremental import (
    IncrementalSolver as ReferenceSolver,
)

#: Every search counter an incremental solve reports (``seconds`` aside).
COUNTERS = (
    "decisions", "propagations", "backtracks", "incremental_solves",
    "learned_kept", "db_reductions", "assumption_cores",
)


def outcome(solver, result):
    """What a solve must reproduce exactly."""
    return (
        result.status,
        result.assignment,
        result.failed_assumptions,
        tuple(result.metrics[name] for name in COUNTERS),
        solver.num_clauses,
        solver.num_vars,
    )


def call(method, *args, **kwargs):
    """A call's value, or the type and text of the error it raised."""
    try:
        return "ok", method(*args, **kwargs)
    except (ValueError, RuntimeError) as error:
        return type(error).__name__, str(error)


class Interrupted(Exception):
    """Raised by :class:`TripwireStopwatch` to leave a solve mid-search."""


class TripwireStopwatch(Stopwatch):
    """A real stopwatch whose deadline checks raise while armed."""

    armed = False

    def exceeded(self, max_seconds):
        if TripwireStopwatch.armed:
            raise Interrupted
        return super().exceeded(max_seconds)


def replay(solver, op):
    """Apply one stream operation; returns what must match."""
    kind = op[0]
    if kind == "var":
        return call(solver.new_var)
    if kind == "vars":
        return call(solver.add_vars, op[1])
    if kind == "clause":
        return call(solver.add_clause, op[1]), solver.num_clauses
    if kind == "clauses":
        return call(solver.add_clauses, op[1]), solver.num_clauses
    if kind == "solve":
        limits = None if op[2] is None else Limits(max_backtracks=op[2])
        status, result = call(solver.solve, op[1], limits)
        if status != "ok":
            return status, result
        return outcome(solver, result)
    # "interrupt": stop a solve at its first deadline check, then try to
    # add a clause while the search is still open.
    TripwireStopwatch.armed = True
    try:
        return "finished", replay(solver, ("solve", op[1], None))
    except Interrupted:
        return "interrupted", call(solver.add_clause, [1])
    finally:
        TripwireStopwatch.armed = False


def draw_literals(data, num_vars, size):
    """``size`` literals over ``1..num_vars``; one in twenty names
    variable 0 or one past the last, which both solvers must reject
    alike."""
    literals = []
    for _ in range(size):
        if data.draw(st.integers(0, 19)) == 0:
            var = data.draw(st.sampled_from((0, num_vars + 1)))
        else:
            var = data.draw(st.integers(1, max(num_vars, 1)))
        literals.append(var if data.draw(st.booleans()) else -var)
    return literals


def draw_clause(data, num_vars):
    """Mostly the ternary clauses that make random streams conflict;
    one clause in 300 is empty, which ends the stream's search for good."""
    if data.draw(st.integers(0, 299)) == 0:
        return []
    return draw_literals(data, num_vars, data.draw(CLAUSE_SIZES))


#: Widths of non-empty clauses, weighted.
CLAUSE_SIZES = st.sampled_from((1,) * 2 + (2,) * 6 + (3,) * 25 + (4, 5) * 3)

#: Stream operations, weighted towards clauses.  A ``batch`` is a run
#: of seeded random ternary clauses, dense enough to make solves
#: conflict, learn and reduce.
OPERATIONS = st.sampled_from(
    ("clause",) * 8 + ("clauses", "batch", "var", "vars", "interrupt")
    + ("solve",) * 4
)


def random_batch(seed, num_vars, count):
    rng = random.Random(seed)
    return [
        [var if rng.random() < 0.5 else -var
         for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_streams_search_identically(data):
    solvers = [
        cls(reduce_base=5, reduce_inc=0)
        for cls in (IncrementalSolver, ReferenceSolver)
    ]
    num_vars = data.draw(st.integers(0, 16))
    for solver in solvers:
        solver.add_vars(num_vars)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sat.incremental.Stopwatch", TripwireStopwatch)
        patch.setattr(reference_incremental, "Stopwatch", TripwireStopwatch)
        for _ in range(data.draw(st.integers(1, 80))):
            kind = data.draw(OPERATIONS)
            if kind == "var":
                op = ("var",)
            elif kind == "vars":
                op = ("vars", data.draw(st.integers(-1, 3)))
            elif kind == "clause":
                op = ("clause", draw_clause(data, num_vars))
            elif kind == "batch" and num_vars >= 3:
                op = ("clauses", random_batch(
                    data.draw(st.integers(0, 2**16)), num_vars,
                    data.draw(st.integers(1, 3 * num_vars)),
                ))
            elif kind in ("clauses", "batch"):
                op = ("clauses", [
                    draw_clause(data, num_vars)
                    for _ in range(data.draw(st.integers(0, 10)))
                ])
            else:
                assumptions = draw_literals(
                    data, num_vars, data.draw(st.integers(0, 4))
                )
                limit = data.draw(st.one_of(st.none(), st.integers(1, 4)))
                op = (kind, assumptions, limit)
            got, want = (replay(solver, op) for solver in solvers)
            assert got == want, op
            num_vars = solvers[0].num_vars


def test_reduction_and_limits_search_identically():
    # A random 3-SAT stream grown past its threshold: the solves conflict,
    # reduce the learned database under a tight schedule, hit their
    # backtrack limits and end UNSAT; root units make later clauses drop
    # root-false literals.
    rng = random.Random(4)
    solvers = [
        cls(reduce_base=5, reduce_inc=0)
        for cls in (IncrementalSolver, ReferenceSolver)
    ]
    for solver in solvers:
        solver.add_vars(60)
        solver.add_clauses([[1], [-2]])
    seen = []
    for _ in range(20):
        clauses = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, 61), 3)]
            for _ in range(14)
        ]
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, 61), 4)
        ]
        limits = Limits(max_backtracks=rng.choice([None, 5, 50]))
        results = []
        for solver in solvers:
            solver.add_clauses(clauses)
            result = solver.solve(assumptions, limits)
            results.append(outcome(solver, result))
        assert results[0] == results[1]
        seen.append(results[0])
    assert {entry[0] for entry in seen} == {"sat", "unsat", "limit"}
    assert sum(entry[3][COUNTERS.index("db_reductions")]
               for entry in seen) > 20


class OracleCheckedFormula(IncrementalCscFormula):
    """A CSC formula whose every solve is replayed on the reference solver.

    The twin formula is encoded by the same encoder onto the reference
    solver, so both see one clause stream; each attempt must come back
    identical from both.  Outcomes are booked in :attr:`log`.
    """

    log = []

    def __init__(self, graph, **kwargs):
        super().__init__(graph, **kwargs)
        self.twin = IncrementalCscFormula(
            graph, solver=ReferenceSolver(), **kwargs
        )

    def ensure_m(self, m):
        super().ensure_m(m)
        self.twin.ensure_m(m)
        assert (self.num_vars, self.num_clauses) == (
            self.twin.num_vars, self.twin.num_clauses
        )

    def solve(self, m, allow_serialisation, limits=None):
        got = super().solve(m, allow_serialisation, limits)
        want = self.twin.solve(m, allow_serialisation, limits)
        got_outcome = outcome(self.solver, got)
        assert got_outcome == outcome(self.twin.solver, want)
        self.log.append(got_outcome)
        return got


@pytest.fixture(scope="module")
def table1_solves():
    """Every incremental CSC solve of one default Table-1 pass."""
    OracleCheckedFormula.log = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.csc.solve, "IncrementalCscFormula", OracleCheckedFormula
        )
        for name in benchmark_names():
            run_synthesis(load_benchmark(name), options=SynthesisOptions())
    return OracleCheckedFormula.log


def test_table1_solves_match_the_reference(table1_solves):
    # The comparison itself runs inside every solve; here it is only
    # confirmed that the pass reached the solver at all.
    assert table1_solves


def test_table1_search_totals(table1_solves):
    counters = [entry[3] for entry in table1_solves]
    totals = {
        name: sum(row[COUNTERS.index(name)] for row in counters)
        for name in ("decisions", "propagations", "backtracks")
    }
    assert len(table1_solves) == 124
    assert totals == {
        "decisions": 2190, "propagations": 22214, "backtracks": 615,
    }
