"""Unit and property tests for the DPLL solver."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import LIMIT, SAT, UNSAT, Cnf, Limits, solve


def make_cnf(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert solve(Cnf()).status == SAT

    def test_single_unit(self):
        cnf = make_cnf(1, [[1]])
        result = solve(cnf)
        assert result.status == SAT
        assert result.assignment[1] is True

    def test_conflicting_units(self):
        assert solve(make_cnf(1, [[1], [-1]])).status == UNSAT

    def test_empty_clause(self):
        assert solve(make_cnf(1, [[]])).status == UNSAT

    def test_model_satisfies_formula(self):
        cnf = make_cnf(3, [[1, 2], [-1, 3], [-2, -3], [2, 3]])
        result = solve(cnf)
        assert result.status == SAT
        assert cnf.evaluate(result.assignment)

    def test_chain_of_implications(self):
        # 1 -> 2 -> ... -> 10, with 1 forced true.
        clauses = [[1]] + [[-i, i + 1] for i in range(1, 10)]
        cnf = make_cnf(10, clauses)
        result = solve(cnf)
        assert result.status == SAT
        assert all(result.assignment[v] for v in range(1, 11))
        # All forced by propagation: no search needed.
        assert result.metrics["decisions"] == 0

    def test_xor_chain_unsat(self):
        # x1 xor x2 = 1, x2 xor x3 = 1, x3 xor x1 = 1 is unsatisfiable.
        clauses = []
        for a, b in [(1, 2), (2, 3), (3, 1)]:
            clauses.append([a, b])
            clauses.append([-a, -b])
        assert solve(make_cnf(3, clauses)).status == UNSAT


def pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable, exponential for plain DPLL."""
    pigeons = holes + 1
    cnf = Cnf()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestHardFormulas:
    def test_pigeonhole_unsat(self):
        assert solve(pigeonhole(4)).status == UNSAT

    def test_backtrack_limit_triggers(self):
        result = solve(pigeonhole(8), Limits(max_backtracks=50))
        assert result.status == LIMIT
        assert result.backtracks >= 50

    def test_time_limit_triggers(self):
        result = solve(pigeonhole(10), Limits(max_seconds=0.05))
        assert result.status == LIMIT

    def test_stats_populated(self):
        result = solve(pigeonhole(4))
        assert result.backtracks > 0
        assert result.metrics["decisions"] > 0
        assert result.metrics["seconds"] >= 0


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


@st.composite
def random_formula(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=18))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(size)
        ]
        clauses.append(clause)
    return num_vars, clauses


@settings(max_examples=200, deadline=None)
@given(random_formula())
def test_solver_matches_brute_force(formula):
    num_vars, clauses = formula
    cnf = make_cnf(num_vars, clauses)
    result = solve(cnf)
    expected = brute_force_sat(num_vars, cnf.clauses)
    assert result.status == (SAT if expected else UNSAT)
    if result.status == SAT:
        assert cnf.evaluate(result.assignment)
