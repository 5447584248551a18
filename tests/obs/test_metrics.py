"""Counters, histograms and gauges, and the results that carry them."""

import pytest

from repro.obs import (
    COUNTER_GLOSSARY,
    DERIVED_GLOSSARY,
    GAUGE_GLOSSARY,
    HISTOGRAM_BUCKETS,
    HISTOGRAM_GLOSSARY,
    Counters,
    Gauge,
    Histogram,
    with_derived,
)
from repro.sat import SAT, Cnf, solve_with
from repro.sat.solver import SolveResult


def test_add_accumulates_and_returns_total():
    counters = Counters()
    assert counters.add("backtracks") == 1
    assert counters.add("backtracks", 4) == 5
    assert counters["backtracks"] == 5


def test_missing_counters_read_as_zero():
    counters = Counters()
    assert counters["decisions"] == 0
    assert counters.get("decisions") == 0
    assert "decisions" not in counters


def test_zero_delta_on_absent_key_creates_no_entry():
    counters = Counters()
    assert counters.add("signals_added", 0) == 0
    assert "signals_added" not in counters
    assert not counters
    # ... but adding 0 to an existing counter keeps it.
    counters.add("signals_added", 2)
    counters.add("signals_added", 0)
    assert counters["signals_added"] == 2


def test_constructor_drops_zero_values():
    counters = Counters(decisions=3, backtracks=0)
    assert counters.as_dict() == {"decisions": 3}


def test_merge_counters_and_plain_dict():
    left = Counters(decisions=1, seconds=0.5)
    left.merge(Counters(decisions=2, backtracks=7))
    left.merge({"seconds": 0.25})
    assert left == {"decisions": 3, "backtracks": 7, "seconds": 0.75}


def test_merge_returns_self_for_chaining():
    bag = Counters(a=1).merge({"b": 2}).merge({"a": 1})
    assert bag == {"a": 2, "b": 2}


def test_as_dict_is_sorted_snapshot():
    counters = Counters(zeta=1, alpha=2)
    snapshot = counters.as_dict()
    assert list(snapshot) == ["alpha", "zeta"]
    snapshot["alpha"] = 99  # the snapshot is a copy
    assert counters["alpha"] == 2


def test_equality_against_counters_and_dict():
    assert Counters(a=1) == Counters(a=1)
    assert Counters(a=1) == {"a": 1}
    assert Counters(a=1) != {"a": 2}


def test_iteration_is_sorted_and_len_counts_entries():
    counters = Counters(b=1, a=2)
    assert list(counters) == ["a", "b"]
    assert len(counters) == 2


def test_glossary_names_are_snake_case_strings():
    for glossary in (COUNTER_GLOSSARY, DERIVED_GLOSSARY,
                     HISTOGRAM_GLOSSARY, GAUGE_GLOSSARY):
        for name, description in glossary.items():
            assert name == name.lower()
            assert " " not in name
            assert description


def test_every_declared_histogram_has_glossary_and_sorted_bounds():
    for name, bounds in HISTOGRAM_BUCKETS.items():
        assert name in HISTOGRAM_GLOSSARY
        assert list(bounds) == sorted(bounds)
        assert len(set(bounds)) == len(bounds)


# -- histograms -------------------------------------------------------------


def test_histogram_buckets_observations_and_tracks_sum():
    hist = Histogram("module_solve_seconds")
    hist.observe(0.0001)   # below the first bound
    hist.observe(0.02)     # mid-range
    hist.observe(100.0)    # above the last bound -> +Inf bucket
    assert hist.count == 3
    assert hist.total == pytest.approx(100.0201)
    assert hist.mean == pytest.approx(100.0201 / 3)
    assert hist.counts[0] == 1
    assert hist.counts[-1] == 1


def test_histogram_cumulative_ends_at_infinity_with_full_count():
    hist = Histogram("x", bounds=(1.0, 2.0))
    for value in (0.5, 1.5, 5.0, 5.0):
        hist.observe(value)
    assert hist.cumulative() == [
        (1.0, 1), (2.0, 2), (float("inf"), 4),
    ]


# -- gauges -----------------------------------------------------------------


def test_gauge_max_mode_keeps_high_water_mark():
    gauge = Gauge("peak_memory_bytes")
    gauge.set(100)
    gauge.set(50)
    assert gauge.value == 100.0
    gauge.set(200)
    assert gauge.value == 200.0


def test_gauge_last_mode_is_last_write_wins():
    gauge = Gauge("x", mode="last")
    gauge.set(100)
    gauge.set(50)
    assert gauge.value == 50.0
    with pytest.raises(ValueError):
        Gauge("x", mode="median")


def test_gauge_keys_include_sorted_labels():
    bare = Gauge("x")
    labelled = Gauge("x", labels={"b": 2, "a": 1})
    assert bare.key() == "x"
    assert labelled.key() == "x{a=1,b=2}"


# -- derived metrics --------------------------------------------------------


def test_with_derived_adds_hit_rates_without_mutating_input():
    totals = Counters(result_cache_hits=3, result_cache_misses=1,
                      proj_cache_hits=1, proj_cache_misses=3)
    derived = with_derived(totals)
    assert derived["result_cache_hit_rate"] == pytest.approx(0.75)
    assert derived["proj_cache_hit_rate"] == pytest.approx(0.25)
    assert "result_cache_hit_rate" not in totals


def test_with_derived_skips_ratios_with_no_lookups():
    derived = with_derived(Counters(sat_attempts=2))
    assert "result_cache_hit_rate" not in derived
    assert derived["sat_attempts"] == 2


def test_solve_result_builds_metrics_from_legacy_args():
    result = SolveResult(SAT, {1: True}, 3, 17, 2, 0.5)
    assert result.metrics == {
        "decisions": 3, "propagations": 17, "backtracks": 2, "seconds": 0.5,
    }
    # The classic statistic names read from the shared bag.
    assert result.decisions == 3
    assert result.propagations == 17
    assert result.backtracks == 2
    assert result.seconds == 0.5


def test_solver_results_carry_counters_bag():
    cnf = Cnf()
    a, b = cnf.new_var("a"), cnf.new_var("b")
    cnf.add_clause([a, b])
    cnf.add_clause([-a])
    result = solve_with(cnf, engine="dpll")
    assert result.status == SAT
    assert isinstance(result.metrics, Counters)
    assert result.metrics["propagations"] == result.propagations
    assert result.metrics["seconds"] >= 0


def test_attempt_stats_fold_formula_size_and_solver_metrics():
    from repro.csc.solve import AttemptStats

    cnf = Cnf()
    a = cnf.new_var("a")
    cnf.add_clause([a])
    result = solve_with(cnf, engine="dpll")
    attempt = AttemptStats(2, num_vars=5, num_clauses=9, result=result)
    assert attempt.num_vars == 5
    assert attempt.num_clauses == 9
    assert attempt.metrics["num_clauses"] == 9
    # The solver's own counters are merged into the same bag.
    assert attempt.metrics["propagations"] == result.propagations
    assert attempt.backtracks == result.backtracks
