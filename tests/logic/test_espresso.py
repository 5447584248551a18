"""Unit and property tests for the espresso-like minimizer."""

import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.logic import celement, extract
from repro.logic.celement import synthesize_celements
from repro.logic.cover import unpack_minterm
from repro.logic.espresso import (
    _MAX_ROUNDS,
    _cost,
    _expand,
    _irredundant,
    _offset_columns,
    _reduce,
    _remove_covered,
    _to_int,
    _var_order,
    espresso,
    espresso_ints,
    verify_cover,
)

from tests.example_stgs import generated_corpus


def all_minterms(n):
    return list(itertools.product([0, 1], repeat=n))


class TestKnownFunctions:
    def test_empty_onset(self):
        cover = espresso([], [(0, 0), (1, 1)], 2)
        assert len(cover) == 0

    def test_constant_one(self):
        cover = espresso(all_minterms(2), [], 2)
        assert len(cover) == 1
        assert cover.literals == 0  # the universal cube

    def test_single_minterm_with_dc_everywhere(self):
        cover = espresso([(1, 1)], [], 2)
        assert cover.literals == 0

    def test_and_function(self):
        onset = [(1, 1)]
        offset = [(0, 0), (0, 1), (1, 0)]
        cover = espresso(onset, offset, 2)
        assert cover.literals == 2
        assert verify_cover(cover, onset, offset) == []

    def test_or_function(self):
        onset = [(0, 1), (1, 0), (1, 1)]
        offset = [(0, 0)]
        cover = espresso(onset, offset, 2)
        assert cover.literals == 2  # x + y
        assert len(cover) == 2

    def test_xor_cannot_be_merged(self):
        onset = [(0, 1), (1, 0)]
        offset = [(0, 0), (1, 1)]
        cover = espresso(onset, offset, 2)
        assert cover.literals == 4
        assert verify_cover(cover, onset, offset) == []

    def test_dont_cares_exploited(self):
        # f = 1 on 11, 0 on 00, DC on the rest: one literal suffices.
        cover = espresso([(1, 1)], [(0, 0)], 2)
        assert cover.literals == 1

    def test_classic_three_variable(self):
        # f = a'b + ab' with c as don't care input everywhere.
        onset = [(0, 1, c) for c in (0, 1)] + [(1, 0, c) for c in (0, 1)]
        offset = [(0, 0, c) for c in (0, 1)] + [(1, 1, c) for c in (0, 1)]
        cover = espresso(onset, offset, 3)
        assert cover.literals == 4
        assert all(cube.literals == 2 for cube in cover)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            espresso([(1, 1)], [(1, 1)], 2)

    def test_bad_minterm_rejected(self):
        with pytest.raises(ValueError):
            espresso([(1, 2)], [], 2)
        with pytest.raises(ValueError):
            espresso([(1,)], [], 2)


class TestPrimality:
    def test_cubes_are_prime(self):
        # No cube can be expanded without hitting the OFF-set.
        onset = [(0, 1), (1, 0), (1, 1)]
        offset = [(0, 0)]
        cover = espresso(onset, offset, 2)
        for cube in cover:
            for i in range(2):
                if cube[i] == 2:
                    continue
                raised = cube.raised(i)
                assert any(
                    raised.contains_minterm(m) for m in offset
                ), f"cube {cube} is not prime"

    def test_cover_is_irredundant(self):
        onset = [(0, 1), (1, 0), (1, 1)]
        offset = [(0, 0)]
        cover = espresso(onset, offset, 2)
        for index in range(len(cover)):
            rest = cover.without(index)
            assert not all(rest.contains_minterm(m) for m in onset)


@st.composite
def random_function(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    assignment = draw(
        st.lists(
            st.sampled_from(["on", "off", "dc"]),
            min_size=2 ** n,
            max_size=2 ** n,
        )
    )
    onset, offset = [], []
    for bits, kind in zip(itertools.product([0, 1], repeat=n), assignment):
        if kind == "on":
            onset.append(bits)
        elif kind == "off":
            offset.append(bits)
    return n, onset, offset


@settings(max_examples=150, deadline=None)
@given(random_function())
def test_minimized_cover_is_correct(function):
    n, onset, offset = function
    cover = espresso(onset, offset, n)
    assert verify_cover(cover, onset, offset) == []


@settings(max_examples=150, deadline=None)
@given(random_function())
def test_minimization_never_increases_literals(function):
    n, onset, offset = function
    cover = espresso(onset, offset, n)
    assert cover.literals <= n * len(onset)


# -- the oracle: a linear OFF-set scan and pairwise containment -------------


def _intersects_offset(value, care, off_ints):
    for m in off_ints:
        if not (m ^ value) & care:
            return True
    return False


def _reference_expand(cubes, off_ints, order):
    """Raise every cube to a prime against the OFF-set."""
    expanded = []
    for value, care in cubes:
        for i in order:
            bit = 1 << i
            if not care & bit:
                continue
            new_care = care & ~bit
            if not _intersects_offset(value & new_care, new_care, off_ints):
                care = new_care
                value &= new_care
        expanded.append((value, care))
    return expanded


def _covers(a, b):
    """Cube ``a`` covers cube ``b``."""
    value_a, care_a = a
    value_b, care_b = b
    return not (care_a & ~care_b) and not ((value_a ^ value_b) & care_a)


def _reference_remove_covered(cubes):
    result = []
    for i, cube in enumerate(cubes):
        redundant = False
        for j, other in enumerate(cubes):
            if j == i:
                continue
            if other == cube:
                if j < i:  # keep only the first duplicate
                    redundant = True
                    break
                continue
            if _covers(other, cube):
                redundant = True
                break
        if not redundant:
            result.append(cube)
    return result


def _check_against_reference(onset, offset, n):
    """Run espresso's loop on the reference phases, asserting that each
    bitset phase returns the same list on the way, and that ``espresso``
    returns the loop's cover."""
    on_ints = sorted({_to_int(bits, n) for bits in onset})
    off_ints = sorted({_to_int(bits, n) for bits in offset})
    expected = []
    if on_ints:
        full_mask = (1 << n) - 1
        offset_columns = _offset_columns(off_ints, n)
        cubes = [(m, full_mask) for m in on_ints]
        best = None
        for round_index in range(_MAX_ROUNDS):
            order = _var_order(n, round_index)
            expanded = _reference_expand(cubes, off_ints, order)
            assert _expand(cubes, offset_columns, order) == expanded
            cubes = _reference_remove_covered(expanded)
            assert _remove_covered(expanded) == cubes
            cubes = _irredundant(cubes, on_ints)
            cost = _cost(cubes)
            if best is None or cost < best[0]:
                best = (cost, list(cubes))
            else:
                break
            cubes = _reduce(cubes, on_ints, full_mask)
        expected = best[1]
    cover = espresso(onset, offset, n)
    assert cover.n == n
    assert [cube.mask() for cube in cover] == expected
    assert espresso_ints(on_ints, off_ints, n) == cover


@functools.lru_cache(maxsize=None)
def _recorded_calls(name):
    """Every ``(onset, offset, n)`` espresso receives while one spec is
    synthesised and realised as C-elements.  ``synthesize_logic`` sends
    packed ints to ``espresso_ints``; they are recorded as tuples."""
    calls = []

    def recording(onset, offset, n):
        calls.append((tuple(onset), tuple(offset), n))
        return espresso(onset, offset, n)

    def recording_ints(onset, offset, n):
        calls.append((
            tuple(unpack_minterm(m, n) for m in onset),
            tuple(unpack_minterm(m, n) for m in offset),
            n,
        ))
        return espresso_ints(onset, offset, n)

    if name in benchmark_names():
        stg = load_benchmark(name)
    else:
        stg = {g.name: g.stg for g in generated_corpus()}[name]
    with mock.patch.object(extract, "espresso_ints", recording_ints), \
            mock.patch.object(celement, "espresso", recording):
        result = modular_synthesis(stg)
        synthesize_celements(result.expanded)
    return tuple(calls)


_RECORDED = tuple(benchmark_names()) + tuple(
    g.name for g in generated_corpus()
)


class TestBitsetPhasesMatchReference:
    @pytest.mark.parametrize("name", _RECORDED)
    def test_recorded_calls(self, name):
        calls = _recorded_calls(name)
        assert calls
        for onset, offset, n in calls:
            _check_against_reference(onset, offset, n)

    def test_n_zero(self):
        for onset, offset in (([()], []), ([], [()]), ([], [])):
            _check_against_reference(onset, offset, 0)


@st.composite
def incompletely_specified(draw):
    """``(onset, offset, n)`` over up to 8 variables; either set may be
    empty, and ``n == 0`` is the constant function."""
    n = draw(st.integers(min_value=0, max_value=8))
    minterms = st.integers(min_value=0, max_value=2 ** n - 1)
    on_ints = draw(st.sets(minterms, max_size=48))
    off_ints = draw(st.sets(minterms, max_size=48)) - on_ints

    def bits(m):
        return tuple(m >> i & 1 for i in range(n))

    return [bits(m) for m in on_ints], [bits(m) for m in off_ints], n


@settings(max_examples=300, deadline=None)
@given(incompletely_specified())
def test_random_functions_match_reference(function):
    _check_against_reference(*function)


@st.composite
def masked_cubes(draw):
    """``(n, cubes)``: cubes with values masked by their care, drawn from
    a small pool so duplicates and nested cubes are common."""
    n = draw(st.integers(min_value=0, max_value=6))
    word = st.integers(min_value=0, max_value=2 ** n - 1)
    pool = draw(st.lists(st.tuples(word, word), min_size=1, max_size=8))
    pool = [(value & care, care) for value, care in pool]
    picks = draw(st.lists(st.sampled_from(pool), max_size=24))
    return n, picks


@settings(max_examples=300, deadline=None)
@given(masked_cubes())
def test_remove_covered_matches_reference(case):
    _n, cubes = case
    assert _remove_covered(cubes) == _reference_remove_covered(cubes)


@settings(max_examples=300, deadline=None)
@given(masked_cubes(), st.data())
def test_expand_matches_reference(case, data):
    n, cubes = case
    off_ints = sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=2 ** n - 1), max_size=24)
    ))
    order = data.draw(st.permutations(range(n)))
    assert _expand(cubes, _offset_columns(off_ints, n), order) == (
        _reference_expand(cubes, off_ints, order)
    )
