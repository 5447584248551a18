"""Unit tests for cubes and covers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic.cover import DASH, Cover, Cube, pack_minterm


class TestCubeBasics:
    def test_parse_and_str(self):
        assert str(Cube.parse("1-0")) == "1-0"

    def test_bad_character(self):
        with pytest.raises(ValueError):
            Cube.parse("1x0")

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            Cube([0, 3])

    def test_immutable(self):
        cube = Cube.parse("1-")
        with pytest.raises(AttributeError):
            cube.positions = (0, 0)

    def test_literals(self):
        assert Cube.parse("1-0").literals == 2
        assert Cube.full(4).literals == 0

    def test_size(self):
        assert Cube.parse("1-0").size() == 2
        assert Cube.full(3).size() == 8

    def test_minterms(self):
        assert sorted(Cube.parse("1-").minterms()) == [(1, 0), (1, 1)]

    def test_equality_and_hash(self):
        assert Cube.parse("1-") == Cube.parse("1-")
        assert hash(Cube.parse("1-")) == hash(Cube.parse("1-"))


class TestCubeAlgebra:
    def test_contains_minterm(self):
        cube = Cube.parse("1-0")
        assert cube.contains_minterm((1, 0, 0))
        assert cube.contains_minterm((1, 1, 0))
        assert not cube.contains_minterm((0, 0, 0))

    def test_covers(self):
        assert Cube.parse("1-").covers(Cube.parse("11"))
        assert not Cube.parse("11").covers(Cube.parse("1-"))

    def test_intersects(self):
        assert Cube.parse("1-").intersects(Cube.parse("-0"))
        assert not Cube.parse("1-").intersects(Cube.parse("0-"))

    def test_intersection(self):
        assert Cube.parse("1-").intersection(Cube.parse("-0")) == Cube.parse(
            "10"
        )
        assert Cube.parse("1-").intersection(Cube.parse("0-")) is None

    def test_raised_and_bound(self):
        assert Cube.parse("10").raised(1) == Cube.parse("1-")
        assert Cube.parse("1-").bound(1, 0) == Cube.parse("10")

    def test_distance(self):
        assert Cube.parse("10").distance(Cube.parse("01")) == 2
        assert Cube.parse("1-").distance(Cube.parse("-0")) == 0


class TestCover:
    def test_append_checks_width(self):
        cover = Cover(2)
        with pytest.raises(ValueError):
            cover.append(Cube.parse("1-0"))

    def test_from_strings(self):
        cover = Cover.from_strings(2, ["1-", "-1"])
        assert len(cover) == 2
        assert cover.literals == 2

    def test_evaluate(self):
        cover = Cover.from_strings(2, ["1-"])
        assert cover.evaluate((1, 0)) == 1
        assert cover.evaluate((0, 0)) == 0

    def test_without(self):
        cover = Cover.from_strings(2, ["1-", "-1"])
        assert len(cover.without(0)) == 1

    def test_equality_is_set_based(self):
        assert Cover.from_strings(2, ["1-", "-1"]) == Cover.from_strings(
            2, ["-1", "1-"]
        )


bits3 = st.tuples(*(st.integers(0, 1) for _ in range(3)))


@given(bits3, st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_cover_relation_respects_minterms(minterm, positions):
    cube = Cube(positions)
    full = Cube.from_minterm(minterm)
    if cube.covers(full):
        assert cube.contains_minterm(minterm)


@given(
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
def test_intersection_consistent_with_intersects(pa, pb):
    a, b = Cube(pa), Cube(pb)
    result = a.intersection(b)
    assert (result is not None) == a.intersects(b)
    if result is not None:
        for m in result.minterms():
            assert a.contains_minterm(m) and b.contains_minterm(m)


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_mask_is_the_positional_cube_on_ints(case):
    positions, minterm = case
    cube = Cube(positions)
    value, care = cube.mask()
    assert value & ~care == 0
    assert Cube.from_mask(value, care, len(positions)) == cube
    assert (not (pack_minterm(minterm) ^ value) & care) == (
        cube.contains_minterm(minterm)
    )
    assert pack_minterm(minterm) == sum(
        bit << i for i, bit in enumerate(minterm)
    )
