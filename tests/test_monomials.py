from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from conftest import M, M_LEFT, M_RIGHT, exhaustive_corpus, python_steps, staircase_c
from stairstep import (
    EmptyIdeal,
    Monomial,
    MonomialIdeal,
    ParseError,
    UnitIdeal,
    betti_table,
    build_resolution,
    classify,
    minimal_resolution_bruteforce,
    normalize_ideal,
    parse_ideal,
    parse_monomial,
    resolution_to_json,
    staircase_outline,
    standard_monomials,
)
from stairstep.monomials import _minimalize, _standard_x

monomials = st.builds(Monomial, st.integers(0, 8), st.integers(0, 8))
proper_monomials = monomials.filter(lambda m: not m.is_unit)
ideals = st.lists(proper_monomials, min_size=1, max_size=6).map(normalize_ideal)


def divides(g, m):
    return g.xdeg <= m.xdeg and g.ydeg <= m.ydeg


class TestMonomial:
    def test_degree(self):
        assert Monomial(2, 3).degree == 5

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(-1, 0)

    def test_str(self):
        assert str(Monomial(3, 1)) == "x^3*y"
        assert str(Monomial(0, 0)) == "1"


class TestNormalize:
    def test_removes_non_minimal(self):
        ideal = M((2, 1), (1, 2), (3, 2))
        assert ideal.generators == (Monomial(2, 1), Monomial(1, 2))

    def test_staircase_order(self):
        ideal = M((0, 4), (1, 2))
        assert ideal.generators == (Monomial(1, 2), Monomial(0, 4))

    def test_single_generator(self):
        assert M((1, 0)).generators == (Monomial(1, 0),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyIdeal):
            normalize_ideal([])

    def test_unit_rejected(self):
        with pytest.raises(UnitIdeal):
            normalize_ideal([Monomial(0, 0), Monomial(1, 0)])

    def test_constructor_rejects_the_zero_ideal(self):
        with pytest.raises(EmptyIdeal, match="at least one generator"):
            MonomialIdeal(())

    def test_constructor_rejects_the_unit_ideal(self):
        with pytest.raises(UnitIdeal, match="not a proper ideal"):
            MonomialIdeal((Monomial(0, 0),))

    @given(ideals)
    def test_idempotent(self, ideal):
        assert normalize_ideal(ideal.generators) == ideal

    @given(ideals)
    def test_staircase_invariant(self, ideal):
        a = [g.xdeg for g in ideal.generators]
        b = [g.ydeg for g in ideal.generators]
        assert all(a[i] > a[i + 1] for i in range(len(a) - 1))
        assert all(b[i] < b[i + 1] for i in range(len(b) - 1))

    @given(st.lists(monomials, max_size=10))
    def test_minimal_generators_are_the_undivided_ones(self, raw):
        # the sorted sweep against the definition: no other one divides it
        undivided = {m for m in raw if not any(g != m and divides(g, m) for g in raw)}
        assert _minimalize(raw) == tuple(sorted(undivided, key=lambda m: -m.xdeg))

    @given(ideals)
    def test_no_generator_divides_another(self, ideal):
        gens = ideal.generators
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                assert i == j or not divides(g, h)


class TestMembership:
    def test_examples(self):
        ideal = M_LEFT
        assert ideal.contains(Monomial(3, 5))
        assert not ideal.contains(Monomial(5, 0))
        assert ideal.contains(Monomial(0, 4))

    @given(ideals, monomials)
    def test_absorption(self, ideal, m):
        if ideal.contains(m):
            assert ideal.contains(Monomial(m.xdeg + 1, m.ydeg))
            assert ideal.contains(Monomial(m.xdeg, m.ydeg + 1))


def scan_contains(ideal, m):
    """Reference membership test: a linear divisibility scan."""
    return any(divides(g, m) for g in ideal.generators)


# reaches past the outer corners of every ideal drawn from ``ideals``
far_monomials = st.builds(Monomial, st.integers(0, 12), st.integers(0, 12))


class TestStaircaseIndex:
    @given(ideals, far_monomials)
    def test_contains_matches_scan(self, ideal, m):
        assert ideal.contains(m) == scan_contains(ideal, m)
        assert ideal.contains_xy(m.xdeg, m.ydeg) == scan_contains(ideal, m)

    @given(ideals, far_monomials)
    def test_stair_matches_scan(self, ideal, m):
        stair = ideal.stair
        assert (m.ydeg >= stair[min(m.xdeg, len(stair) - 1)]) == scan_contains(ideal, m)

    @given(ideals)
    def test_stair_is_a_tuple_tabulated_once(self, ideal):
        stair = ideal.stair
        assert type(stair) is tuple and len(stair) == ideal.generators[0].xdeg + 1
        assert ideal.stair is stair

    @pytest.mark.parametrize("text", ["x^50,y", "x^50*y", "x^50,x*y,y^2"])
    def test_only_the_checks_tabulate_the_stair(self, text):
        # classify, betti and resolve never read the stair, so their cost
        # does not grow with a_1
        ideal = parse_ideal(text)
        classify(ideal)
        betti_table(ideal, 5)
        resolution_to_json(build_resolution(ideal, 5))
        assert "stair" not in vars(ideal)

    def test_bruteforce_leaves_the_stair_unchanged(self):
        ideal = M((3, 0), (0, 1))
        before = ideal.stair
        assert before == (1, 1, 1, 0)
        minimal_resolution_bruteforce(ideal, 3, 20)
        assert ideal.stair is before and before == (1, 1, 1, 0)

    # (y^4, x*y^2) reversed, equal x-exponents, equal y-exponents, a repeat
    @pytest.mark.parametrize("gens", [((0, 4), (1, 2)), ((2, 1), (2, 3)), ((3, 2), (1, 2)), ((1, 1), (1, 1))])
    def test_out_of_order_generators_rejected(self, gens):
        with pytest.raises(ValueError, match="staircase order"):
            MonomialIdeal(tuple(Monomial(a, b) for a, b in gens))

    def test_index_not_in_equality_hash_or_repr(self):
        ideal = M_LEFT
        assert ideal.stair == (4, 2)  # tabulated on one side only
        same = MonomialIdeal((Monomial(1, 2), Monomial(0, 4)))
        assert ideal == same and hash(ideal) == hash(same)
        assert repr(ideal) == (
            "MonomialIdeal(generators=(Monomial(xdeg=1, ydeg=2), Monomial(xdeg=0, ydeg=4)))"
        )

    @given(ideals)
    def test_cached_hash_is_the_dataclass_hash(self, ideal):
        # a frozen dataclass hashes the tuple of its compared fields
        assert hash(ideal) == hash((ideal.generators,))
        assert hash(ideal) == hash(MonomialIdeal(ideal.generators))


class TestStandardMonomials:
    def test_cache_is_bounded(self):
        standard_monomials.cache_clear()
        maxsize = standard_monomials.cache_info().maxsize
        assert maxsize is not None and maxsize >= 1024
        ideal = M_RIGHT
        for d in range(-maxsize - 10, 0):  # distinct keys, each with an empty piece
            standard_monomials(ideal, d)
        info = standard_monomials.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 10, maxsize)
        assert standard_monomials(ideal, 3) == (Monomial(3, 0), Monomial(0, 3))
        standard_monomials.cache_clear()
        assert standard_monomials.cache_info().currsize == 0

    def test_examples(self):
        xy = M((1, 0), (0, 1))
        assert standard_monomials(xy, 0) == (Monomial(0, 0),)
        assert standard_monomials(xy, 1) == ()
        assert standard_monomials(M_RIGHT, 3) == (
            Monomial(3, 0),
            Monomial(0, 3),
        )
        assert standard_monomials(M((3, 0), (0, 7)), 2) == (
            Monomial(2, 0),
            Monomial(1, 1),
            Monomial(0, 2),
        )

    @given(ideals, st.integers(0, 30))
    def test_matches_direct_enumeration(self, ideal, d):
        expected = tuple(
            Monomial(i, d - i)
            for i in range(d, -1, -1)
            if not ideal.contains(Monomial(i, d - i))
        )
        assert standard_monomials(ideal, d) == expected

    @given(st.data(), ideals, st.booleans(), st.booleans())
    def test_scan_window_matches_full_scan(self, data, ideal, pure_x, pure_y):
        # with and without x^a and y^b among the generators, in degrees up
        # to 3 (a_1 + b_r), where the window leaves out most exponents
        gens = list(ideal.generators)
        if pure_x:
            gens.append(Monomial(data.draw(st.integers(1, 9)), 0))
        if pure_y:
            gens.append(Monomial(0, data.draw(st.integers(1, 9))))
        ideal = normalize_ideal(gens)
        first, last = ideal.generators[0], ideal.generators[-1]
        d = data.draw(st.integers(0, 3 * (first.xdeg + last.ydeg)))
        expected = tuple(
            Monomial(i, d - i)
            for i in range(d, -1, -1)
            if not ideal.contains(Monomial(i, d - i))
        )
        assert standard_monomials(ideal, d) == expected

    def test_pure_powers_bound_the_scan(self):
        # (x^50, y): one standard monomial per degree below 50, found by a
        # walk over the corners that takes the same Python steps in every
        # degree, however many cells the degree has
        standard_monomials.cache_clear()
        ideal = M((50, 0), (0, 1))
        pieces = [standard_monomials(ideal, d) for d in range(200)]
        standard_monomials.cache_clear()
        assert pieces == [(Monomial(d, 0),) for d in range(50)] + [()] * 150
        steps = {python_steps(_standard_x, ideal, d)[1] for d in range(200)}
        assert len(steps) == 1

    @given(ideals)
    def test_eventually_constant(self, ideal):
        start = ideal.generators[0].xdeg + ideal.generators[-1].ydeg
        counts = {len(standard_monomials(ideal, d)) for d in range(start, start + 10)}
        assert len(counts) == 1


def tail_from_flat(ideal):
    assert [len(_standard_x(ideal, d)) for d in range(ideal.flat, ideal.flat + 21)] == [ideal.tail] * 21, ideal


def top_by_scan(ideal):
    # every degree from flat on has the same number of standard monomials
    # (tail_from_flat), so S's top degree lies below flat or is inf
    found = [
        d for d in range(ideal.flat + 1) if any(not scan_contains(ideal, Monomial(s, d - s)) for s in range(d + 1))
    ]
    assert ideal.top == (math.inf if found[-1] == ideal.flat else found[-1]), ideal


def stage_bound(ideal):
    # the brute force's c, against the three-term form it replaced
    assert ideal.flat - (ideal.num_generators > 1) == staircase_c(ideal), ideal


DEGREE_CHECKS = [tail_from_flat, top_by_scan, stage_bound]


class TestStaircaseDegrees:
    """flat, tail and top, which MonomialIdeal derives from the staircase
    lemma, against direct counts."""

    @pytest.mark.parametrize("check", DEGREE_CHECKS, ids=lambda f: f.__name__)
    @given(ideals)
    def test_on_hypothesis_staircases(self, check, ideal):
        check(ideal)

    @pytest.mark.parametrize("check", DEGREE_CHECKS, ids=lambda f: f.__name__)
    def test_on_exhaustive_corpus(self, check):
        for ideal in exhaustive_corpus(5):
            check(ideal)


class TestStaircaseOutline:
    def test_corners(self):
        assert staircase_outline(M_LEFT).corners == ((1, 2), (0, 4))
        assert staircase_outline(M_RIGHT).corners == ((2, 1), (1, 2))
        assert staircase_outline(M((1, 0))).corners == ((1, 0),)

    def test_outline_is_monotone_staircase(self):
        outline = staircase_outline(M_RIGHT).outline
        for (x0, y0), (x1, y1) in zip(outline, outline[1:]):
            assert x1 <= x0 and y1 >= y0


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^3*y", Monomial(3, 1)),
            ("x3y", Monomial(3, 1)),
            ("y^4", Monomial(0, 4)),
            ("1", Monomial(0, 0)),
            ("x*y^2", Monomial(1, 2)),
            ("xy2", Monomial(1, 2)),
            ("x", Monomial(1, 0)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_monomial(text) == expected

    @pytest.mark.parametrize("text", ["", "z", "x^", "1x", "x^*2"])
    def test_invalid(self, text):
        with pytest.raises(ParseError):
            parse_monomial(text)

    def test_parse_ideal(self):
        assert parse_ideal("x^2*y, x*y^2").generators == (
            Monomial(2, 1),
            Monomial(1, 2),
        )
        assert parse_ideal("xy2, y4").generators == (Monomial(1, 2), Monomial(0, 4))
        assert parse_ideal("x, y, xy").generators == (Monomial(1, 0), Monomial(0, 1))

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("xy, z4")
        assert "(at offset 4)" in str(exc.value)
