from __future__ import annotations

import pytest

from conftest import exhaustive_corpus
from stairstep import IdealClass, Monomial, classify, normalize_ideal


def M(*pairs):
    return normalize_ideal([Monomial(a, b) for a, b in pairs])


@pytest.mark.parametrize(
    "pairs,expected",
    [
        (((2, 1), (1, 2)), IdealClass.MAIN_CASE_1),
        (((1, 2), (0, 4)), IdealClass.MAIN_CASE_2),
        (((3, 2), (2, 3), (1, 5)), IdealClass.MAIN_CASE_1),
        (((3, 1), (2, 3), (0, 5)), IdealClass.MAIN_CASE_2),
        (((1, 0),), IdealClass.TYPE_I),
        (((0, 1),), IdealClass.TYPE_I),
        (((2, 3),), IdealClass.TYPE_II),
        (((3, 0),), IdealClass.TYPE_II),
        (((0, 2),), IdealClass.TYPE_II),
        (((1, 1),), IdealClass.TYPE_II),
        (((1, 0), (0, 1)), IdealClass.TYPE_III),
        (((2, 0), (0, 1)), IdealClass.TYPE_IV),
        (((1, 0), (0, 3)), IdealClass.TYPE_IV),
        (((3, 0), (0, 7)), IdealClass.TYPE_V),
        (((2, 0), (0, 2)), IdealClass.TYPE_V),
    ],
)
def test_examples(pairs, expected):
    assert classify(M(*pairs)) is expected


def test_slugs():
    assert [c.slug for c in IdealClass] == [
        "main-case-1",
        "main-case-2",
        "type-1",
        "type-2",
        "type-3",
        "type-4",
        "type-5",
    ]
    for c in IdealClass:
        assert IdealClass(c.slug) is c
    with pytest.raises(ValueError):
        IdealClass("type-9")


def test_total_and_single_valued_exhaustively():
    for ideal in exhaustive_corpus(5):
        cls = classify(ideal)
        assert isinstance(cls, IdealClass)
        r = ideal.num_generators
        pure_powers = (
            r == 2
            and ideal.generators[0].ydeg == 0
            and ideal.generators[1].xdeg == 0
        )
        assert cls.is_main == (r > 2 or (r == 2 and not pure_powers))
        if cls is IdealClass.MAIN_CASE_1:
            assert ideal.generators[-1].xdeg >= 1
        if cls is IdealClass.MAIN_CASE_2:
            assert ideal.generators[-1].xdeg == 0
