from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import stairstep.resolution
from conftest import M, M_LEFT, M_RIGHT, exhaustive_corpus, random_corpus, staircases
from stairstep import (
    BettiTable,
    IdealClass,
    PoincareSeries,
    StageTooSmall,
    betti_csv,
    betti_json,
    betti_table,
    build_resolution,
    check_complex,
    check_exactness,
    check_minimality,
    classify,
    graded_betti,
    minimal_resolution_bruteforce,
    parse_ideal,
    poincare_series,
    render_betti_table,
    series_expand,
    total_betti,
)
from stairstep.betti import render_shape
from stairstep.monomials import _standard_x


GOLDEN_LEFT = """\
      0 1 2 3 4 5 6
total: 1 2 3 5 8 13 21
0: 1 2 1 . . . .
1: . . 1 2 1 . .
2: . . 1 3 4 3 1
3: . . . . 2 6 7
4: . . . . 1 4 9
5: . . . . . . 3
6: . . . . . . 1"""

GOLDEN_RIGHT = """\
      0 1 2 3 4 5 6
total: 1 2 3 5 8 13 21
0: 1 2 1 . . . .
1: . . 2 5 4 1 .
2: . . . . 4 12 13
3: . . . . . . 8"""


class TestTotalBetti:
    def test_main_fibonacci(self):
        assert total_betti(IdealClass.MAIN_CASE_1, 2, 6) == [1, 2, 3, 5, 8, 13, 21]

    def test_main_r3(self):
        assert total_betti(IdealClass.MAIN_CASE_2, 3, 5) == [1, 2, 4, 8, 16, 32]

    def test_degenerate_sequences(self):
        assert total_betti(IdealClass.TYPE_I, 1, 4) == [1, 1, 0, 0, 0]
        assert total_betti(IdealClass.TYPE_II, 1, 4) == [1, 2, 2, 2, 2]
        assert total_betti(IdealClass.TYPE_III, 2, 3) == [1, 0, 0, 0]
        assert total_betti(IdealClass.TYPE_IV, 2, 4) == [1, 1, 1, 1, 1]
        assert total_betti(IdealClass.TYPE_V, 2, 4) == [1, 2, 3, 4, 5]

    def test_argument_errors(self):
        with pytest.raises(ValueError, match=r"^need n >= 0$"):
            total_betti(IdealClass.TYPE_V, 2, -1)
        with pytest.raises(ValueError, match=r"^main case needs r >= 2$"):
            total_betti(IdealClass.MAIN_CASE_1, 1, 4)


class TestPoincareSeries:
    def test_main_r2_display(self):
        assert str(poincare_series(IdealClass.MAIN_CASE_1, 2)) == "(1+z)/(1-z-z^2)"

    def test_degenerate_displays(self):
        assert str(poincare_series(IdealClass.TYPE_I)) == "1+z"
        assert str(poincare_series(IdealClass.TYPE_II)) == "(1+z)/(1-z)"
        assert str(poincare_series(IdealClass.TYPE_III)) == "1"
        assert str(poincare_series(IdealClass.TYPE_IV)) == "1/(1-z)"
        assert str(poincare_series(IdealClass.TYPE_V)) == "1/(1-2z+z^2)"

    def test_zero_coefficients_are_skipped(self):
        assert str(PoincareSeries((1, 0, 1), (1, 0, -1))) == "(1+z^2)/(1-z^2)"

    def test_expand_examples(self):
        assert series_expand(poincare_series(IdealClass.MAIN_CASE_1, 2), 6) == [
            1, 2, 3, 5, 8, 13, 21,
        ]
        assert series_expand(PoincareSeries((1,), (1, -1)), 4) == [1, 1, 1, 1, 1]
        assert series_expand(poincare_series(IdealClass.TYPE_V), 4) == [1, 2, 3, 4, 5]

    def test_main_case_needs_two_generators(self):
        with pytest.raises(ValueError, match=r"^main case needs r >= 2$"):
            poincare_series(IdealClass.MAIN_CASE_2, 1)

    def test_expand_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            series_expand(PoincareSeries((1,), (2, 1)), 3)

    @pytest.mark.parametrize("r", range(2, 9))
    def test_alternate_form_agrees(self, r):
        main = PoincareSeries((1, 1), (1, -1, 1 - r))
        alternate = PoincareSeries((1, 2, 1), (1, 0, -r, 1 - r))
        assert series_expand(main, 30) == series_expand(alternate, 30)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), max_size=3),
        st.integers(0, 40),
    )
    def test_expand_matches_the_whole_list_recurrence(self, num, den_tail, n):
        # series_expand reads series_coefficients, which holds only the last
        # len(den) - 1 coefficients; the recurrence it replaced held them all
        den = (1, *den_tail)
        out: list[int] = []
        for k in range(n + 1):
            c = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                c -= den[j] * out[k - j]
            out.append(c)
        assert series_expand(PoincareSeries(tuple(num), den), n) == out

    def test_expand_matches_total_betti_all_classes(self):
        for cls in IdealClass:
            rs = range(2, 9) if cls.is_main else [1 if cls is IdealClass.TYPE_I else 2]
            for r in rs:
                assert series_expand(poincare_series(cls, r), 30) == total_betti(cls, r, 30)


class TestGradedBetti:
    def test_golden_tables(self):
        left = graded_betti(build_resolution(M_LEFT, 6))
        right = graded_betti(build_resolution(M_RIGHT, 6))
        assert render_betti_table(left) == GOLDEN_LEFT
        assert render_betti_table(right) == GOLDEN_RIGHT

    def test_spot_entries(self):
        left = graded_betti(build_resolution(M_LEFT, 6))
        assert left.entries[(2, 2)] == 1
        assert left.entries[(2, 3)] == 1
        assert left.entries[(2, 4)] == 1
        assert left.entries[(4, 8)] == 1
        right = graded_betti(build_resolution(M_RIGHT, 6))
        assert right.entries[(3, 4)] == 5
        assert right.entries[(6, 9)] == 8

    def test_type_iii_single_entry(self):
        table = graded_betti(build_resolution(M((1, 0), (0, 1)), 4))
        assert table.entries == {(0, 0): 1}

    def test_row_sums_equal_ranks(self):
        for ideal in exhaustive_corpus(3):
            res = build_resolution(ideal, 7)
            table = graded_betti(res)
            assert table.totals() == res.total_betti_numbers()

    def test_totals_depend_only_on_r(self):
        by_r: dict[int, list[int]] = {}
        for ideal in exhaustive_corpus(4):
            if not classify(ideal).is_main:
                continue
            totals = graded_betti(build_resolution(ideal, 6)).totals()
            expected = by_r.setdefault(ideal.num_generators, totals)
            assert totals == expected

    def test_beta0_normalization(self):
        for ideal in exhaustive_corpus(2):
            table = graded_betti(build_resolution(ideal, 5))
            assert table.entries[(0, 0)] == 1
            assert all(d == 0 for (i, d) in table.entries if i == 0 and d > 0)


DEEP_IDEALS = ("x6,x5y,x4y2,x3y3,x2y4,xy5", "x8y,x7y3,x6y5,x5y6,xy8,y9")


def swap_d_and_g(offsets, templates, children):
    """Each F1 at an F3 based at G's offset, each F2 at an F3 at D's."""
    f1_at, f2_at = children["F1"]["F3"], children["F2"]["F3"]
    f1 = tuple((g, rows) for (_d, rows), (g, _rows) in zip(f1_at, f2_at))
    f2 = tuple((d, rows) for (d, _rows), (_g, rows) in zip(f1_at, f2_at)) + f2_at[len(f1_at) :]
    return offsets, templates, {**children, "F1": {**children["F1"], "F3": f1}, "F2": {**children["F2"], "F3": f2}}


def drop_an_f2_at_an_f3(offsets, templates, children):
    at_f3 = children["F2"]["F3"]  # the F2s based at an F3, one per c_j pair
    return offsets, templates, {**children, "F2": {**children["F2"], "F3": at_f3[:1] + at_f3[2:]}}


def shift_f3(offsets, templates, children):
    return {**offsets, "F3": tuple((dx + 1, dy) for dx, dy in offsets["F3"])}, templates, children


def bend_rule(monkeypatch, bend) -> None:
    """Make _main_rule return its tables passed through bend."""
    real = stairstep.resolution._main_rule
    monkeypatch.setattr(stairstep.resolution, "_main_rule", lambda gens: bend(*real(gens)))


staircase_ideals = staircases(5, 8)


class TestBettiTable:
    """The counted table against the materialized engine."""

    def test_matches_engine_on_acceptance_corpus(self):
        corpus = exhaustive_corpus(4) + random_corpus(50, seed=0)
        kinds = set()
        for ideal in corpus:
            counted = betti_table(ideal, 9)
            built = graded_betti(build_resolution(ideal, 9))
            assert counted.entries == built.entries, str(ideal)
            assert (counted.max_stage, counted.max_degree) == (9, None)
            kinds.add(classify(ideal))
        assert kinds == set(IdealClass)

    @pytest.mark.parametrize("text", DEEP_IDEALS)
    def test_matches_engine_on_deep_ideals(self, text):
        ideal = parse_ideal(text)
        assert betti_table(ideal, 11).entries == graded_betti(build_resolution(ideal, 11)).entries

    @given(staircase_ideals, st.integers(0, 7))
    def test_matches_engine_on_random_staircases(self, ideal, stages):
        assert betti_table(ideal, stages).entries == graded_betti(build_resolution(ideal, stages)).entries

    @pytest.mark.parametrize(
        "text",
        ["x2y,xy2", "xy2,y4", "x4y,x2y3,y5", "x3,x2y2,xy3,y5", "x5,x4y,x2y2,xy4,y6", *DEEP_IDEALS,
         "x7,x6y,x5y2,x4y3,x3y4,x2y5,xy6"],
    )
    def test_totals_follow_the_recursion_to_stage_40(self, text):
        ideal = parse_ideal(text)
        cls = classify(ideal)
        assert cls.is_main
        expected = total_betti(cls, ideal.num_generators, 40)
        assert betti_table(ideal, 40).totals() == expected

    def test_counted_product_tables_match_built(self, monkeypatch):
        # every ideal of types I, II, III, IV and V with exponents up to 8,
        # counted with no resolution built, against the built one
        cases = [M((1, 0)), M((0, 1))] + [M((a, 0), (0, b)) for a in range(1, 9) for b in range(1, 9)]
        cases += [M((a, b)) for a in range(9) for b in range(9) if a + b >= 2]  # type II
        built = {
            (ideal, stages): graded_betti(build_resolution(ideal, stages))
            for ideal in cases
            for stages in (0, 1, 2, 5, 12, 30)
        }

        def no_build(ideal, *args):
            raise AssertionError(f"{ideal} was built")

        for builder in ("build_resolution", "_main_stages", "_type_ii_stages", "_product_stages"):
            monkeypatch.setattr(stairstep.resolution, builder, no_build)
        kinds = set()
        for (ideal, stages), table in built.items():
            counted = betti_table(ideal, stages)
            assert (counted.entries, counted.max_stage, counted.max_degree) == (
                table.entries, table.max_stage, table.max_degree), (str(ideal), stages)
            kinds.add(classify(ideal))
        assert kinds == {
            IdealClass.TYPE_I, IdealClass.TYPE_II, IdealClass.TYPE_III, IdealClass.TYPE_IV, IdealClass.TYPE_V}

    @pytest.mark.parametrize("text", ["x2y3", "y5"])
    def test_main_rule_table_resolves_type_ii(self, monkeypatch, text):
        # betti_table counts type II over the main-case rule table at r = 1,
        # which is right because the resolution that table builds is one
        ideal = parse_ideal(text)
        assert classify(ideal) is IdealClass.TYPE_II
        expected = graded_betti(build_resolution(ideal, 9)).entries
        monkeypatch.setattr(stairstep.resolution, "_type_ii_stages", stairstep.resolution._main_stages)
        res = build_resolution(ideal, 9)
        assert check_complex(res).verdict
        assert check_minimality(res).verdict
        assert check_exactness(res, 8, 40).verdict
        assert graded_betti(res).entries == expected

    @pytest.mark.parametrize("text", ["x2y,xy2", "x3,x2y2,xy3,y5"])  # main cases 1 and 2
    def test_one_rule_drives_count_and_build(self, monkeypatch, text):
        # drop the F2 based at an F3's c_2 columns: the counted and the built
        # table must change together, as both read the same rule
        ideal = parse_ideal(text)
        assert classify(ideal).is_main
        before = betti_table(ideal, 8).entries
        bend_rule(monkeypatch, drop_an_f2_at_an_f3)
        counted = betti_table(ideal, 8).entries
        assert counted == graded_betti(build_resolution(ideal, 8)).entries
        assert counted != before

    def test_deep_total(self):
        assert betti_table(parse_ideal(DEEP_IDEALS[0]), 40).total(40) == 562162801058854612

    @pytest.mark.parametrize("text", ["x2y,xy2", "xy2,y4", "x", "x2y3", "x,y", "x3,y", "x2,y3"])
    def test_negative_stages_rejected(self, text):
        # both entry points agree in every regime, main case and degenerate
        with pytest.raises(StageTooSmall):
            betti_table(parse_ideal(text), -1)
        with pytest.raises(StageTooSmall):
            build_resolution(parse_ideal(text), -1)


def euler_faults(table: BettiTable, ideal, top: int) -> list[int]:
    """The degrees d <= top where sum_i (-1)^i sum_t beta_{i,t} H_S(d - t)
    is not [d = 0], H_S the Hilbert function of S = k[x,y]/M.  An exact
    resolution of k gives [d = 0] in each degree d, and a generator of
    stage i has degree >= i, so a table through stage n holds every term
    of degree n and below."""
    hilbert = [len(_standard_x(ideal, d)) for d in range(top + 1)]
    sums = [0] * (top + 1)
    for (i, t), beta in table.entries.items():
        for d in range(t, top + 1):
            sums[d] += (-1) ** i * beta * hilbert[d - t]
    return [d for d, total in enumerate(sums) if total != (d == 0)]


class TestEulerCharacteristic:
    """sum_i (-1)^i sum_t beta_{i,t} H_S(d - t) = [d = 0] for the counted,
    built and brute-force tables, and not once the main-case rule is bent."""

    def test_every_table_of_the_corpus(self):
        for ideal in exhaustive_corpus(3):
            assert euler_faults(betti_table(ideal, 8), ideal, 8) == []
            assert euler_faults(graded_betti(build_resolution(ideal, 8)), ideal, 8) == []
            assert euler_faults(minimal_resolution_bruteforce(ideal, 6, 6), ideal, 6) == []

    def test_deep_counted_table(self):
        ideal = parse_ideal(DEEP_IDEALS[0])
        assert euler_faults(betti_table(ideal, 40), ideal, 40) == []

    @pytest.mark.parametrize("bend", [swap_d_and_g, drop_an_f2_at_an_f3, shift_f3], ids=lambda f: f.__name__)
    def test_a_bent_rule_breaks_it_on_every_main_case_ideal(self, monkeypatch, bend):
        bend_rule(monkeypatch, bend)
        main = [ideal for ideal in exhaustive_corpus(3) if classify(ideal).is_main]
        assert len(main) == 44
        for ideal in main:
            assert euler_faults(betti_table(ideal, 8), ideal, 8)
            assert euler_faults(graded_betti(build_resolution(ideal, 8)), ideal, 8)


def render_per_cell(table: BettiTable) -> str:
    """render_betti_table as it was: each cell of the grid looked up in the
    entries."""
    rows, n_cols = render_shape(table)
    cols = range(n_cols)
    lines = ["      " + " ".join(str(i) for i in cols)]
    lines.append("total: " + " ".join(str(v) for v in table.totals()))
    for j in range(rows):
        cells = [str(table.entries[(i, i + j)]) if (i, i + j) in table.entries else "." for i in cols]
        lines.append(f"{j}: " + " ".join(cells))
    return "\n".join(lines)


class TestRender:
    # entries past the last stage, below the grid (d < i) or at stage -1
    # are not shown, by either renderer
    @given(
        st.dictionaries(st.tuples(st.integers(-1, 12), st.integers(-3, 30)), st.integers(0, 10**12), max_size=40),
        st.integers(0, 10),
    )
    def test_matches_the_per_cell_renderer(self, entries, max_stage):
        table = BettiTable(entries, max_stage)
        assert render_betti_table(table) == render_per_cell(table)

    @pytest.mark.parametrize(
        "text, stages",
        [("x6,x5y,x4y2,x3y3,x2y4,xy5", 11), ("x8y,x7y3,x6y5,x5y6,xy8,y9", 11), ("x2y,xy2", 6), ("x^200,y", 40),
         ("x^12,y", 3), ("x2y3", 5), ("x,y", 4)],
    )
    def test_counted_tables_match_the_per_cell_renderer(self, text, stages):
        table = betti_table(parse_ideal(text), stages)
        assert render_betti_table(table) == render_per_cell(table)


class TestSerialization:
    def test_csv(self):
        table = graded_betti(build_resolution(M((1, 0), (0, 1)), 2))
        assert betti_csv(table) == "i,d,beta\n0,0,1"

    def test_json(self):
        table = graded_betti(build_resolution(M((1, 0)), 2))
        assert betti_json(table) == {
            "entries": [{"i": 0, "d": 0, "beta": 1}, {"i": 1, "d": 1, "beta": 1}]
        }
