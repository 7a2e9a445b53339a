from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import stairstep.resolution
from conftest import (
    M,
    M_LEFT,
    M_RIGHT,
    acceptance_corpus,
    bend_rule,
    drop_an_f2_at_an_f3,
    exhaustive_corpus,
    shift_f3,
    staircases,
    swap_d_and_g,
)
from stairstep import (
    BettiTable,
    ExactRationals,
    IdealClass,
    PoincareSeries,
    PrimeField,
    StageTooSmall,
    betti_csv,
    betti_json,
    betti_table,
    build_resolution,
    check_resolution,
    classify,
    default_max_degree,
    graded_betti,
    minimal_resolution_bruteforce,
    parse_ideal,
    poincare_series,
    render_betti_table,
    series_expand,
    total_betti,
)
from stairstep.monomials import _standard_x


GOLDEN_LEFT = """\
       0 1 2 3 4 5 6
total: 1 2 3 5 8 13 21
0:     1 2 1 . . . .
1:     . . 1 2 1 . .
2:     . . 1 3 4 3 1
3:     . . . . 2 6 7
4:     . . . . 1 4 9
5:     . . . . . . 3
6:     . . . . . . 1"""

GOLDEN_RIGHT = """\
       0 1 2 3 4 5 6
total: 1 2 3 5 8 13 21
0:     1 2 1 . . . .
1:     . . 2 5 4 1 .
2:     . . . . 4 12 13
3:     . . . . . . 8"""

# (x^12, y) at stage 3: rows 0..10, so a two-digit row label
GOLDEN_X12_Y = """\
       0 1 2 3
total: 1 1 1 1
0:     1 1 . .
1:     . . . .
2:     . . . .
3:     . . . .
4:     . . . .
5:     . . . .
6:     . . . .
7:     . . . .
8:     . . . .
9:     . . . .
10:    . . 1 1"""


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

    def test_a_two_digit_row_label_keeps_the_column(self):
        assert render_betti_table(betti_table(parse_ideal("x^12,y"), 3)) == GOLDEN_X12_Y

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


staircase_ideals = staircases(5, 8)


class TestBettiTable:
    """The counted table against the materialized engine."""

    def test_matches_engine_on_acceptance_corpus(self):
        kinds = set()
        for ideal in acceptance_corpus():
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

        for builder in ("build_resolution", "_main_stages", "_product_stages"):
            monkeypatch.setattr(stairstep.resolution, builder, no_build)
        for ideal in (M((2, 3)), M((2, 0), (0, 3))):  # the regime split reads the patched sources
            with pytest.raises(AssertionError, match="was built"):
                build_resolution(ideal, 2)
        kinds = set()
        for (ideal, stages), table in built.items():
            counted = betti_table(ideal, stages)
            assert (counted.entries, counted.max_stage, counted.max_degree) == (
                table.entries, table.max_stage, table.max_degree), (str(ideal), stages)
            kinds.add(classify(ideal))
        assert kinds == {
            IdealClass.TYPE_I, IdealClass.TYPE_II, IdealClass.TYPE_III, IdealClass.TYPE_IV, IdealClass.TYPE_V}

    # both cases of the rule (x divides g, or g is a pure y-power), both
    # pure powers, and a = b = 1
    @pytest.mark.parametrize("text", ["x2y3", "y5", "x5", "xy"])
    def test_main_rule_table_resolves_type_ii(self, text):
        # type II is the main case at r = 1: the one rule table builds a
        # resolution and counts its table
        ideal = parse_ideal(text)
        assert classify(ideal) is IdealClass.TYPE_II
        res = build_resolution(ideal, 9)
        for fld in (ExactRationals(), PrimeField(2), PrimeField(3)):
            assert check_resolution(res, 8, default_max_degree(ideal, 8), fld).verdict, fld
        assert betti_table(ideal, 9).entries == graded_betti(res).entries

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
        assert betti_table(parse_ideal(DEEP_IDEALS[0]), 40).totals()[40] == 562162801058854612

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


def bar_rank(rows: list[dict[int, int]], p: int | None) -> int:
    """The rank of the rows, each a dict column -> int, over Q in exact
    Fractions (p None) or over F_p: each row is reduced against the pivot
    rows found so far, and a row left nonzero adds its first column as a
    pivot.  The oracle's own elimination, so it shares no code with the
    verifier's."""
    reduce = Fraction if p is None else lambda v: v % p
    pivots: dict[int, dict[int, Fraction | int]] = {}  # column -> its row, 1 there
    for row in rows:
        row = {c: reduce(v) for c, v in row.items() if reduce(v)}
        while row:
            c = min(row)
            if c not in pivots:
                inverse = 1 / row[c] if p is None else pow(row[c], -1, p)
                pivots[c] = {k: reduce(v * inverse) for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                row[k] = reduce(row.get(k, 0) - f * v)
            row = {k: v for k, v in row.items() if v}
    return len(pivots)


def bar_betti(ideal, max_stage: int, max_degree: int, p: int | None) -> dict[tuple[int, int, int], int]:
    """beta_{i,(P,Q)} = dim Tor_i^S(k, k)_{(P,Q)} for i <= max_stage and
    P + Q <= max_degree, from its definition: the homology of the
    normalized bar complex of S = k[x,y]/M (Eilenberg and Mac Lane).

    B_i in bidegree (P, Q) has the basis [m_1|...|m_i] of standard
    non-unit monomials summing to (P, Q), and d[m_1|...|m_i] = sum_{j<i}
    (-1)^j [...|m_j m_{j+1}|...], a product in M taken as 0; d_1 = 0.  So
    beta_i = dim B_i - rank d_i - rank d_{i+1} in each bidegree.  Reads M's
    generators alone, none of the package's resolutions, tables or
    elimination."""
    gens = [(g.xdeg, g.ydeg) for g in ideal.generators]

    def standard(a, b):
        return not any(a >= gx and b >= gy for gx, gy in gens)

    letters = [(a, b) for a in range(max_degree + 1) for b in range(max_degree + 1 - a) if a + b and standard(a, b)]
    # words[i][(P, Q)]: the basis of B_i in bidegree (P, Q), in a fixed order
    words: list[dict[tuple[int, int], list[tuple]]] = [{(0, 0): [()]}]
    for _ in range(max_stage + 1):
        level: dict[tuple[int, int], list[tuple]] = {}
        for (P, Q), ws in words[-1].items():
            for a, b in letters:
                if P + Q + a + b <= max_degree:
                    level.setdefault((P + a, Q + b), []).extend(w + ((a, b),) for w in ws)
        words.append(level)

    # rank d_i per (i, bidegree), each row the image of one word; d_1 = 0
    rank: dict[tuple[int, tuple[int, int]], int] = {}
    for i in range(2, max_stage + 2):
        for bidegree, ws in words[i].items():
            target = {w: k for k, w in enumerate(words[i - 1].get(bidegree, ()))}
            rows = []
            for w in ws:
                row: dict[int, int] = {}
                for j in range(1, i):
                    (a, b), (c, e) = w[j - 1], w[j]
                    if standard(a + c, b + e):
                        k = target[w[: j - 1] + ((a + c, b + e),) + w[j + 1 :]]
                        row[k] = row.get(k, 0) + (-1) ** j
                rows.append(row)
            rank[(i, bidegree)] = bar_rank(rows, p)
    table = {}
    for i in range(max_stage + 1):
        for bidegree, ws in words[i].items():
            if beta := len(ws) - rank.get((i, bidegree), 0) - rank.get((i + 1, bidegree), 0):
                table[(i, *bidegree)] = beta
    return table


def bar_faults(ideal, max_stage: int, max_degree: int, p: int | None) -> list[str]:
    """Where the bar complex's table of M in the window disagrees with the
    built resolution's (i, dx, dy) counts, or, by total degree, with
    betti_table's and the brute force's."""
    bar = bar_betti(ideal, max_stage, max_degree, p)
    res = build_resolution(ideal, max_stage)
    built = Counter(
        (i, dx, dy) for i, m in enumerate(res.modules) for _label, (dx, dy) in m.generators if dx + dy <= max_degree
    )
    by_degree = Counter()
    for (i, dx, dy), beta in bar.items():
        by_degree[(i, dx + dy)] += beta
    counted = {key: v for key, v in betti_table(ideal, max_stage).entries.items() if key[1] <= max_degree}
    brute = minimal_resolution_bruteforce(ideal, max_stage, max_degree).entries
    return [
        f"{ideal}: the bar complex's {name} table {dict(ours)} is not {dict(theirs)}"
        for name, ours, theirs in (
            ("bigraded", bar, built), ("betti_table", by_degree, counted), ("brute-force", by_degree, brute))
        if ours != theirs
    ]


# the bar oracle's window; CI runs a wider one, (5, 7), as its own step
BAR_WINDOW = tuple(map(int, os.environ.get("BAR_WINDOW", "4,6").split(",")))


class TestBarComplex:
    """A third oracle, from the definition of Tor^S(k, k): the normalized
    bar complex, with its own elimination, against the built, counted and
    brute-force tables on every ideal with exponents <= 3."""

    @pytest.mark.parametrize("p", [None, 2], ids=["Q", "F2"])
    def test_every_ideal_of_the_corpus(self, p):
        corpus = exhaustive_corpus(3)
        assert len(corpus) == 68 and {classify(ideal) for ideal in corpus} == set(IdealClass)
        assert [fault for ideal in corpus for fault in bar_faults(ideal, *BAR_WINDOW, p)] == []

    def test_a_bent_rule_breaks_it_on_every_main_case_ideal(self, monkeypatch):
        bend_rule(monkeypatch, shift_f3)
        main = [ideal for ideal in exhaustive_corpus(3) if classify(ideal).is_main]
        assert len(main) == 44
        assert all(bar_faults(ideal, *BAR_WINDOW, 2) for ideal in main)


def golod_rows(ideal, stages: int) -> list[Counter]:
    """B_0..B_stages, each a Counter degree -> coefficient: the rows of the
    graded Poincare series of k over S at x = y = t, for the main case and
    type II, from Golod's recurrence B_0 = 1, B_1 = 2t, B_2 = G + t^2 and
    B_n = G B_{n-2} + D B_{n-3}, where G = sum_i t^{a_i+b_i} sums M's
    generators and D = sum_{i<r} t^{a_i+b_{i+1}} the lcms of neighbours
    (0 for type II).  Reads M's generators alone, never the rule table."""
    a, b = [g.xdeg for g in ideal.generators], [g.ydeg for g in ideal.generators]
    G = Counter(x + y for x, y in zip(a, b))
    D = Counter(a[i] + b[i + 1] for i in range(len(a) - 1))

    def times(f, g):
        out = Counter()
        for d, c in f.items():
            for e, v in g.items():
                out[d + e] += c * v
        return out

    rows = [Counter({0: 1}), Counter({1: 2}), G + Counter({2: 1})]
    for n in range(3, stages + 1):
        rows.append(times(G, rows[n - 2]) + times(D, rows[n - 3]))
    return rows[: stages + 1]


def golod_faults(ideal, stages: int) -> list[int]:
    """The stages n <= stages whose row of the counted table, sum_d
    beta_{n,d} t^d, is not Golod's B_n."""
    rows = [Counter() for _ in range(stages + 1)]
    for (n, d), beta in betti_table(ideal, stages).entries.items():
        rows[n][d] += beta
    return [n for n, (row, expected) in enumerate(zip(rows, golod_rows(ideal, stages))) if row != expected]


class TestGolodRecurrence:
    """The counted table's rows at x = y = t against Golod's recurrence, on
    every main-case and type II ideal with exponents <= 3, through stage
    40, and not once the main-case rule is bent."""

    def test_every_main_case_and_type_ii_ideal(self):
        ideals = [ideal for ideal in exhaustive_corpus(3) if classify(ideal).is_main or classify(ideal) is IdealClass.TYPE_II]
        assert len(ideals) == 57
        assert {str(ideal): golod_faults(ideal, 40) for ideal in ideals} == {str(ideal): [] for ideal in ideals}

    @pytest.mark.parametrize("bend", [swap_d_and_g, drop_an_f2_at_an_f3, shift_f3], ids=lambda f: f.__name__)
    def test_a_bent_rule_breaks_it_on_every_main_case_ideal(self, monkeypatch, bend):
        bend_rule(monkeypatch, bend)
        main = [ideal for ideal in exhaustive_corpus(3) if classify(ideal).is_main]
        assert len(main) == 44
        assert all(golod_faults(ideal, 40) for ideal in main)


def render_per_cell(table: BettiTable) -> str:
    """render_betti_table written cell by cell: each cell of the grid looked
    up in the entries, each total summed over its stage's entries on the
    grid (d >= i), one row per d - i the grid shows, each label padded
    after its colon to the longest."""
    cols = range(table.max_stage + 1)
    rows = 1 + max((d - i for i, d in table.entries if i in cols and d >= i), default=0)
    labels = ["", "total:"] + [f"{j}:" for j in range(rows)]
    width = max(map(len, labels))
    grid = [[str(i) for i in cols], [str(sum(v for (j, d), v in table.entries.items() if j == i <= d)) for i in cols]]
    for j in range(rows):
        grid.append([str(table.entries[(i, i + j)]) if (i, i + j) in table.entries else "." for i in cols])
    return "\n".join(f"{label:<{width}} " + " ".join(cells) for label, cells in zip(labels, grid))


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

    def test_an_entry_off_the_grid_counts_in_no_total_or_row(self):
        # stage -1 is no column of the grid, so it adds to no total (not to
        # out[-1], the last) and opens no row
        table = BettiTable({(-1, 0): 5, (0, 0): 1}, 2)
        assert table.totals() == [1, 0, 0]
        assert render_betti_table(table) == "       0 1 2\ntotal: 1 0 0\n0:     1 . ."
        # d < i lies below the grid: no cell shows it, so no total counts it
        table = BettiTable({(2, 1): 5, (0, 0): 1, (1, 1): 2}, 2)
        assert table.totals() == [1, 2, 0]
        assert render_betti_table(table) == "       0 1 2\ntotal: 1 2 0\n0:     1 2 ."

    @pytest.mark.parametrize("last_row, total", [(9, "total: 1 1"), (99_999, "total: 1 1"), (100_000, "total:  1 1")])
    def test_one_label_width_on_every_line(self, last_row, total):
        # "total:" sets the width up to row 99999; the label "100000:" widens it
        lines = render_betti_table(BettiTable({(0, 0): 1, (1, 1 + last_row): 1}, 1)).split("\n")
        assert lines[1] == total
        assert {len(line) for line in lines} == {len(total)}
        assert lines[-1] == f"{last_row}:".ljust(len(total) - 3) + ". 1"


class TestSerialization:
    def test_csv(self):
        table = graded_betti(build_resolution(M((1, 0), (0, 1)), 2))
        assert betti_csv(table) == "i,d,beta\n0,0,1"

    def test_json(self):
        table = graded_betti(build_resolution(M((1, 0)), 2))
        assert betti_json(table) == {
            "entries": [{"i": 0, "d": 0, "beta": 1}, {"i": 1, "d": 1, "beta": 1}]
        }
