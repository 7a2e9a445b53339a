from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress
from operator import add

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    M,
    M_LEFT,
    M_RIGHT,
    MUTATIONS,
    exhaustive_corpus,
    mutate,
    mutate_entries,
    python_steps,
    random_corpus,
    staircases,
    with_map,
)
from stairstep import (
    BettiTable,
    Differential,
    ExactRationals,
    FieldConfig,
    GradedFreeModule,
    IdealClass,
    Monomial,
    MonomialIdeal,
    PrimeField,
    StageTooSmall,
    TruncationTooSmall,
    betti_json,
    betti_table,
    build_resolution,
    check_complex,
    check_exactness,
    check_homogeneity,
    check_minimality,
    check_resolution,
    classify,
    compare_betti,
    default_max_degree,
    graded_betti,
    minimal_resolution_bruteforce,
    parse_ideal,
    resolution_from_json,
    resolution_to_json,
    standard_monomials,
)
from stairstep.cli import main as cli_main
import stairstep.oracle
import stairstep.resolution
from stairstep.monomials import _standard_x
from stairstep.oracle import (
    CheckRecord,
    _composite,
    _eliminate,
    _entry_fault,
    _hilbert,
    _is_prime,
    _modulus,
    _split_blocks,
    _spread,
    _std_x,
    _working_copy,
    sparse_nullspace,
    sparse_rank,
)


class TestFieldConfig:
    def test_prime_accepted(self):
        assert PrimeField(101).p == 101

    @pytest.mark.parametrize("p", [0, 1, 4, 100])
    def test_composite_rejected(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

        for n in range(5000):
            assert _is_prime(n) == trial(n), n

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            3215031751,  # to bases 2, 3, 5, 7
            3825123056546413051,  # to bases 2 .. 23
            318665857834031151167461,  # to bases 2 .. 37: only base 41 exposes it
            1000000016000000063,  # 1000000007 * 1000000009
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)

    def test_large_primes_accepted(self):
        for p in (1000000007, 1000000000000000003, 2**61 - 1, 2**31 - 1):
            assert PrimeField(p).p == p

    def test_beyond_deterministic_bound_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2**89 - 1)  # prime, but above 3.3e24


def reference_elimination(columns, nrows, p):
    """(rank, null) by Gaussian elimination on Fraction entries, reduced mod
    p when p > 0.  Each null vector has coefficient 1 at its own column and
    is otherwise supported on earlier pivot columns, as the oracle's are."""
    norm = (lambda v: v % p) if p else (lambda v: v)
    inv = (lambda v: Fraction(pow(int(v), p - 2, p))) if p else (lambda v: 1 / v)
    pivots = {}  # row -> (reduced column, combo), pivot entry 1
    null = []
    for j, col in enumerate(columns):
        work = [norm(Fraction(col.get(r, 0))) for r in range(nrows)]
        combo = {j: Fraction(1)}
        for r in range(nrows):
            if not work[r]:
                continue
            if r not in pivots:
                scale = inv(work[r])
                work = [norm(v * scale) for v in work]
                pivots[r] = (work, {c: norm(v * scale) for c, v in combo.items()})
                break
            factor = work[r]
            pcol, pcombo = pivots[r]
            work = [norm(v - factor * w) for v, w in zip(work, pcol)]
            for c, v in pcombo.items():
                combo[c] = norm(combo.get(c, 0) - factor * v)
        else:
            null.append({c: v for c, v in combo.items() if v})
    return len(pivots), null


FIELDS = [ExactRationals(), PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(32003)]

matrices = st.integers(1, 6).flatmap(
    lambda nrows: st.tuples(
        st.just(nrows),
        st.lists(st.dictionaries(st.integers(0, nrows - 1), st.integers(-4, 4), max_size=nrows), max_size=7),
    )
)


class TestElimination:
    """The fraction-free elimination against a Fraction reference."""

    @given(matrices, st.sampled_from(FIELDS))
    def test_matches_fraction_reference(self, matrix, fld):
        nrows, columns = matrix
        p = getattr(fld, "p", 0)
        snapshot = [dict(col) for col in columns]
        rank, ref_null = reference_elimination(columns, nrows, p)
        assert sparse_rank(columns, fld) == rank
        null = sparse_nullspace(columns, fld)
        assert columns == snapshot
        assert len(null) == len(columns) - rank
        for vec, ref in zip(null, ref_null):
            # the same line as the reference vector, with integer coefficients
            assert all(isinstance(v, int) and v for v in vec.values())
            assert not p or all(-p < 2 * v <= p for v in vec.values())  # balanced residues
            j = max(ref)
            assert vec.keys() == ref.keys()
            for c, v in ref.items():
                gap = vec[c] - vec[j] * v
                assert (gap % p if p else gap) == 0
            for r in range(nrows):
                total = sum(c * columns[k].get(r, 0) for k, c in vec.items())
                assert (total % p if p else total) == 0
        # independent: the null vectors have full rank as columns
        assert sparse_rank(null, fld) == len(null)

    @pytest.mark.parametrize("fld, rank", [(ExactRationals(), 2), (PrimeField(2), 1), (PrimeField(3), 2)])
    def test_rank_depends_on_characteristic(self, fld, rank):
        columns = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert sparse_rank(columns, fld) == rank
        assert len(sparse_nullspace(columns, fld)) == 2 - rank

    @pytest.mark.parametrize("fld, rank", [(ExactRationals(), 3), (PrimeField(3), 2), (PrimeField(2), 3)])
    def test_determinant_three(self, fld, rank):
        # [[2, 1, 0], [1, 2, 0], [0, 0, 1]] has determinant 3
        columns = [{0: 2, 1: 1}, {0: 1, 1: 2}, {2: 1}]
        assert sparse_rank(columns, fld) == rank
        null = sparse_nullspace(columns, fld)
        assert len(null) == 3 - rank
        if null:
            assert null == [{0: 1, 1: 1}]  # 2 + 1 = 1 + 2 = 3 = 0 in F_3

    def test_common_factors_divided_out(self):
        # [2 4 6]: each step has pivot entry 2, so the scaled columns carry a
        # factor 2 until the gcd division removes it
        null = sparse_nullspace([{0: 2}, {0: 4}, {0: 6}], ExactRationals())
        assert null == [{1: 1, 0: -2}, {2: 1, 0: -3}]


class TestEliminationStep:
    """One deterministic case per path of _eliminate; each comment names the
    slip it catches."""

    @pytest.mark.parametrize("p", [0, 5])
    def test_unit_lead_installs_the_column_itself(self, p):
        # catches a pivot stored as a copy, or without its lead
        col, pivots = {2: 1, 4: 3}, {}
        assert _eliminate(col, pivots, p)
        assert pivots[2] is col
        assert col == {2: 1, 4: 3}

    @pytest.mark.parametrize("p", [0, 5])
    def test_minus_one_lead_flips_column_and_combo(self, p):
        # catches a flip of the column alone, and an inverse taken for -1
        col, combo, pivots, pivcombos = {1: -1, 3: 2}, {0: 1, 2: -3}, {}, {}
        assert _eliminate(col, pivots, p, combo, pivcombos)
        assert (pivots, pivcombos) == ({1: {1: 1, 3: -2}}, {1: {0: -1, 2: 3}})

    def test_lead_two_over_f5_is_scaled_by_three(self):
        # catches a non-monic pivot over F_p
        col, combo, pivots, pivcombos = {0: 2, 2: 1, 3: 4}, {0: 1}, {}, {}
        assert _eliminate(col, pivots, 5, combo, pivcombos)
        assert (pivots, pivcombos) == ({0: {0: 1, 2: 3, 3: 2}}, {0: {0: 3}})

    @pytest.mark.parametrize("lead", [6, -6])
    def test_q_lead_with_content_becomes_primitive_and_positive(self, lead):
        # catches a skipped content division and a kept negative lead
        col, pivots = {0: lead, 1: -lead // 3 * 2}, {}
        assert _eliminate(col, pivots, 0)
        assert pivots == {0: {0: 3, 1: -2}}

    def test_reduction_through_non_monic_q_pivot_divides_by_gcd(self):
        # pivot lead a = 2, column entry b = 4: 2*col - 4*pivot vanishes and
        # 2*combo - 4*pivcombo = (-4, 2) carries the factor 2; catches a
        # step that does not divide it out
        pivots, pivcombos = {0: {0: 2, 1: 1}}, {0: {0: 1}}
        col, combo = {0: 4, 1: 2}, {1: 1}
        assert not _eliminate(col, pivots, 0, combo, pivcombos)
        assert combo == {1: 1, 0: -2}

    @pytest.mark.parametrize("p, col", [(0, {0: 2, 2: 6}), (5, {0: 2, 2: 1})])
    def test_vanishing_column_returns_false(self, p, col):
        # catches an empty column installed, or a True return; over F_5,
        # 1 - 2*3 = -5 must reduce to 0
        pivots = {0: {0: 1, 2: 3}}
        assert not _eliminate(col, pivots, p)
        assert col == {}
        assert pivots == {0: {0: 1, 2: 3}}


class TestWorkingCopy:
    @pytest.mark.parametrize("p", [0, 2, 5])
    def test_working_column_is_copied(self, p):
        col = {0: 1, 3: -1}
        work = _working_copy(col, p)
        assert work == col
        assert work is not col

    def test_zero_dropped_over_q(self):
        assert _working_copy({0: 0, 1: 2, 2: -7}, 0) == {1: 2, 2: -7}

    @pytest.mark.parametrize("col, work", [({0: 3, 1: -4, 2: -1}, {1: 2, 2: -1}), ({0: -3, 1: 1}, {1: 1})])
    def test_out_of_range_entries_reduced_over_f3(self, col, work):
        # -4 is -1 mod 3, kept as the residue 2; 3 and -3 are 0 mod 3
        assert _working_copy(col, 3) == work

    def test_two_dropped_over_f2(self):
        assert _working_copy({0: 2, 1: 1}, 2) == {1: 1}


BRUTEFORCE_SHA256 = {
    # json.dumps(betti_json(minimal_resolution_bruteforce(M, 6, 15, fld)), sort_keys=True),
    # the same over Q and over F_32003
    "xy2,y4": "6f83a3e59a208b24859b07d27a7c94a5b1b86becc636010f7f77670f39bfb2f5",
    "x2y,xy2": "bb94d328868de0b89159a8a3fb7ab0e8afbd37b1abdd0dadb20642cab01f93ee",
    "x2,xy": "665e62c1d28142f5c98c575fb2f70c7b9a815d9cfe75e8bf0bbb50df158e523b",
    "x3,x2y2,xy3,y5": "239dedce0337530300beebe166874dc8f1e935c9f7c29c4920664da9686bb012",
    "x6,x5y,x4y2,x3y3,x2y4,xy5": "53fdb284dcfbf968c3563f9b65e904e41696870617c0d0714c5328d4c45b9a62",
}


@pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("text", sorted(BRUTEFORCE_SHA256))
def test_bruteforce_table_is_unchanged(text, fld):
    table = minimal_resolution_bruteforce(parse_ideal(text), 6, 15, fld)
    digest = hashlib.sha256(json.dumps(betti_json(table), sort_keys=True).encode()).hexdigest()
    assert digest == BRUTEFORCE_SHA256[text]


@dataclass(frozen=True)
class GradedPieceMatrix:
    """Degree-d slice of a homogeneous map over standard-monomial bases."""

    degree: int
    row_basis: tuple[tuple[int, Monomial], ...]  # (target gen index, monomial)
    col_basis: tuple[tuple[int, Monomial], ...]
    columns: tuple[dict[int, int], ...]  # sparse, integer coefficients

    def rank(self, fld: FieldConfig) -> int:
        return sparse_rank(self.columns, fld)


def _slice_basis(module, ideal: MonomialIdeal, degree: int):
    basis = []
    for g, twist in enumerate(map(add, module.generators.dx, module.generators.dy)):
        for m in standard_monomials(ideal, degree - twist):
            basis.append((g, m))
    return basis


def graded_piece(res, i: int, degree: int, fld: FieldConfig = ExactRationals()) -> GradedPieceMatrix:
    """Matrix of the degree slice of d_i; entries reduced through the quotient.

    This is the definition of a slice.  check_exactness does not build
    slices: it ranks each block's bigraded pieces, whose direct sum a slice
    is (see _block_ranks).

    Raises ValueError naming the (row, col) of an entry whose surviving
    product falls outside the target's slice of this degree."""
    ideal = res.ring
    contains_xy = ideal.contains_xy
    col_basis = _slice_basis(res.modules[i], ideal, degree)
    row_basis = _slice_basis(res.modules[i - 1], ideal, degree)
    row_index = {(row, m.xdeg, m.ydeg): k for k, (row, m) in enumerate(row_basis)}
    diff_cols = [[] for _ in range(res.modules[i].rank)]
    for row, col, sign, x, y in res.differentials[i - 1].entries:
        diff_cols[col].append((row, sign, x, y))
    columns = []
    for g, m in col_basis:
        col: dict[int, int] = {}
        for row, sign, x, y in diff_cols[g]:
            px, py = m.xdeg + x, m.ydeg + y
            if contains_xy(px, py):
                continue
            ri = row_index.get((row, px, py))
            if ri is None:
                raise ValueError(f"entry ({row}, {g}) is not homogeneous")
            col[ri] = col.get(ri, 0) + sign
        columns.append({k: v for k, v in col.items() if v})
    return GradedPieceMatrix(degree, tuple(row_basis), tuple(col_basis), tuple(columns))


class TestGradedPiece:
    def test_slice_dimensions(self):
        res = build_resolution(M_RIGHT, 1)
        piece = graded_piece(res, 1, 3)
        gens = res.modules[1].generators
        expected_cols = sum(len(standard_monomials(M_RIGHT, 3 - dx - dy)) for dx, dy in zip(gens.dx, gens.dy))
        assert len(piece.col_basis) == expected_cols
        assert len(piece.row_basis) == len(standard_monomials(M_RIGHT, 3))

    def test_entries_reduced_through_quotient(self):
        # at degree 3 the column (e_x, xy) maps to x^2y = 0 in S
        piece = graded_piece(build_resolution(M_RIGHT, 1), 1, 3)
        idx = piece.col_basis.index((0, Monomial(1, 1)))
        assert piece.columns[idx] == {}

    def test_rank_nullity(self):
        res = build_resolution(M_LEFT, 5)
        for i in range(1, 6):
            for d in range(12):
                piece = graded_piece(res, i, d)
                rank = piece.rank(ExactRationals())
                assert 0 <= rank <= min(len(piece.col_basis), len(piece.row_basis))


class TestChecks:
    @pytest.mark.parametrize("ideal", [M_LEFT, M_RIGHT, M((3, 0), (0, 7))], ids=str)
    def test_engine_resolutions_pass(self, ideal):
        res = build_resolution(ideal, 9)
        assert check_complex(res).verdict
        assert check_minimality(res).verdict
        assert check_exactness(res, 8, 20).verdict

    def test_complex_groups_each_map_once(self, monkeypatch):
        grouped = []
        real = stairstep.oracle._group_columns

        def spy(res, i):
            grouped.append(i)
            return real(res, i)

        monkeypatch.setattr(stairstep.oracle, "_group_columns", spy)
        res = build_resolution(M_RIGHT, 7)
        assert check_complex(res).verdict
        # the lower map of each composite, never the top map
        assert grouped == list(range(1, 7))

    @pytest.mark.parametrize("ideal", [M_LEFT, M_RIGHT, M((3, 0), (2, 2), (1, 3), (0, 5))], ids=str)
    def test_entry_order_changes_no_report(self, ideal):
        # the engine's resolution; a copy with the first entry of every
        # column flipped, which fails composites; one with a column of d3
        # dropped, which fails exactness; one with an entry of d4 shifted,
        # which fails homogeneity
        res = build_resolution(ideal, 7)
        flipped = []
        for d in res.differentials:
            entries, seen = [], set()
            for row, col, sign, x, y in d.entries:
                entries.append((row, col, sign if col in seen else -sign, x, y))
                seen.add(col)
            flipped.append(replace(d, entries=tuple(entries)))
        cases = [res, replace(res, differentials=flipped), mutate(res, 3, "drop_column", -1), mutate(res, 4, "x_plus_1")]
        checks = (check_complex, check_homogeneity, lambda r: check_exactness(r, 6, 20))
        rng = random.Random(2207)
        for case in cases:
            shuffled = replace(
                case,
                differentials=[replace(d, entries=tuple(rng.sample(list(d.entries), len(d.entries)))) for d in case.differentials],
            )
            assert [tuple(d.entries) for d in shuffled.differentials] != [tuple(d.entries) for d in case.differentials]
            for check in checks:
                assert check(shuffled).to_json() == check(case).to_json()
        assert [[check(case).verdict for check in checks] for case in cases] == [
            [True, True, True],
            [False, True, True],
            [True, True, False],
            [False, False, False],
        ]

    @pytest.mark.parametrize("stage_index", [1, 3, 5])
    def test_complex_matches_compose_check_pairwise(self, stage_index):
        # a middle map with a flipped sign is the upper map of one
        # composite and the lower map of the next
        bad = mutate(build_resolution(M_LEFT, 7), stage_index + 1, "flip_sign")
        report = check_complex(bad)
        expected = [_composite(bad, i) for i in range(1, len(bad.differentials))]
        assert [c.stage for c in report.checks] == list(range(2, len(bad.differentials) + 1))
        assert [c.passed for c in report.checks] == [not cells for cells in expected]
        assert not report.verdict

    @pytest.mark.parametrize(
        "ideal, old, new",
        [
            # the (x^3, y^7) second map with entry y^7 instead of y^6
            (M((3, 0), (0, 7)), (0, 6), (0, 7)),
            # x^3 y instead of xy over (x^2 y, xy^2), past the stair table's last column
            (M_RIGHT, (1, 1), (3, 1)),
        ],
        ids=["y7", "x3y"],
    )
    def test_minimality_catches_zero_entry(self, ideal, old, new):
        # the new entry is 0 in S, so the column drops rank
        res = build_resolution(ideal, 3)
        entries = [(r, c, s, *(new if (x, y) == old else (x, y))) for r, c, s, x, y in res.differentials[1].entries]
        bad = with_map(res, 2, entries)
        report = check_minimality(bad)
        assert not report.verdict
        assert any(c.stage == 2 and not c.passed for c in report.checks)

    def test_minimality_catches_unit_entry(self):
        mod = GradedFreeModule((("e1", (0, 0)),))
        identity = Differential(((0, 0, 1, 0, 0),))
        bad = replace(build_resolution(M_RIGHT, 1), modules=[mod, mod], differentials=[identity])
        assert check_minimality(bad).failures() == [CheckRecord("minimality", 1, None, False, "bad entries [(0, 0, '1')]")]

    @pytest.mark.parametrize("mono, term", [((-1, 3), "x^-1*y^3"), ((2, -1), "x^2*y^-1")], ids=["x", "y"])
    def test_minimality_reports_negative_exponent(self, mono, term):
        # a negative exponent in d2's first entry: a failed record, as the
        # other checks give, not a ValueError from building the detail
        res = build_resolution(M_RIGHT, 4)
        d2 = res.differentials[1]
        row, col, sign, _x, _y = d2.entries[0]
        bad = with_map(res, 2, ((row, col, sign, *mono),) + d2.entries[1:])
        detail = f"bad entries [({row}, {col}, '{term}')]"
        assert check_minimality(bad).failures() == [CheckRecord("minimality", 2, None, False, detail)]
        assert not check_complex(bad).verdict
        assert not check_homogeneity(bad).verdict
        assert not check_exactness(bad, 3, 10).verdict

    def test_truncation_guard(self):
        res = build_resolution(M((5, 0), (0, 6)), 5)
        with pytest.raises(TruncationTooSmall):
            check_exactness(res, 4, 5)

    def test_negative_stage_rejected(self):
        # no stage to check is not a pass
        with pytest.raises(StageTooSmall, match=r"^need n >= 0$"):
            check_exactness(build_resolution(M_RIGHT, 3), -1, 5)

    @pytest.mark.parametrize("pairs, stages", [(((1, 0),), 2), (((1, 0), (0, 1)), 3)], ids=["type-1", "type-3"])
    def test_exactness_past_the_end_of_a_finite_resolution(self, pairs, stages):
        # (x) and (x, y) end in a zero module, so every later stage is zero
        # and exact: the check may be asked past the built stages
        res = build_resolution(M(*pairs), stages)
        assert res.modules[-1].rank == 0
        report = check_exactness(res, 6, 10)
        assert report.verdict
        assert {c.stage for c in report.checks} == set(range(7))

    @pytest.mark.parametrize(
        "ideal, max_stage, max_degree",
        [(M_RIGHT, 3, 10), (M((5, 0), (0, 1)), 5, 30)],  # the second's last module has rank 1
        ids=["main", "rank-1"],
    )
    def test_exactness_needs_the_next_stage(self, ideal, max_stage, max_degree):
        res = build_resolution(ideal, 3)
        with pytest.raises(ValueError, match=rf"^resolution built to stage 3; need stage {max_stage + 1}$"):
            check_exactness(res, max_stage, max_degree)
        assert check_exactness(res, 2, 10).verdict

    def test_report_json_shape(self):
        res = build_resolution(M_RIGHT, 4)
        report = check_complex(res)
        data = report.to_json()
        assert data["ideal"] == [[2, 1], [1, 2]]
        assert data["verdict"] == "pass"
        assert all(
            set(c) == {"kind", "stage", "degree", "pass", "detail"}
            for c in data["checks"]
        )

    def test_a_record_is_a_tuple(self):
        record = check_exactness(build_resolution(M_RIGHT, 4), 2, 8).checks[0]
        assert record == ("exactness", 0, 0, True, "") == CheckRecord("exactness", 0, 0, True)
        kind, stage, degree, passed, detail = record
        assert (kind, stage, degree, passed, detail) == ("exactness", 0, 0, True, "")
        assert (record.kind, record.stage, record.degree, record.passed, record.detail) == record
        assert repr(record) == "CheckRecord(kind='exactness', stage=0, degree=0, passed=True, detail='')"


def entry_rule_mutant(which):
    """(x^2y, xy^2) at stage 5 with one differential d_i breaking the
    loader's entry rule: (resolution, i, the loader's message)."""
    res = build_resolution(M_RIGHT, 5)
    if which == "negative rows":  # every row r of d1 moved to r - rank
        i, d = 1, res.differentials[0]
        entries = [(r - res.modules[0].rank, c, s, x, y) for r, c, s, x, y in d.entries]
        detail = "entry (-1, 0) of d1 is outside its 1x2 matrix"
    elif which == "row at rank":  # one row of d2 set to d2's target rank
        i, d = 2, res.differentials[1]
        r, c, s, x, y = d.entries[0]
        entries = [(res.modules[1].rank, c, s, x, y)] + list(d.entries[1:])
        detail = f"entry (2, {c}) of d2 is outside its 2x3 matrix"
    else:  # sign 2 on d3's last column, the F3 column d_1
        i, d = 3, res.differentials[2]
        j = max(range(len(d.entries)), key=lambda j: d.entries[j][1])
        r, c, s, x, y = d.entries[j]
        assert c == res.modules[3].rank - 1 and s == 1
        entries = mutate_entries(d.entries, "sign_2", j)
        detail = f"entry ({r}, {c}) of d3 has sign 2, not 1 or -1"
    return with_map(res, i, entries), i, detail


class TestEntryRule:
    """The checks apply the loader's entry rule to a resolution in memory:
    row in [0, rank F_{i-1}), col in [0, rank F_i), sign 1 or -1, both
    exponents >= 0.  Left unchecked, a negative row wraps to the last row
    and passes every check, a row at the rank raises IndexError, a sign of
    2 passes every check over Q, and a negative exponent can vanish in a
    composite read off the end of the stair."""

    @pytest.mark.parametrize("which", ["negative rows", "row at rank", "sign 2"])
    def test_a_bad_entry_fails_a_record(self, which):
        bad, i, detail = entry_rule_mutant(which)
        # the composites at stages i and i + 1 read d_i; there are four, at 2..5
        stages = [s for s in (i, i + 1) if 2 <= s <= 5]
        assert check_complex(bad).failures() == [CheckRecord("complex", s, None, False, detail) for s in stages]
        assert check_homogeneity(bad).failures() == [CheckRecord("homogeneity", i, None, False, detail)]
        # the path an inhomogeneous entry takes: one record and the report ends
        exactness = check_exactness(bad, 4, 15)
        assert exactness.failures() == [exactness.checks[-1]] == [CheckRecord("exactness", i, None, False, detail)]
        assert check_minimality(bad).verdict  # it indexes no module
        data = json.loads(json.dumps(resolution_to_json(bad)))
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            resolution_from_json(data)

    def test_a_lone_bad_d1_fails_a_complex_record(self):
        # one differential forms no composite, but its entries still obey
        # the rule: every row r of d1 moved to r - 1
        res = build_resolution(M_RIGHT, 1)
        assert check_complex(res).checks == []
        bad = with_map(res, 1, [(r - 1, c, s, x, y) for r, c, s, x, y in res.differentials[0].entries])
        detail = "entry (-1, 0) of d1 is outside its 1x2 matrix"
        assert check_complex(bad).checks == [CheckRecord("complex", 1, None, False, detail)]
        assert check_homogeneity(bad).failures() == [CheckRecord("homogeneity", 1, None, False, detail)]

    def test_a_negative_exponent_fails_the_composite(self):
        # (xy, y^2) at stage 5 with d1's entry x made x^-1: the composite
        # d1 d2 would read the stair at x-exponent -1, its last entry
        res = build_resolution(M((1, 1), (0, 2)), 5)
        assert res.differentials[0].entries[0] == (0, 0, 1, 1, 0)
        bad = mutate(res, 1, "x_to_minus_1")
        detail = "entry (0, 0) of d1 has a negative exponent in (-1, 0)"
        assert check_complex(bad).failures() == [CheckRecord("complex", 2, None, False, detail)]
        assert check_homogeneity(bad).failures() == [CheckRecord("homogeneity", 1, None, False, detail)]
        assert check_exactness(bad, 4, 10).failures() == [CheckRecord("exactness", 1, None, False, detail)]
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            resolution_from_json(json.loads(json.dumps(resolution_to_json(bad))))

    def test_every_negative_x_exponent_below_the_top_map_fails_the_composites(self):
        # each entry of d_1..d_4 at stage 5 with its x-exponent set to -1,
        # over exhaustive_corpus(3): 1507 mutants
        count = 0
        for ideal in exhaustive_corpus(3):
            res = build_resolution(ideal, 5)
            for i, d in enumerate(res.differentials[:-1], start=1):
                for k, (row, col, _sign, _x, y) in enumerate(d.entries):
                    failures = check_complex(mutate(res, i, "x_to_minus_1", k)).failures()
                    detail = f"entry ({row}, {col}) of d{i} has a negative exponent in {(-1, y)}"
                    assert failures and failures[0].detail == detail
                    count += 1
        assert count == 1507


class TestShapeFromTheResolution:
    """A map keeps only its entries: the checks read its shape F_i -> F_{i-1}
    from res.modules and its ring from res.ring, the ring and modules that
    graded_betti and the oracle read too."""

    def test_a_replaced_ring_fails_the_composites(self):
        res = build_resolution(M_RIGHT, 4)
        assert check_complex(res).verdict
        failures = check_complex(replace(res, ring=M((3, 1), (1, 3)))).failures()
        assert [c.stage for c in failures] == [2, 3, 4]
        assert failures[0] == CheckRecord("complex", 2, None, False, "nonzero composite at cells [(0, 0), (0, 1)]")

    def test_a_repeated_module_fails_homogeneity_and_exactness(self):
        res = build_resolution(M_RIGHT, 6)
        res.modules[3] = res.modules[2]
        assert res.total_betti_numbers()[3] == 3
        detail = "entry (1, 3) of d3 is outside its 3x3 matrix"
        assert check_homogeneity(res).failures()[0] == CheckRecord("homogeneity", 3, None, False, detail)
        assert check_exactness(res, 5, 20).failures() == [CheckRecord("exactness", 3, None, False, detail)]
        assert check_complex(res).failures()[0] == CheckRecord("complex", 3, None, False, detail)

    @pytest.mark.parametrize("extra", ["module", "differential", "module beside no map"])
    def test_a_module_or_map_too_many_is_the_loaders_value_error(self, extra):
        # a map without its module raised IndexError, and a module without
        # its map was never read
        res = build_resolution(M_RIGHT, 4)
        if extra == "module":
            bad, message = replace(res, modules=res.modules + [res.modules[-1]]), "4 differentials between 6 modules"
        elif extra == "differential":
            bad, message = replace(res, differentials=res.differentials + [res.differentials[0]]), "5 differentials between 5 modules"
        else:
            bad, message = replace(res, modules=res.modules[:2], differentials=[]), "0 differentials between 2 modules"
        checks = (
            check_complex, check_minimality, check_homogeneity,
            lambda r: check_exactness(r, 4, 10), lambda r: check_exactness(r, 0, 10),
        )
        for check in checks:
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            resolution_from_json(json.loads(json.dumps(resolution_to_json(bad))))


class TestMutations:
    @pytest.mark.parametrize("kind, k", [("flip_sign", 0), ("drop_column", -1), ("x_plus_1", 0)], ids=["sign", "drop", "shift"])
    def test_detected(self, kind, k):
        res = build_resolution(M_RIGHT, 7)
        assert not check_resolution(mutate(res, 3, kind, k), 5, 15).verdict

    def test_column_drop_breaks_exactness(self):
        res = build_resolution(M_LEFT, 3)
        # remove the e_{d_1} column (the last one)
        entries = [e for e in res.differentials[2].entries if e[1] != res.modules[3].rank - 1]
        src = GradedFreeModule(tuple(res.modules[3].generators)[:-1])
        bad = replace(with_map(res, 3, entries), modules=res.modules[:3] + [src])
        report = check_exactness(bad, 2, 15)
        assert not report.verdict


def joined(res, max_stage, max_degree, fld=ExactRationals()) -> list:
    """The records of the three checks check_resolution joins, each run alone."""
    return (
        check_complex(res).checks
        + check_minimality(res).checks
        + check_exactness(res, max_stage, max_degree, fld).checks
    )


def corpus_mutants():
    """(ideal, res, mutants) for each ideal of exhaustive_corpus(2) +
    random_corpus(6, seed=36), res built to stage 6 and mutants a list of
    (kind, mutant): each kind of MUTATIONS applied to one random entry of
    a random nonzero map of res."""
    for n, ideal in enumerate(exhaustive_corpus(2) + random_corpus(6, seed=36)):
        res = build_resolution(ideal, 6)
        rng = random.Random(n)
        stages = [i for i, d in enumerate(res.differentials) if len(d.entries)]
        mutants = []
        for kind in MUTATIONS if stages else ():
            i = rng.choice(stages)
            mutants.append((kind, mutate(res, i + 1, kind, rng.randrange(len(res.differentials[i].entries)), rng)))
        yield ideal, res, mutants


def shape_fault_spy(monkeypatch) -> Counter:
    """Count the maps whose entry rule the checks read, by index."""
    seen, real = Counter(), stairstep.oracle._shape_fault

    def spy(res, i):
        seen[i] += 1
        return real(res, i)

    monkeypatch.setattr(stairstep.oracle, "_shape_fault", spy)
    return seen


class TestCheckResolution:
    def test_d3_sign_flip_fails_only_beside_the_complex_records(self):
        # exactness compares dimensions, which a sign flip keeps: it passes
        # a map sequence that is not a complex, and the joined verdict
        # fails exactly where the complex records do
        flipped = complex_failed = 0
        for ideal in exhaustive_corpus(4) + random_corpus(50, seed=0):
            res = build_resolution(ideal, 8)
            if not len(res.differentials[2].entries):
                continue
            bad = mutate(res, 3, "flip_sign")
            flipped += 1
            complex_failed += not check_complex(bad).verdict
            assert check_exactness(bad, 7, 25).verdict, ideal
            assert check_resolution(bad, 7, 25).verdict == check_complex(bad).verdict, ideal
        assert (flipped, complex_failed) == (297, 276)

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=["Q", "F2"])
    def test_records_are_the_three_reports_joined(self, fld):
        kinds = Counter()
        for ideal, res, mutants in corpus_mutants():
            max_degree = max(20, ideal.max_generator_degree)
            kinds.update(kind for kind, _bad in mutants)
            for case in [res] + [with_spare(res, k, (3, 4)) for k in range(3)] + [bad for _kind, bad in mutants]:
                assert check_resolution(case, 5, max_degree, fld).checks == joined(case, 5, max_degree, fld)
        assert set(kinds) == set(MUTATIONS)

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=["Q", "F2"])
    def test_homogeneity_and_exactness_fail_a_map_alike(self, fld):
        # an exactness record with no degree names the first entry of its
        # map that breaks the rule or the bigrading, and check_homogeneity
        # fails that map with the same detail: both read _shape_fault and
        # then the first pass of _split_blocks
        kinds, inhomogeneous = Counter(), 0
        for ideal, _res, mutants in corpus_mutants():
            max_degree = max(20, ideal.max_generator_degree)
            for kind, bad in mutants:
                failed = [c for c in check_exactness(bad, 5, max_degree, fld).checks if c.degree is None]
                if failed:
                    (record,) = failed
                    homogeneity = check_homogeneity(bad).checks[record.stage - 1]
                    assert homogeneity == CheckRecord("homogeneity", record.stage, None, False, record.detail)
                    kinds[kind] += 1
                    inhomogeneous += record.detail.endswith("is not homogeneous")
        assert set(kinds) == {"x_plus_1", "row_plus_1", "sign_2", "x_to_minus_1"}
        assert inhomogeneous >= kinds["x_plus_1"] > 0

    # the engine's d3, and d3 with its first entry mutated; sign_2 breaks the entry rule
    @pytest.mark.parametrize("kind", [None, "flip_sign", "sign_2", "x_plus_1"], ids=["engine", "sign_flip", "sign_2", "x_plus_1"])
    def test_reads_each_entry_rule_once(self, monkeypatch, kind):
        res = build_resolution(M((6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5)), 8)
        if kind:
            res = mutate(res, 3, kind)
        expected = joined(res, 7, 25)
        seen = shape_fault_spy(monkeypatch)
        assert check_resolution(res, 7, 25).checks == expected
        assert seen == Counter(range(1, 9))

    def test_exactness_reads_no_map_above_the_next_stage(self, monkeypatch):
        res = build_resolution(M_RIGHT, 8)
        res = replace(res, differentials=res.differentials[:6] + [Differential(((0, 0, 2, 1, 1),))] * 2)
        seen = shape_fault_spy(monkeypatch)
        assert check_exactness(res, 5, 20).verdict
        assert seen == Counter(range(1, 7))
        assert not check_resolution(res, 5, 20).verdict

    @pytest.mark.parametrize(
        "change, args",
        [
            (lambda r: r, (-1, 20)),
            (lambda r: r, (4, 2)),
            (lambda r: r, (6, 20)),
            (lambda r: replace(r, modules=r.modules[:-1]), (4, 20)),
            (lambda r: replace(r, modules=r.modules[:-1]), (-1, 2)),
        ],
        ids=["stage_-1", "window_2", "stage_7_unbuilt", "module_short", "module_short_stage_-1"],
    )
    def test_raises_what_check_exactness_raises_before_reading_a_map(self, monkeypatch, change, args):
        res = change(build_resolution(M_RIGHT, 6))
        with pytest.raises(ValueError) as alone:
            check_exactness(res, *args)
        seen = shape_fault_spy(monkeypatch)
        with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
            check_resolution(res, *args)
        assert not seen


def exactness_reference(res, max_stage, max_degree, fld):
    """The records check_exactness should give, without splitting blocks:
    dim im from graded_piece on whole differentials, dim ker from the
    Hilbert function of S and each module's twists, F_0's included, and a
    stop at the first entry that breaks the bigrading."""

    def hilbert(n):
        return len(standard_monomials(res.ring, n)) if n >= 0 else 0

    def dims(module):
        twists = [dx + dy for dx, dy in zip(module.generators.dx, module.generators.dy)]
        return [sum(hilbert(d - t) for t in twists) for d in range(max_degree + 1)]

    ker = dims(res.modules[0])
    ker[0] -= 1  # the augmentation F_0 -> k
    records = []
    for i in range(1, max_stage + 2):
        rank = [0] * (max_degree + 1)
        if i <= len(res.differentials):
            target, source = res.modules[i - 1].generators, res.modules[i].generators
            for row, col, _sign, x, y in res.differentials[i - 1].entries:
                if (source.dx[col], source.dy[col]) != (target.dx[row] + x, target.dy[row] + y):
                    detail = f"entry ({row}, {col}) is not homogeneous"
                    return records + [CheckRecord("exactness", i, None, False, detail)]
            rank = [graded_piece(res, i, d, fld).rank(fld) for d in range(max_degree + 1)]
        for d in range(max_degree + 1):
            ok = ker[d] == rank[d]
            detail = "" if ok else f"dim ker={ker[d]} != dim im={rank[d]}"
            records.append(CheckRecord("exactness", i - 1, d, ok, detail))
        if i <= len(res.differentials):
            ker = [dim - r for dim, r in zip(dims(res.modules[i]), rank)]
        else:
            ker = [0] * (max_degree + 1)
    return records


def piece_patterns(res, max_stage, max_degree):
    """Every distinct (block key, alive columns, alive rows) among the
    bigraded pieces of degree <= max_degree, from the generators' own
    bidegrees: a generator of bidegree (gx, gy) is alive in the piece of
    bidegree (p, q) when x^(p-gx) y^(q-gy) is a standard monomial.  Blocks
    are the connected components of the columns of twist <= max_degree, and
    a key numbers a block's columns and rows in order of use."""
    ring = res.ring

    def alive(bidegree, p, q):
        u, v = p - bidegree[0], q - bidegree[1]
        return u >= 0 and v >= 0 and not ring.contains_xy(u, v)

    patterns = set()
    for i, diff in enumerate(res.differentials[: max_stage + 1], start=1):
        src = [b for _label, b in res.modules[i].generators]
        tgt = [b for _label, b in res.modules[i - 1].generators]
        kept = [e for e in diff.entries if sum(src[e[1]]) <= max_degree]
        parent = list(range(len(tgt)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        first = {}
        for row, col, *_ in kept:
            parent[find(row)] = find(first.setdefault(col, row))
        blocks = {}
        for entry in kept:
            blocks.setdefault(find(entry[0]), []).append(entry)
        instances = set()
        for entries in blocks.values():
            cols, rows = {}, {}
            key = tuple(
                (cols.setdefault(c, len(cols)), rows.setdefault(r, len(rows)), s, x, y)
                for r, c, s, x, y in entries
            )
            # instances with one key and one bidegree have the same pieces
            instances.add((key, tuple(src[c] for c in cols), tuple(tgt[r] for r in rows)))
        for key, col_bideg, row_bideg in instances:
            for p in range(max_degree + 1):
                for q in range(max_degree + 1 - p):
                    alive_cols = tuple(i for i, b in enumerate(col_bideg) if alive(b, p, q))
                    if alive_cols:
                        alive_rows = tuple(i for i, b in enumerate(row_bideg) if alive(b, p, q))
                        patterns.add((key, alive_cols, alive_rows))
    return patterns


@st.composite
def small_resolutions(draw):
    """(resolution, max_stage, max_degree): r <= 4, exponents <= 5, up to
    stage 5, max_degree <= 14, and maybe one entry or column corrupted."""
    r = draw(st.integers(1, 4))
    xs = draw(st.lists(st.integers(0, 5), min_size=r, max_size=r, unique=True))
    ys = draw(st.lists(st.integers(0, 5), min_size=r, max_size=r, unique=True))
    pairs = list(zip(sorted(xs, reverse=True), sorted(ys)))
    assume(pairs != [(0, 0)])
    ideal = M(*pairs)
    max_stage = draw(st.integers(0, 5))
    max_degree = draw(st.integers(ideal.max_generator_degree, 14))
    res = build_resolution(ideal, max_stage + 1)
    live = [k for k, d in enumerate(res.differentials) if d.entries]
    kind = draw(st.sampled_from(["none", "flip_sign", "drop", "x_plus_1", "swap", "drop_column"]))
    if kind != "none" and live:
        k = draw(st.sampled_from(live))
        res = mutate(res, k + 1, kind, draw(st.integers(0, len(res.differentials[k].entries) - 1)))
    return res, max_stage, max_degree


def with_spare(res, k, bidegree):
    """res with one more generator at the end of F_k, which no entry reads."""
    modules = list(res.modules)
    modules[k] = GradedFreeModule(list(modules[k].generators) + [("spare", bidegree)])
    return replace(res, modules=modules)


class TestStageZeroReadsItsModule:
    """dim (F_0)_d is read off F_0's twists like every other module's, not
    taken from S: F_0 must be S for exactness at stage 0 to hold."""

    @pytest.mark.parametrize("reload", [False, True])
    def test_a_spare_f0_generator_fails_stage_zero(self, reload):
        bad = with_spare(build_resolution(M_RIGHT, 5), 0, (7, 7))
        if reload:
            bad = resolution_from_json(json.loads(json.dumps(resolution_to_json(bad))))
        for check in (check_complex, check_minimality, check_homogeneity):
            assert check(bad).verdict
        report = check_exactness(bad, 4, 18)
        assert [(c.stage, c.degree) for c in report.failures()] == [(0, d) for d in range(14, 19)]
        # S_14 is spanned by x^14 and y^14, and the spare adds its S_0
        assert report.failures()[0].detail == "dim ker=3 != dim im=2"
        assert report.checks == exactness_reference(bad, 4, 18, ExactRationals())

    @pytest.mark.parametrize("k", range(5))
    def test_a_spare_generator_fails_its_stage_over_the_corpus(self, k):
        # the spare is a kernel element of its stage that no map reaches
        for ideal in exhaustive_corpus(3):
            report = check_exactness(with_spare(build_resolution(ideal, 6), k, (3, 4)), 5, 20)
            assert {c.stage for c in report.failures()} == {k}, ideal

    def test_a_spare_f0_generator_above_the_window_passes(self):
        bad = with_spare(build_resolution(M_RIGHT, 5), 0, (10, 9))
        assert check_exactness(bad, 4, 18).verdict


def with_unit_summand(res, k, bidegree):
    """res with one more generator of ``bidegree`` at the end of F_k and of
    F_{k+1}, and d_{k+1} taking the new column to the new row by 1: the
    summand S(-t) -> S(-t) changes no homology."""
    modules = list(res.modules)
    for j in (k, k + 1):
        modules[j] = GradedFreeModule(list(modules[j].generators) + [("unit", bidegree)])
    unit = (modules[k].rank - 1, modules[k + 1].rank - 1, 1, 0, 0)
    return replace(with_map(res, k + 1, (*res.differentials[k].entries, unit)), modules=modules)


def standard_by_cells(ideal: MonomialIdeal, d: int) -> tuple[int, ...]:
    """The reference for _standard_x: each generator x^a y^b marks the cells
    x^s y^(d-s) of degree d it divides, a <= s <= d - b, and the x-exponents
    of the cells left unmarked are listed highest first."""
    divided = bytearray(d + 1)
    for g in ideal.generators:
        if g.xdeg + g.ydeg <= d:
            divided[g.xdeg : d - g.ydeg + 1] = b"\1" * (d - g.ydeg + 1 - g.xdeg)
    return tuple(compress(range(d, -1, -1), divided[::-1].translate(UNMARKED)))


UNMARKED = bytes([1, 0]) + bytes(254)  # 1 for an unmarked cell, 0 for a marked one

# r <= 6 generators with exponents up to 10^6: the staircase's strips, and
# the Hilbert list through flat, are up to 2 million long
wide_ideals = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(any), min_size=1, max_size=6
).map(lambda pairs: M(*pairs))


def breakpoints(ideal: MonomialIdeal) -> list[int]:
    """The degrees where S's Hilbert function changes slope, and their
    neighbours: the generators', their neighbours' lcms' and flat."""
    gens = ideal.generators
    corners = [g.xdeg + g.ydeg for g in gens] + [g.xdeg + h.ydeg for g, h in zip(gens, gens[1:])] + [ideal.flat]
    return [d + e for d in corners for e in (-1, 0, 1) if d + e >= 0]


@st.composite
def wide_pieces(draw):
    """A wide ideal and up to four degrees, across its breakpoints or
    anywhere through flat + 7."""
    ideal = draw(wide_ideals)
    anywhere = st.integers(0, ideal.flat + 7)
    return ideal, draw(st.lists(st.one_of(st.sampled_from(breakpoints(ideal)), anywhere), min_size=1, max_size=4))


class TestHilbertAtLargeExponents:
    """_standard_x's walk over the corners and _hilbert's numerator against
    cells marked one generator at a time."""

    @settings(max_examples=40, deadline=None)
    @given(wide_pieces())
    @example((M((10**6, 0), (3, 3), (0, 10**6)), breakpoints(M((10**6, 0), (3, 3), (0, 10**6)))))
    @example((M((5, 2), (1, 9)), list(range(20))))
    def test_match_the_cells(self, piece):
        ideal, degrees = piece
        hilbert = _hilbert(ideal)
        for d in degrees:
            cells = standard_by_cells(ideal, d)
            assert _standard_x(ideal, d) == cells, (ideal, d)
            assert hilbert[min(d, ideal.flat)] == len(cells), (ideal, d)


class TestSpread:
    """_spread against the per-degree sum it stands for: count times head
    from degree lo on, head's last value held past its end, added in the
    window 0..len(start) - 1 only."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=12),
        st.integers(-30, 30),
        st.lists(st.integers(-9, 9), max_size=30),
        st.integers(-4, 4),
    )
    @example(start=[0] * 5, lo=-8, head=[1, 2, 3], count=1)  # the whole head below degree 0
    @example(start=[0] * 5, lo=-2, head=[4, 1, 7, 2], count=2)  # a head across degree 0
    @example(start=[0] * 5, lo=5, head=[3, 1], count=1)  # lo just past the window
    @example(start=[0] * 5, lo=40, head=[3], count=1)  # lo far past it
    @example(start=[1] * 5, lo=0, head=[], count=3)  # an empty head adds nothing
    @example(start=[0] * 5, lo=1, head=list(range(20)), count=1)  # a head longer than the window
    @example(start=[2] * 5, lo=2, head=[5, 6], count=-3)
    def test_matches_a_per_degree_sum(self, start, lo, head, count):
        diff = list(start)
        _spread(diff, lo, head, count)
        added = [count * head[min(d - lo, len(head) - 1)] if head and d >= lo else 0 for d in range(len(start))]
        assert list(accumulate(diff)) == list(map(add, accumulate(start), added))


class TestWindowEdges:
    """The degree clamps of _spread: a block that starts at degree 0,
    twists below it, which a resolution loaded from JSON may hold, and
    twists above the window."""

    def test_a_block_with_rank_in_degree_zero(self):
        # the unit block ranks 1 in degree 0; skipping degree 0 would leave
        # the new generator of F_1 a kernel element there
        res = with_unit_summand(build_resolution(M_RIGHT, 5), 1, (0, 0))
        report = check_exactness(res, 4, 12)
        assert report.verdict
        assert report.checks == exactness_reference(res, 4, 12, ExactRationals())

    def test_a_loaded_negative_twist_inside_the_window(self):
        # the twist -1 reaches into the window from below; reading degree -1
        # as a list index would add its piece to degree 12 instead
        res = with_unit_summand(build_resolution(M_RIGHT, 5), 1, (-1, 0))
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        gens = loaded.modules[2].generators
        assert gens.dx[-1] + gens.dy[-1] == -1
        report = check_exactness(loaded, 4, 12)
        assert report.verdict
        assert report.checks == exactness_reference(loaded, 4, 12, ExactRationals())

    def test_a_loaded_twist_whose_hilbert_head_lies_below_degree_zero(self):
        # S's Hilbert function is constant from degree flat = 3 on, so a
        # twist of -50 reads only its tail in the window
        res = with_unit_summand(build_resolution(M_RIGHT, 5), 1, (-50, 0))
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        report = check_exactness(loaded, 4, 12)
        assert report.verdict
        assert report.checks == exactness_reference(loaded, 4, 12, ExactRationals())

    def test_a_loaded_negative_twist_reads_hilbert_past_the_window(self):
        # (x^3, y^3) has flat = 5 above the window 0..3, and the twist -2
        # reads dim S_4 = 1 in degree 2: a Hilbert function cut at the
        # window's end would read S's tail, 0, there
        res = with_unit_summand(build_resolution(parse_ideal("x3,y3"), 5), 1, (-2, 0))
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        report = check_exactness(loaded, 4, 3)
        assert report.verdict
        assert report.checks == exactness_reference(loaded, 4, 3, ExactRationals())

    def test_a_block_whose_first_row_lies_above_the_window(self):
        # the unit block's row and column have twist 13: _split_blocks
        # drops the column, and both twists spread nothing into 0..12
        res = with_unit_summand(build_resolution(M_RIGHT, 5), 1, (13, 0))
        report = check_exactness(res, 4, 12)
        assert report.verdict
        assert report.checks == exactness_reference(res, 4, 12, ExactRationals())
        assert report.checks == check_exactness(build_resolution(M_RIGHT, 5), 4, 12).checks


def settled_by(res, max_stage):
    """A degree from which every block of d_1 .. d_{max_stage+1} has
    constant rank: a key's T (see _block_ranks) is, in absolute degrees,
    the largest x-degree of its columns and rows plus the largest y-degree,
    plus a_1 + b_r."""
    ring = res.ring
    reach = ring.generators[0].xdeg + ring.generators[-1].ydeg
    gens = [m.generators for m in res.modules[: max_stage + 2]]
    return reach + max(max(g.dx, default=0) + max(g.dy, default=0) for g in gens)


# Random ideals with r <= 4 and exponents <= 4, and the regimes that few
# such ideals fall in (types I, III, IV and V).
SETTLE_IDEALS = random_corpus(12, 26, max_r=4, max_exp=4) + [parse_ideal(t) for t in ("y", "x,y", "x3,y", "x3,y7")]


class TestRanksSettle:
    """A block's rank is constant from its key's degree T on, so ranks
    past T are repeated, not computed."""

    def test_the_ideals_cover_every_regime(self):
        assert {classify(ideal) for ideal in SETTLE_IDEALS} == set(IdealClass)

    @pytest.mark.parametrize("ideal", SETTLE_IDEALS, ids=str)
    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=str)
    def test_wide_windows_match_the_reference(self, ideal, fld):
        rng = random.Random(str(ideal))
        res = build_resolution(ideal, 4)
        window = 3 * default_max_degree(ideal, 3)
        assert window > settled_by(res, 3)
        cases = [res]
        live = [k for k, d in enumerate(res.differentials) if d.entries]
        for kind in ("flip_sign", "drop") if live else ():
            k = rng.choice(live)
            cases.append(mutate(res, k + 1, kind, rng.randrange(len(res.differentials[k].entries))))
        for case in cases:
            assert check_exactness(case, 3, window, fld).checks == exactness_reference(case, 3, window, fld)

    @pytest.mark.parametrize("text", ["x2y,xy2", "xy2,y4", "x3,x2y2,xy3,y5", "x2y3", "x3,y7"])
    def test_a_wider_window_ranks_no_more_pieces(self, monkeypatch, text):
        # _block_ranks looks up a degree's alive columns once per (key,
        # degree) it ranks: a window four times as wide, past every T,
        # must rank the same pairs
        calls = 0
        real = stairstep.oracle.bisect_left

        def spy(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(stairstep.oracle, "bisect_left", spy)
        ideal = parse_ideal(text)
        res = build_resolution(ideal, 7)
        window = default_max_degree(ideal, 6)
        assert window >= settled_by(res, 6)
        counts = []
        for w in (window, 4 * window):
            calls = 0
            assert check_exactness(res, 6, w).verdict
            counts.append(calls)
        assert counts[0] == counts[1] > 0


class TestExactnessReadsEntries:
    """Exactness comes from the differentials' entries, whatever made the
    resolution."""

    @pytest.mark.parametrize("stage_index", [2, 4, 5])
    def test_column_drop_caught_after_json_reload(self, stage_index):
        res = build_resolution(M_RIGHT, 7)
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        bad = mutate(loaded, stage_index + 1, "drop_column", -1)
        assert not check_exactness(bad, 6, 15).verdict

    @pytest.mark.parametrize("stage_index", [2, 5])
    def test_inhomogeneous_entry_reported(self, stage_index):
        bad = mutate(build_resolution(M_RIGHT, 7), stage_index + 1, "x_plus_1")
        row, col = bad.differentials[stage_index].entries[0][:2]
        detail = f"entry ({row}, {col}) is not homogeneous"
        with pytest.raises(ValueError) as exc:
            for d in range(16):
                graded_piece(bad, stage_index + 1, d)
        assert str(exc.value) == detail
        report = check_exactness(bad, 6, 15)
        assert report.failures() == [CheckRecord("exactness", stage_index + 1, None, False, detail)]

    @pytest.mark.parametrize("ideal", [M_LEFT, M_RIGHT, M((3, 0), (1, 1), (0, 3))], ids=str)
    @pytest.mark.parametrize("which", ["flip_sign", "drop_column"], ids=["sign", "drop"])
    def test_block_ranks_match_whole_matrices(self, ideal, which):
        res = build_resolution(ideal, 6)
        for k, diff in enumerate(res.differentials):
            for j in range(0, len(diff.entries), 5):
                bad = mutate(res, k + 1, which, j)
                report = check_exactness(bad, 5, 12)
                assert [c.passed for c in report.checks] == [c.passed for c in exactness_reference(bad, 5, 12, ExactRationals())]

    def test_signs_are_part_of_the_key(self):
        # d2 has columns (y, -x) and (y, x): rank 2 in the slices where
        # x and y survive, but rank 1 if the signs were dropped
        def module(*bidegrees):
            return GradedFreeModule(tuple(("g", b) for b in bidegrees))

        x, y = (1, 0), (0, 1)
        f0, f1, f2 = module((0, 0)), module(x, y), module((1, 1), (1, 1))
        d1 = Differential(((0, 0, 1, *x), (0, 1, 1, *y)))
        d2 = Differential(((0, 0, 1, *y), (1, 0, -1, *x), (0, 1, 1, *y), (1, 1, 1, *x)))
        base = build_resolution(M_RIGHT, 2)
        res = replace(base, modules=[f0, f1, f2], differentials=[d1, d2])
        passed = [c.passed for c in check_exactness(res, 1, 6).checks]
        assert passed == [c.passed for c in exactness_reference(res, 1, 6, ExactRationals())]
        assert not all(passed)

    def test_zero_column_of_negative_degree(self):
        res = build_resolution(M_RIGHT, 4)
        source = GradedFreeModule(tuple(res.modules[2].generators) + (("g", (-1, 0)),))
        bad = replace(res, modules=res.modules[:2] + [source] + res.modules[3:])
        passed = [c.passed for c in check_exactness(bad, 2, 8).checks]
        assert passed == [c.passed for c in exactness_reference(bad, 2, 8, ExactRationals())]
        assert not all(passed)

    NEGATIVE = (7, 13, 1, -1, 3)  # x^-1*y^3 from a new column 13 of F5 into d5's row 7
    NEGATIVE_DETAIL = "entry (7, 13) of d5 has a negative exponent in (-1, 3)"

    @staticmethod
    def with_column_13(entries):
        """(x^2y, xy^2) at stage 6 with a column 13 of bidegree (row 7's) +
        (-1, 3), twist 7, added to F5, and d5's entries made by ``entries``
        from the engine's d5: NEGATIVE is homogeneous there."""
        res = build_resolution(M_RIGHT, 6)
        target = res.modules[4].generators
        source = GradedFreeModule(tuple(res.modules[5].generators) + (("g", (target.dx[7] - 1, target.dy[7] + 3)),))
        assert source.generators.dx[13] + source.generators.dy[13] == 7
        modules = res.modules[:5] + [source] + res.modules[6:]
        return replace(with_map(res, 5, entries(res.differentials[4])), modules=modules)

    def test_negative_exponent_named_by_its_own_row_and_col(self):
        # the report names the entry as check_minimality and the loader do,
        # not by its place inside its block
        bad = self.with_column_13(lambda d5: (*d5.entries, self.NEGATIVE))
        assert "(7, 13," in check_minimality(bad).failures()[0].detail
        detail = self.NEGATIVE_DETAIL
        assert check_homogeneity(bad).failures() == [CheckRecord("homogeneity", 5, None, False, detail)]
        assert check_exactness(bad, 4, 20).failures() == [CheckRecord("exactness", 5, None, False, detail)]
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            resolution_from_json(json.loads(json.dumps(resolution_to_json(bad))))

    def test_negative_exponent_above_the_window_fails(self):
        # column 13's twist 7 lies above max_degree 6, so it joins no block;
        # the rule is still applied to every entry, as the loader applies it
        bad = self.with_column_13(lambda d5: (*d5.entries, self.NEGATIVE))
        detail = self.NEGATIVE_DETAIL
        assert check_exactness(bad, 4, 6).failures() == [CheckRecord("exactness", 5, None, False, detail)]

    @pytest.mark.parametrize("negative_first", [True, False])
    def test_negative_exponent_wins_over_an_inhomogeneous_entry(self, negative_first):
        # NEGATIVE, and the last entry of d5 shifted off its bidegree: the
        # rule is tested before the bigrading, so the record names NEGATIVE
        # in either entry order
        def shifted(d5):
            return mutate_entries(d5.entries, "x_plus_1", -1)

        alone = self.with_column_13(shifted)
        row, col = alone.differentials[4].entries[-1][:2]
        inhomogeneous = f"entry ({row}, {col}) is not homogeneous"
        assert check_homogeneity(alone).failures() == [CheckRecord("homogeneity", 5, None, False, inhomogeneous)]
        if negative_first:
            bad = self.with_column_13(lambda d5: [self.NEGATIVE, *shifted(d5)])
        else:
            bad = self.with_column_13(lambda d5: [*shifted(d5), self.NEGATIVE])
        detail = self.NEGATIVE_DETAIL
        assert check_homogeneity(bad).failures() == [CheckRecord("homogeneity", 5, None, False, detail)]
        assert check_exactness(bad, 4, 20).failures() == [CheckRecord("exactness", 5, None, False, detail)]

    @settings(max_examples=60, deadline=None)
    @given(small_resolutions(), st.sampled_from([ExactRationals(), PrimeField(2), PrimeField(32003)]))
    def test_records_match_whole_matrix_reference(self, case, fld):
        res, max_stage, max_degree = case
        report = check_exactness(res, max_stage, max_degree, fld)
        assert report.checks == exactness_reference(res, max_stage, max_degree, fld)

    def test_inhomogeneous_entry_above_max_degree_reported(self):
        # no column of d9 has twist <= 25, so none joins a block; the
        # bigrading is still checked on every entry, and the split of the
        # engine's d9 and of one with an entry's exponents swapped has no
        # block either way
        res = build_resolution(parse_ideal("x8y,x7y3,x6y5,x5y6,xy8,y9"), 9)
        d9 = res.differentials[8]
        gens = res.modules[9].generators
        assert min(gens.dx[col] + gens.dy[col] for _row, col, *_rest in d9.entries) > 25
        j, (row, col, *_rest) = next((j, e) for j, e in enumerate(d9.entries) if e[3] != e[4])
        bad = mutate(res, 9, "swap", j)
        assert check_exactness(res, 8, 25).verdict
        detail = f"entry ({row}, {col}) is not homogeneous"
        assert check_exactness(bad, 8, 25).failures() == [CheckRecord("exactness", 9, None, False, detail)]
        assert _split_blocks(res, 9, 25) == ("", {})
        assert _split_blocks(bad, 9, 25) == (detail, {})

    def test_json_round_trip_gives_same_report(self):
        res = build_resolution(M((3, 0), (2, 2), (1, 3), (0, 5)), 9)
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        expected = check_exactness(res, 8, 30).to_json()
        assert expected["verdict"] == "pass"
        assert check_exactness(loaded, 8, 30).to_json() == expected

    @pytest.mark.parametrize("ideal", [M_RIGHT, M((3, 0), (2, 2), (1, 3), (0, 5))], ids=str)
    def test_one_rank_per_piece_pattern(self, monkeypatch, ideal):
        # each bigraded piece is a block's sign matrix on its alive columns
        # and rows, ranked once per pattern; no slice is built
        calls = 0
        real = stairstep.oracle.sparse_rank

        def spy(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(stairstep.oracle, "sparse_rank", spy)
        res = build_resolution(ideal, 9)
        assert check_exactness(res, 8, 40).verdict
        assert 0 < calls <= len(piece_patterns(res, 8, 40))

    @staticmethod
    def hand_built(case):
        """A two-map resolution over (x^2y, xy^2) with one unusual block."""

        def module(*bidegrees):
            return GradedFreeModule(tuple(("g", b) for b in bidegrees))

        x, y = (1, 0), (0, 1)
        f0, f1 = module((0, 0)), module(x, y)
        d1 = Differential(((0, 0, 1, *x), (0, 1, 1, *y)))
        if case == "cancel":
            # the cell (e_y, column 0) holds +x and -x, which cancel
            f2 = module((1, 1))
            entries = ((0, 0, 1, *y), (1, 0, 1, *x), (1, 0, -1, *x))
        elif case == "double":
            # the cell (e_x, column 0) holds y twice: 2y, which is 0 over F_2
            f2 = module((1, 1))
            entries = ((0, 0, 1, *y), (0, 0, 1, *y), (1, 0, -1, *x))
        else:
            # the columns y*e_x -+ x*e_y at their monomial x^2: the row e_x
            # meets x^2y = 0 in S and e_y meets x^3, so the piece has rank
            # 1, and rank 2 over Q if the dead row were kept
            f2 = module((1, 1), (1, 1))
            entries = ((0, 0, 1, *y), (1, 0, -1, *x), (0, 1, 1, *y), (1, 1, 1, *x))
        d2 = Differential(entries)
        return replace(build_resolution(M_RIGHT, 2), modules=[f0, f1, f2], differentials=[d1, d2])

    @pytest.mark.parametrize("case", ["cancel", "double", "dead row"])
    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2), PrimeField(32003)], ids=str)
    def test_hand_built_blocks_match_reference(self, case, fld):
        res = self.hand_built(case)
        report = check_exactness(res, 1, 8, fld)
        assert report.checks == exactness_reference(res, 1, 8, fld)

    def test_doubled_cell_vanishes_only_over_f2(self):
        res = self.hand_built("double")
        passed = {}
        for fld in (ExactRationals(), PrimeField(2), PrimeField(32003)):
            passed[str(fld)] = [c.passed for c in check_exactness(res, 1, 8, fld).checks]
        assert passed["ExactRationals()"] == passed["PrimeField(p=32003)"] != passed["PrimeField(p=2)"]

    @pytest.mark.parametrize(
        "text", ["x2y,xy2", "xy2,y4", "x3,x2y2,xy3,y5", "x3,y7", "x2y3", "x3,y"], ids=str
    )
    def test_entry_order_does_not_change_the_report(self, text):
        res = build_resolution(parse_ideal(text), 7)
        rng = random.Random(7)

        def reorder(how):
            diffs = []
            for d in res.differentials:
                entries = list(d.entries)
                if how == "reverse":
                    entries.reverse()
                else:
                    rng.shuffle(entries)
                diffs.append(replace(d, entries=tuple(entries)))
            return replace(res, differentials=diffs)

        for fld in (ExactRationals(), PrimeField(2), PrimeField(32003)):
            expected = check_exactness(res, 6, 24, fld).to_json()
            assert expected["verdict"] == "pass"
            for how in ("reverse", "shuffle"):
                assert check_exactness(reorder(how), 6, 24, fld).to_json() == expected

    @staticmethod
    def chain(n, far_entry_first):
        """A resolution loaded from JSON whose d1 is one block: n columns
        x*e_j - x*e_{j+1} over n + 1 rows, all rows of bidegree (0, 0)."""
        data = resolution_to_json(build_resolution(M((2, 0), (0, 1)), 1))
        data["modules"] = [
            {"rank": rank, "generators": [{"label": "g", "bidegree": bideg}] * rank}
            for rank, bideg in ((n + 1, [0, 0]), (n, [1, 0]))
        ]
        entries = []
        for j in range(n):
            entries.append({"row": j, "col": j, "sign": 1, "monomial": [1, 0]})
            entries.append({"row": j + 1, "col": j, "sign": -1, "monomial": [1, 0]})
        if far_entry_first:
            entries.insert(0, entries.pop())
        data["differentials"] = [{"entries": entries}]
        return resolution_from_json(json.loads(json.dumps(data)))

    def test_entry_order_does_not_change_the_cost(self):
        # with the entry at the chain's far end first, relative bidegrees
        # derived from the entries alone spread one link per sweep: n
        # sweeps over 2n entries; read from the modules they cost one pass.
        # The cost is counted in Python steps, which repeat exactly, not timed
        steps, reports = {}, {}
        for far_entry_first in (False, True):
            res = self.chain(4000, far_entry_first)
            reports[far_entry_first], steps[far_entry_first] = python_steps(check_exactness, res, 0, 2)
        assert reports[True] == reports[False]
        assert steps[True] <= 5 * steps[False]

    @staticmethod
    def rising_chain(n):
        """A resolution loaded from JSON over (x^2, y) whose d1 is one block:
        column j, of bidegree (j+1, 0), is x*e_j - e_{j+1}, row j of
        bidegree (j, 0)."""
        data = resolution_to_json(build_resolution(M((2, 0), (0, 1)), 1))
        data["modules"] = [
            {"rank": rank, "generators": [{"label": "g", "bidegree": [j + shift, 0]} for j in range(rank)]}
            for rank, shift in ((n + 1, 0), (n, 1))
        ]
        entries = []
        for j in range(n):
            entries.append({"row": j, "col": j, "sign": 1, "monomial": [1, 0]})
            entries.append({"row": j + 1, "col": j, "sign": -1, "monomial": [0, 0]})
        data["differentials"] = [{"entries": entries}]
        return resolution_from_json(json.loads(json.dumps(data)))

    def test_cost_follows_the_alive_columns(self):
        # S has no standard monomial above degree 1, so in each degree at
        # most two columns of the chain are alive: four times the columns
        # and degrees must cost about four times as much, not sixteen.  The
        # cost is counted in Python steps, not timed
        steps = {n: python_steps(check_exactness, self.rising_chain(n), 0, n + 1)[1] for n in (1000, 4000)}
        assert steps[4000] <= 8 * steps[1000]

    def test_visits_the_alive_columns_alone(self, monkeypatch):
        # the count behind the timing above: in each degree _block_ranks
        # visits the sorted columns from bisect_left to bisect_right, 2n
        # in all on a chain of n columns, not n per degree
        visited = 0
        real_left, real_right = stairstep.oracle.bisect_left, stairstep.oracle.bisect_right

        def left(*args):
            nonlocal visited
            found = real_left(*args)
            visited -= found
            return found

        def right(*args):
            nonlocal visited
            found = real_right(*args)
            visited += found
            return found

        monkeypatch.setattr(stairstep.oracle, "bisect_left", left)
        monkeypatch.setattr(stairstep.oracle, "bisect_right", right)
        for n in (1000, 4000):
            visited = 0
            check_exactness(self.rising_chain(n), 0, n + 1)
            assert visited == 2 * n

    def test_cost_is_linear_in_the_window_without_pure_powers(self):
        # (x^2y, xy^2) holds no pure power, and each degree d >= 3 has two
        # standard monomials, x^d and y^d: a window four times as wide must
        # cost about four times as much, not sixteen.  The cost is counted
        # in Python steps, which repeat exactly, not timed
        res = build_resolution(M_RIGHT, 4)
        steps = {window: python_steps(check_exactness, res, 3, window)[1] for window in (1000, 4000)}
        assert steps[4000] <= 4.5 * steps[1000]

    def test_ten_times_the_exponents_cost_about_ten_times_as_much(self):
        # (x^k, x^3y^3, y^k) to stage 4 in its default window: S's Hilbert
        # function is summed from the corners and _standard_x walks one range
        # per corner, so the cost follows the window, 6k wide, and not the
        # k^2 cells below the staircase.  The cost is counted in Python
        # steps, which repeat exactly, not timed
        steps = {}
        for k in (100, 1000):
            ideal = M((k, 0), (3, 3), (0, k))
            report, steps[k] = python_steps(check_exactness, build_resolution(ideal, 5), 4, default_max_degree(ideal, 4))
            assert report.verdict
        assert steps[1000] <= 12 * steps[100]

    def test_a_ten_times_wider_window_enumerates_no_more_degrees(self, monkeypatch):
        # S's Hilbert function is b_1 + a_r = 2 from degree a_1 + b_r - 1 = 3
        # on, so _hilbert sums the numerator only that far, and block ranks
        # stop where they settle: _standard_x is called as often, and the
        # head values _spread reads count the same, at both windows, and
        # each report is the one pinned
        counts = Counter()
        standard_x = stairstep.oracle._standard_x
        spread = stairstep.oracle._spread

        def spy_spread(diff, lo, head, count):
            counts["head values"] += len(range(lo, len(diff))[: len(head)])
            spread(diff, lo, head, count)

        def spy_standard_x(ideal, d):
            found = standard_x(ideal, d)
            counts["calls"] += 1
            counts["exponents"] += len(found)
            return found

        res = build_resolution(M_RIGHT, 7)
        monkeypatch.setattr(stairstep.oracle, "_standard_x", spy_standard_x)
        monkeypatch.setattr(stairstep.oracle, "_spread", spy_spread)
        seen = []
        for window, digest in WIDE_REPORT_SHA256.items():
            counts.clear()
            report = check_exactness(res, 6, window)
            assert hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest() == digest
            seen.append(dict(counts))
        assert seen[0] == seen[1] and seen[0]["calls"] < 100
        assert 0 < seen[0]["head values"] < 1000


# json.dumps(check_exactness(build_resolution(M_RIGHT, 7), 6, window).to_json(),
# sort_keys=True), as computed when _dims read every degree of the window
WIDE_REPORT_SHA256 = {
    2000: "96fc8f88cd7445f5cb4995cac1d404451fd0a4ea646f062e9d29edf188c25896",
    20000: "27496fb1ebb24feb31561ff725eb2643c32f1aaa10fbbfccef1c92fea48c5e98",
}


class TestBruteforce:
    def test_golden_left(self):
        table = minimal_resolution_bruteforce(M_LEFT, 6, 12)
        assert table.entries[(4, 6)] == 4
        assert table.entries[(4, 7)] == 2
        assert table.entries[(4, 8)] == 1

    def test_golden_right(self):
        table = minimal_resolution_bruteforce(M_RIGHT, 6, 10)
        assert table.entries[(3, 4)] == 5

    def test_type_iii(self):
        table = minimal_resolution_bruteforce(M((1, 0), (0, 1)), 6, 10)
        assert table.entries == {(0, 0): 1}

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            minimal_resolution_bruteforce(M((5, 0), (0, 6)), 3, 4)

    def test_negative_stage_rejected(self):
        with pytest.raises(StageTooSmall, match=r"^need n >= 0$"):
            minimal_resolution_bruteforce(M_RIGHT, -1, 5)

    def test_std_top_is_the_highest_standard_degree(self):
        # (x^3, xy, y^3) has no standard monomial above xy's outer
        # corners x^2 and y^2, though x^3 and y^3 alone allow degree 4
        assert M((3, 0), (1, 1), (0, 3)).top == 2
        for ideal in exhaustive_corpus(6):
            gens = ideal.generators
            if gens[0].ydeg == 0 and gens[-1].xdeg == 0:
                top = 0
                while _standard_x(ideal, top + 1):
                    top += 1
                assert ideal.top == top, ideal

    def test_field_independence_sample(self):
        for ideal in [M_LEFT, M_RIGHT, M((3, 0), (0, 7)), M((2, 0), (1, 1), (0, 2))]:
            q = minimal_resolution_bruteforce(ideal, 5, 12, ExactRationals())
            p = minimal_resolution_bruteforce(ideal, 5, 12, PrimeField(101))
            assert q.entries == p.entries

    def test_agrees_with_engine_on_small_corpus(self):
        for ideal in exhaustive_corpus(2):
            engine = graded_betti(build_resolution(ideal, 5))
            oracle = minimal_resolution_bruteforce(ideal, 5, 12)
            assert compare_betti(engine, oracle).is_empty, str(ideal)

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=["Q", "F2"])
    @pytest.mark.parametrize("extra", [0, 10])
    @pytest.mark.parametrize("stages", range(4))
    @pytest.mark.parametrize(
        "text", ["x", "y", "x,y", "x2y3", "y5", "x3,y7", "x,y2", "x5,y", "x2y,xy2", "xy2,y4", "x6,x5y,x4y2,x3y3,x2y4,xy5"]
    )
    def test_stage_one_is_read_off_s(self, text, stages, extra, fld):
        # F_1 is S's degree-1 standard monomials: x and y in the main case,
        # one of them for (x), (y), (y^5), (x, y^2) and (x^5, y), none for
        # (x, y).  Stage 0 alone, stage 1 alone and the stages built on it
        # give the counted table, in the narrowest window and a wider one
        ideal = parse_ideal(text)
        window = ideal.max_generator_degree + extra
        counted = betti_table(ideal, stages).entries
        table = minimal_resolution_bruteforce(ideal, stages, window, fld)
        assert table.entries == {(i, d): n for (i, d), n in counted.items() if d <= window}


def bruteforce_reference(ideal, max_stage, max_degree, fld):
    """The oracle's Betti table the long way: the full nullspace of every
    slice, each kernel vector then reduced against the x- and y-shifts of
    the previous degree's kernel, and kept as a generator if it survives."""
    p = _modulus(fld)
    std = [[(m.xdeg, m.ydeg) for m in standard_monomials(ideal, n)] for n in range(max_degree + 1)]
    entries = {(0, 0): 1}
    twists, images = [0], None  # None marks the augmentation S -> k
    for stage in range(1, max_stage + 1):
        new_twists, new_gens = [], []
        prev_basis, prev_kernel = [], []
        for d in range(max_degree + 1):
            basis = [(g, x, y) for g, tw in enumerate(twists) if tw <= d for x, y in std[d - tw]]
            index = {key: i for i, key in enumerate(basis)}
            if images is None:
                kernel = [{i: 1} for i in range(len(basis))] if d else []
            else:
                rows, columns = {}, []
                for g, x, y in basis:
                    col = {}
                    for (tg, tx, ty), c in images[g].items():
                        if not ideal.contains_xy(x + tx, y + ty):
                            ri = rows.setdefault((tg, x + tx, y + ty), len(rows))
                            col[ri] = col.get(ri, 0) + c
                    columns.append(col)
                kernel = sparse_nullspace(columns, fld)
            pivots = {}
            for k in prev_kernel:
                for dx, dy in ((1, 0), (0, 1)):
                    vec = {}
                    for j, c in k.items():
                        g, x, y = prev_basis[j]
                        if (g, x + dx, y + dy) in index:  # else the shift lies in M
                            vec[index[g, x + dx, y + dy]] = c
                    _eliminate(vec, pivots, p)
            for k in kernel:
                vec = dict(k)
                if _eliminate(vec, pivots, p):
                    new_gens.append({basis[i]: c for i, c in vec.items()})
                    new_twists.append(d)
                    entries[(stage, d)] = entries.get((stage, d), 0) + 1
            prev_basis, prev_kernel = basis, kernel
        twists, images = new_twists, new_gens
    return BettiTable(entries, max_stage=max_stage, max_degree=max_degree)


@st.composite
def oracle_cases(draw):
    """(ideal, max_stage, max_degree): r <= 5, exponents <= 6, stages <= 5
    and max_degree <= 14."""
    r = draw(st.integers(1, 5))
    xs = draw(st.lists(st.integers(0, 6), min_size=r, max_size=r, unique=True))
    ys = draw(st.lists(st.integers(0, 6), min_size=r, max_size=r, unique=True))
    pairs = list(zip(sorted(xs, reverse=True), sorted(ys)))
    assume(pairs != [(0, 0)])
    ideal = M(*pairs)
    return ideal, draw(st.integers(1, 5)), draw(st.integers(ideal.max_generator_degree, 14))


class TestBruteforceComplement:
    """The oracle solves only for new syzygies, on the slice columns outside
    the pivots of the shifted span."""

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases(), st.sampled_from([ExactRationals(), PrimeField(2), PrimeField(32003)]))
    def test_tables_match_full_nullspace_reference(self, case, fld):
        ideal, max_stage, max_degree = case
        table = minimal_resolution_bruteforce(ideal, max_stage, max_degree, fld)
        assert table.entries == bruteforce_reference(ideal, max_stage, max_degree, fld).entries

    @pytest.mark.parametrize(
        "fld", [ExactRationals(), PrimeField(2), PrimeField(32003)], ids=["Q", "F2", "F32003"]
    )
    @pytest.mark.parametrize("text", ["xy2,y4", "x2y,xy2"])
    def test_wide_window_matches_full_nullspace_reference(self, text, fld):
        # neither ideal holds a power of x, so slices grow with the degree
        # and K_d keeps y-shifted pivots and x-shifted ones far beyond the
        # window the hypothesis cases reach.  Stage 2 comes first: a wrong
        # shift rule finds spurious generators there, whose own syzygies
        # would make the stage-7 run take minutes before it failed.
        ideal = parse_ideal(text)
        for stages in (2, 7):
            table = minimal_resolution_bruteforce(ideal, stages, 40, fld)
            assert table.entries == bruteforce_reference(ideal, stages, 40, fld).entries

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(32003)], ids=["Q", "F32003"])
    @pytest.mark.parametrize("text", ["x2y,xy2", "x3,x2y2,xy3,y5", "x6,x5y,x4y2,x3y3,x2y4,xy5"])
    def test_every_nullspace_vector_is_a_generator(self, monkeypatch, text, fld):
        vectors = []

        def spy(columns, f, **kw):
            null = sparse_nullspace(columns, f, **kw)
            vectors.extend(null)
            return null

        monkeypatch.setattr(stairstep.oracle, "sparse_nullspace", spy)
        table = minimal_resolution_bruteforce(parse_ideal(text), 6, 15, fld)
        generators = sum(v for (i, _d), v in table.entries.items() if i >= 2)
        assert generators > 0 and len(vectors) == generators


class TestBruteforceStops:
    """The oracle takes a nullspace only in a degree where rank-nullity
    leaves new syzygies, and ends each stage at the staircase bound."""

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(32003)], ids=["Q", "F32003"])
    @pytest.mark.parametrize("text", ["x2y,xy2", "xy2,y4", "x3,x2y2,xy3,y5"])
    def test_one_nullspace_per_table_entry(self, monkeypatch, text, fld):
        found = []

        def spy(columns, f, **kw):
            null = sparse_nullspace(columns, f, **kw)
            found.append(len(null))
            return null

        monkeypatch.setattr(stairstep.oracle, "sparse_nullspace", spy)
        ideal = parse_ideal(text)
        table = minimal_resolution_bruteforce(ideal, 6, default_max_degree(ideal, 6), fld)
        cells = [key for key in table.entries if key[0] >= 2]
        assert cells and len(found) == len(cells) and min(found) > 0

    def test_a_wider_window_eliminates_no_more(self, monkeypatch):
        # every generator of (x^2y, xy^2) through stage 6 lies in degree
        # <= 9, far below both windows
        calls = 0

        def spy(*args):
            nonlocal calls
            calls += 1
            return _eliminate(*args)

        monkeypatch.setattr(stairstep.oracle, "_eliminate", spy)
        counts, tables = [], []
        for window in (60, 6000):
            calls = 0
            tables.append(minimal_resolution_bruteforce(M_RIGHT, 6, window))
            counts.append(calls)
        assert counts[0] == counts[1] > 0
        assert tables[0].entries == tables[1].entries

    def test_nullspace_reads_no_column_after_its_limit(self):
        columns = [{0: 1}, {0: 2}, {1: 1}, {0: 3}, {2: 1}, {1: 5}]
        for limit, vectors, read in [(None, 3, 6), (2, 2, 4), (1, 1, 2), (0, 0, 0)]:
            seen = []

            def reading(seen=seen):
                for j, col in enumerate(columns):
                    seen.append(j)
                    yield col

            null = sparse_nullspace(reading(), ExactRationals(), limit=limit)
            assert (len(null), len(seen)) == (vectors, read)
            assert null == sparse_nullspace(columns, ExactRationals())[:vectors]

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2), PrimeField(32003)], ids=["Q", "F2", "F32003"])
    @pytest.mark.parametrize("text", ["x2y,xy2", "x3,x2y2,xy3,y5", "x6,x5y,x4y2,x3y3,x2y4,xy5", "x3,y7"])
    def test_each_nullspace_stops_at_its_count(self, monkeypatch, text, fld):
        # a vector found at column j combines j with earlier columns only,
        # so the highest column any vector holds is the last one needed
        calls = []

        def spy(columns, f, **kw):
            read = 0

            def counted():
                nonlocal read
                for col in columns:
                    read += 1
                    yield col

            null = sparse_nullspace(counted(), f, **kw)
            calls.append((kw.get("limit"), len(null), read, max(max(vec) for vec in null)))
            return null

        monkeypatch.setattr(stairstep.oracle, "sparse_nullspace", spy)
        ideal = parse_ideal(text)
        table = minimal_resolution_bruteforce(ideal, 6, default_max_degree(ideal, 6), fld)
        assert table.entries == bruteforce_reference(ideal, 6, default_max_degree(ideal, 6), fld).entries
        assert calls and all(found == limit and read == last + 1 for limit, found, read, last in calls), calls

    @pytest.mark.parametrize("text, stages", [("x,y2", range(2, 9)), ("xy", range(3, 9, 2))])
    def test_last_generator_lies_on_the_staircase_bound(self, text, stages):
        # stage i >= 2 ends at m_x + m_y + c, m_x and m_y the largest x- and
        # y-degrees of F_{i-1}'s generators; here its last generator lies
        # there, so a bound one lower would lose it
        ideal = parse_ideal(text)
        res = build_resolution(ideal, 8)
        table = minimal_resolution_bruteforce(ideal, 8, 60)
        assert compare_betti(graded_betti(res), table).is_empty
        g1, gr = ideal.generators[0], ideal.generators[-1]
        c = max(g1.xdeg + gr.ydeg - 2, g1.xdeg + g1.ydeg - 1, gr.xdeg + gr.ydeg - 1)
        for i in stages:
            gens = res.modules[i - 1].generators
            assert max(d for j, d in table.entries if j == i) == max(gens.dx) + max(gens.dy) + c

    @pytest.mark.parametrize("text", ["x2y,xy2", "xy2,y4", "x2y"])
    def test_each_stage_reads_s_through_its_bound(self, monkeypatch, text):
        # M holds no pure powers, so S has no top degree: stage 1 reads S
        # through degree 1 and stage i >= 2 through m_x + m_y + c.  A bound
        # past c changes no table, so only this test sees it
        reads = []

        def spy(ring, std, n):
            reads.append(n)
            return _std_x(ring, std, n)

        monkeypatch.setattr(stairstep.oracle, "_std_x", spy)
        ideal = parse_ideal(text)
        minimal_resolution_bruteforce(ideal, 6, 60)
        res = build_resolution(ideal, 6)
        g1, gr = ideal.generators[0], ideal.generators[-1]
        c = max(g1.xdeg + gr.ydeg - 2, g1.xdeg + g1.ydeg - 1, gr.xdeg + gr.ydeg - 1)
        bounds = [max(m.generators.dx) + max(m.generators.dy) + c for m in res.modules[1:6]]
        assert reads == [1] + bounds


def mirror(ideal: MonomialIdeal) -> MonomialIdeal:
    """M' = M with x and y swapped."""
    return M(*((g.ydeg, g.xdeg) for g in ideal.generators))


def mirror_resolution(res):
    """res with x and y swapped: over the mirror ring, with each
    generator's (dx, dy) and each entry's (xdeg, ydeg) swapped."""
    modules = [GradedFreeModule([(label, (dy, dx)) for label, (dx, dy) in m.generators]) for m in res.modules]
    diffs = [Differential([(row, col, sign, y, x) for row, col, sign, x, y in d.entries]) for d in res.differentials]
    return replace(res, ring=mirror(res.ring), modules=modules, differentials=diffs)


def bigraded_table(res) -> Counter:
    """(stage, xdeg, ydeg) -> the number of generators of that bidegree."""
    return Counter((i, x, y) for i, m in enumerate(res.modules) for x, y in zip(m.generators.dx, m.generators.dy))


MIRROR_IDEALS = exhaustive_corpus(4) + random_corpus(50, seed=0)


class TestMirror:
    """x <-> y as a second opinion: the brute force treats x-shifts and
    y-shifts by different rules, and its stage bound is symmetric under the
    swap, so M and its mirror M' must give one table, and the engine's
    bigraded tables of M and M' must be transposes."""

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=["Q", "F2"])
    def test_bruteforce_tables_of_mirrors_are_equal_on_exhaustive_corpus(self, fld):
        for ideal in exhaustive_corpus(4):
            window = 3 * ideal.max_generator_degree + 12
            table = minimal_resolution_bruteforce(ideal, 6, window, fld)
            assert table.entries == minimal_resolution_bruteforce(mirror(ideal), 6, window, fld).entries, str(ideal)

    @settings(max_examples=40, deadline=None)
    @given(oracle_cases(), st.sampled_from([ExactRationals(), PrimeField(2)]))
    def test_bruteforce_tables_of_mirrors_are_equal(self, case, fld):
        ideal, stages, _window = case
        window = 3 * ideal.max_generator_degree + 12
        table = minimal_resolution_bruteforce(ideal, stages, window, fld)
        assert table.entries == minimal_resolution_bruteforce(mirror(ideal), stages, window, fld).entries

    def test_engine_bigraded_tables_are_transposes_on_exhaustive_corpus(self):
        for ideal in exhaustive_corpus(4):
            table = bigraded_table(build_resolution(ideal, 7))
            mirrored = bigraded_table(build_resolution(mirror(ideal), 7))
            assert mirrored == Counter({(i, y, x): n for (i, x, y), n in table.items()}), str(ideal)

    @settings(max_examples=40, deadline=None)
    @given(oracle_cases())
    def test_engine_bigraded_tables_are_transposes(self, case):
        ideal = case[0]
        table = bigraded_table(build_resolution(ideal, 7))
        mirrored = bigraded_table(build_resolution(mirror(ideal), 7))
        assert mirrored == Counter({(i, y, x): n for (i, x, y), n in table.items()})

    @pytest.mark.parametrize("fld", [ExactRationals(), PrimeField(2)], ids=["Q", "F2"])
    def test_exactness_records_of_mirrored_resolutions_are_equal(self, fld):
        for ideal in MIRROR_IDEALS:
            res = build_resolution(ideal, 8)
            window = max(20, ideal.max_generator_degree)
            mirrored = check_exactness(mirror_resolution(res), 7, window, fld)
            assert mirrored.checks == check_exactness(res, 7, window, fld).checks, str(ideal)

    @settings(max_examples=60, deadline=None)
    @given(staircases(6, 12), st.booleans(), st.randoms(use_true_random=False), st.sampled_from([ExactRationals(), PrimeField(2)]))
    def test_records_of_mirrored_staircases_are_equal(self, ideal, flip, rng, fld):
        # exponents up to 12, past the corpus's; half the examples flip one
        # sign, in a map and at an entry the seeded rng picks ((x, y) has none)
        res = build_resolution(ideal, 8)
        if flip and (maps := [i for i, d in enumerate(res.differentials) if d.entries]):
            i = rng.choice(maps)
            res = mutate(res, i + 1, "flip_sign", rng.randrange(len(res.differentials[i].entries)))
        mirrored, window = mirror_resolution(res), max(20, ideal.max_generator_degree)
        assert check_exactness(mirrored, 7, window, fld).checks == check_exactness(res, 7, window, fld).checks
        assert check_complex(mirrored).checks == check_complex(res).checks

    def test_a_sign_flip_in_d3_and_its_mirror_fail_alike(self):
        # the flip breaks d2 d3 = 0 on most ideals but keeps every block's
        # rank, so check_complex fails and check_exactness's records stay
        rng = random.Random(3)
        failed = 0
        for ideal in MIRROR_IDEALS:
            res = build_resolution(ideal, 8)
            if not res.differentials[2].entries:
                continue
            flipped = mutate(res, 3, "flip_sign", rng.randrange(len(res.differentials[2].entries)))
            mirrored, window = mirror_resolution(flipped), max(20, ideal.max_generator_degree)
            exactness = check_exactness(flipped, 7, window)
            assert check_exactness(mirrored, 7, window).checks == exactness.checks, str(ideal)
            passed = [c.passed for c in check_complex(flipped).checks]
            assert [c.passed for c in check_complex(mirrored).checks] == passed, str(ideal)
            failed += not all(passed)
        assert failed > 150


class TestCompareBetti:
    def test_mismatch_reported(self):
        fib = BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 3}, max_stage=2)
        other = BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 4}, max_stage=2)
        diff = compare_betti(fib, other)
        assert diff.mismatches == ((2, 2, 3, 4),)

    def test_window_respected(self):
        a = BettiTable({(0, 0): 1, (7, 9): 5}, max_stage=7)
        b = BettiTable({(0, 0): 1}, max_stage=3)
        assert compare_betti(a, b).is_empty


@pytest.fixture
def swapped_f2(monkeypatch):
    """The engine with each F2 generator at (bx + dy, by + dx) instead of
    (bx + dx, by + dy): every total degree, entry and Betti number stays
    as it was, only the bigrading is wrong."""
    real = stairstep.resolution._main_rule

    def rule(gens):
        offsets, templates, children = real(gens)
        # the F2 generator offsets only: the bases G of later F2s stay
        return {**offsets, "F2": tuple((dy, dx) for dx, dy in offsets["F2"])}, templates, children

    monkeypatch.setattr(stairstep.resolution, "_main_rule", rule)


class TestBidegrees:
    """Entries must match the bigrading, not only the total degrees."""

    @pytest.mark.parametrize("text", ["x3,x2y2,xy3,y5", "x2y,xy2"])
    def test_swapped_f2_bidegrees_fail(self, swapped_f2, text):
        res = build_resolution(parse_ideal(text), 8)
        loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
        for r in (res, loaded):
            # the total-degree checks cannot see it
            assert check_complex(r).verdict and check_minimality(r).verdict
            assert _entry_fault(r, 2).endswith("is not homogeneous")
            exactness = check_exactness(r, 7, 30).failures()
            assert [(c.kind, c.stage, c.degree) for c in exactness] == [("exactness", 2, None)]
            assert "is not homogeneous" in exactness[0].detail
            homogeneity = check_homogeneity(r).failures()
            assert [c.stage for c in homogeneity] == list(range(2, 9))  # into or out of an F2
            assert homogeneity[0].detail == exactness[0].detail

    @pytest.mark.parametrize(
        "argv, last",
        [
            (("verify", "x3,x2y2,xy3,y5", "--stages", "8"), "verdict: fail"),
            (("verify", "x2y,xy2", "--stages", "8"), "verdict: fail"),
            (("oracle", "x3,x2y2,xy3,y5", "--stages", "6"), "engine agreement: fail"),
            (("oracle", "x2y,xy2", "--stages", "6", "--field", "p:32003"), "engine agreement: fail"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_cli_fails_on_swapped_f2(self, swapped_f2, capsys, argv, last):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert (code, out.splitlines()[-1]) == (1, last)
        if argv[0] == "oracle":
            assert "FAIL homogeneity at stage 2: entry" in out
            assert "MISMATCH" not in out

    def test_oracle_json_reports_homogeneity(self, swapped_f2, capsys):
        assert cli_main(["oracle", "x2y,xy2", "--stages", "4", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert (data["match"], data["homogeneous"]) == (True, False)


# One ideal per construction regime.
REGIMES = ["x2y,xy2", "xy2,y4", "x", "x2y3", "x,y", "x3,y", "x3,y7"]


def _parts(res) -> list:
    """Every object a resolution's modules and maps reach, except types,
    the ring and strings (a loaded module keeps the file's labels)."""
    found, seen, stack = [], set(), [res.modules, res.differentials]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, MonomialIdeal, str)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("text", REGIMES)
def test_resolution_holds_no_object_per_entry_or_generator(text):
    """Built or loaded from JSON, a resolution keeps its entries and
    bidegrees in int arrays and no label per generator: it reaches a few
    objects of each type per stage, and the collector tracks no tuple."""
    res = build_resolution(parse_ideal(text), 8)
    loaded = resolution_from_json(json.loads(json.dumps(resolution_to_json(res))))
    for r in (res, loaded):
        # a tuple of strings is untracked by a collection, and a tuple of
        # such tuples by the next
        gc.collect()
        gc.collect()
        parts = _parts(r)
        kinds = Counter(type(obj).__name__ for obj in parts)
        assert max(kinds.values()) <= 3 * len(r.modules), kinds
        assert not any(gc.is_tracked(obj) for obj in parts if isinstance(obj, tuple))


def test_deep_resolution_is_held_in_arrays():
    """(x^9,x^8y^3,x^7y^4,x^6y^5,xy^6,y^8) to stage 10: 45,019 entries of
    five ints and 37,051 generators of two, with no label stored.  The
    build peaks at 1.59 times what it holds after, below 1.7: the last
    stage's entry array is made once, not also as a zero bytes object to
    copy from."""
    ideal = parse_ideal("x9,x8y3,x7y4,x6y5,xy6,y8")
    gc.collect()
    tracemalloc.start()
    try:
        res = build_resolution(ideal, 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(d.entries) for d in res.differentials) == 45019
    assert sum(m.rank for m in res.modules) == 37051
    assert held <= 4_000_000
    assert peak <= 1.7 * held, (peak, held)
