from __future__ import annotations

import gc
import hashlib
import json
import random
import re
from collections import namedtuple
from dataclasses import fields, replace
from operator import add

import pytest

from conftest import M, M_LEFT, M_RIGHT, exhaustive_corpus, random_corpus, with_map
from stairstep import (
    Differential,
    IdealClass,
    Monomial,
    Resolution,
    build_resolution,
    check_complex,
    check_homogeneity,
    check_minimality,
    classify,
    parse_ideal,
    resolution_from_json,
    resolution_to_json,
)
from stairstep.oracle import _composite
from stairstep.resolution import _main_rule


def decomposition(res):
    """The (stage, u, v, w) block totals the JSON form derives."""
    return [(d["stage"], d["u"], d["v"], d["w"]) for d in resolution_to_json(res)["decomposition"]]


class TestLowStages:
    def test_d1(self):
        for ideal in (M_LEFT, M_RIGHT):
            assert build_resolution(ideal, 1).dense_strings(1) == [["x", "y"]]

    def test_d2_case1(self):
        assert build_resolution(M_RIGHT, 2).dense_strings(2) == [
            ["x*y", "y^2", "-y"],
            ["0", "0", "x"],
        ]

    def test_d2_case2(self):
        assert build_resolution(M_LEFT, 2).dense_strings(2) == [
            ["y^2", "0", "-y"],
            ["0", "y^3", "x"],
        ]

    def test_d2_twists(self):
        f2 = build_resolution(M_RIGHT, 2).modules[2]
        assert list(zip(f2.generators.dx, f2.generators.dy)) == [(2, 1), (1, 2), (1, 1)]

    def test_d3_case1(self):
        assert build_resolution(M_RIGHT, 3).dense_strings(3) == [
            ["x", "0", "y", "0", "0"],
            ["0", "x", "0", "y", "0"],
            ["0", "0", "x*y", "y^2", "x*y"],
        ]

    def test_d3_case2(self):
        assert build_resolution(M_LEFT, 3).dense_strings(3) == [
            ["x", "0", "y", "0", "0"],
            ["0", "x", "0", "y", "0"],
            ["0", "-y^3", "y^2", "0", "y^3"],
        ]

    def test_d3_twists(self):
        f3 = build_resolution(M_RIGHT, 3).modules[3]
        # S(-a_i-b_i-1)^2 for each generator plus S(-a_i-b_{i+1})
        assert sorted(map(add, f3.generators.dx, f3.generators.dy)) == [4, 4, 4, 4, 4]
        f3 = build_resolution(M_LEFT, 3).modules[3]
        assert sorted(map(add, f3.generators.dx, f3.generators.dy)) == [4, 4, 5, 5, 5]

    def test_d4_case1(self):
        res = build_resolution(M_RIGHT, 4)
        (_stage, u, v, w) = decomposition(res)[0]
        assert (u, v, w) == (1, 2, 0)
        # F1 block on d_1, then the two k-blocks over (c_j^x, c_j^y)
        assert res.dense_strings(4) == [
            ["0", "0", "x*y", "y^2", "-y", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "x*y", "y^2", "-y"],
            ["0", "0", "0", "0", "x", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "0", "0", "x"],
            ["x", "y", "0", "0", "0", "0", "0", "0"],
        ]

    def test_d4_case2_column(self):
        grid = build_resolution(M_LEFT, 4).dense_strings(4)
        # k-block for j=1: column i=r is y^{b_r-1} * e_{c_1^y}
        assert grid[2][3] == "y^3"
        assert grid[0][3] == "0"

    def test_rank_formulas(self):
        for ideal in exhaustive_corpus(3):
            if not classify(ideal).is_main:
                continue
            r = ideal.num_generators
            assert build_resolution(ideal, 2).modules[2].rank == r + 1
            assert build_resolution(ideal, 3).modules[3].rank == 3 * r - 1
            res = build_resolution(ideal, 4)
            (_stage, u, v, w) = decomposition(res)[0]
            assert (u, v, w) == (r - 1, r, 0)
            assert res.modules[4].rank == 2 * (r - 1) + (r + 1) * r


class TestMainRecursion:
    def test_fibonacci_ranks(self):
        for ideal in (M_LEFT, M_RIGHT):
            res = build_resolution(ideal, 6)
            assert res.total_betti_numbers() == [1, 2, 3, 5, 8, 13, 21]

    def test_r3_ranks(self):
        res = build_resolution(M((2, 0), (1, 1), (0, 2)), 5)
        assert res.total_betti_numbers() == [1, 2, 4, 8, 16, 32]

    def test_decomposition_recursion(self):
        res = build_resolution(M_RIGHT, 8)
        dec = {stage: (u, v, w) for stage, u, v, w in decomposition(res)}
        assert dec[4] == (1, 2, 0)
        assert dec[5] == (0, 1, 2)
        r = 2
        for stage in range(5, 9):
            u, v, w = dec[stage - 1]
            assert dec[stage] == ((r - 1) * w, u + r * w, v)

    def test_rank_matches_decomposition(self):
        for ideal in (M_LEFT, M((3, 0), (2, 2), (1, 3))):
            res = build_resolution(ideal, 9)
            r = ideal.num_generators
            for stage, u, v, w in decomposition(res):
                assert res.modules[stage].rank == 2 * u + (r + 1) * v + (3 * r - 1) * w

    def test_rank_recursions(self):
        for ideal in exhaustive_corpus(3):
            if not classify(ideal).is_main:
                continue
            res = build_resolution(ideal, 8)
            ranks = res.total_betti_numbers()
            r = ideal.num_generators
            for i in range(2, 9):
                assert ranks[i] == ranks[i - 1] + (r - 1) * ranks[i - 2]
            for i in range(4, 9):
                assert ranks[i] == r * ranks[i - 2] + (r - 1) * ranks[i - 3]


class Affine:
    """An affine form const + sum(coef * symbol) in symbols that range over
    the ints >= 0.  It has + and -, and the one comparison the main-case
    split makes, >=, answered only where it holds everywhere or nowhere."""

    def __init__(self, const=0, coefs=None):
        self.const = const
        self.coefs = {s: c for s, c in (coefs or {}).items() if c}

    def __add__(self, other):
        other = other if isinstance(other, Affine) else Affine(other)
        coefs = dict(self.coefs)
        for s, c in other.coefs.items():
            coefs[s] = coefs.get(s, 0) + c
        return Affine(self.const + other.const, coefs)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.const, {s: -c for s, c in self.coefs.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __ge__(self, other):
        gap = self - other
        if gap.const >= 0 and all(c > 0 for c in gap.coefs.values()):
            return True
        if gap.const < 0 and all(c < 0 for c in gap.coefs.values()):
            return False
        raise ValueError(f"the sign of {gap.const} + {gap.coefs} is not fixed")

    def at(self, values: dict) -> int:
        return self.const + sum(c * values[s] for s, c in self.coefs.items())


Gen = namedtuple("Gen", "xdeg ydeg")  # a generator whose exponents may be affine forms


def gap_floors(r: int, case: int) -> tuple[int, int]:
    """The least a_r and b_1 of a main-case ideal: a_r >= 1 in case 1,
    a_r = 0 in case 2, where b_1 >= 1 when r = 2 (classify)."""
    return (1, 0) if case == 1 else (0, 1 if r == 2 else 0)


def symbolic_generators(r: int, case: int) -> list[Gen]:
    """The generators of every main-case ideal with r generators, in gap
    coordinates: a_r = floor + u, a_i = a_{i+1} + 1 + g_i, b_1 = floor + v
    and b_{i+1} = b_i + 1 + h_i, every symbol >= 0 (u is 0 in case 2)."""
    a_floor, b_floor = gap_floors(r, case)
    a = [Affine(a_floor, {"u": 1} if case == 1 else {})]
    b = [Affine(b_floor, {"v": 1})]
    for i in range(r - 1):
        a.insert(0, a[0] + 1 + Affine(0, {f"g{r - 2 - i}": 1}))
        b.append(b[-1] + 1 + Affine(0, {f"h{i}": 1}))
    return [Gen(x, y) for x, y in zip(a, b)]


def gap_values(ideal) -> dict[str, int]:
    """The symbols of :func:`symbolic_generators` at a main-case ideal."""
    a, b = [g.xdeg for g in ideal.generators], [g.ydeg for g in ideal.generators]
    r, case = len(a), 1 if a[-1] >= 1 else 2
    a_floor, b_floor = gap_floors(r, case)
    values = {"u": a[-1] - a_floor, "v": b[0] - b_floor}
    for i in range(r - 1):
        values[f"g{i}"] = a[i] - a[i + 1] - 1
        values[f"h{i}"] = b[i + 1] - b[i] - 1
    assert min(values.values()) >= 0
    return values


def evaluated(rule, values: dict):
    """The rule with each affine form replaced by its value."""
    if isinstance(rule, dict):
        return {key: evaluated(v, values) for key, v in rule.items()}
    if isinstance(rule, tuple):
        return tuple(evaluated(v, values) for v in rule)
    return rule.at(values) if isinstance(rule, Affine) else rule


class TestMainRuleIsAffine:
    """_main_rule meets the exponents only with + and - and the case
    split's one comparison, so it runs on affine forms: run once per r
    and case, it is the rule of every main-case ideal of that shape."""

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("r", range(2, 7))
    def test_symbolic_rule_evaluates_to_each_ideals_rule(self, r, case):
        symbolic = _main_rule(symbolic_generators(r, case))
        slug = f"main-case-{case}"
        ideals = [
            ideal
            for ideal in exhaustive_corpus(4) + random_corpus(50, seed=0)
            if ideal.num_generators == r and classify(ideal).slug == slug
        ]
        assert ideals
        for ideal in ideals:
            assert evaluated(symbolic, gap_values(ideal)) == _main_rule(ideal.generators)

    def test_a_comparison_the_split_does_not_make_is_refused(self):
        a_r = symbolic_generators(3, 1)[-1].xdeg
        assert a_r >= 1
        with pytest.raises(ValueError):
            _ = a_r >= 2
        with pytest.raises(TypeError):
            max(a_r - 1, 0)


class TestStructuralInvariants:
    @pytest.mark.parametrize("ideal", exhaustive_corpus(3), ids=str)
    def test_complex_homogeneous_minimal(self, ideal):
        res = build_resolution(ideal, 7)
        assert res.modules[0].rank == 1
        assert list(zip(res.modules[0].generators.dx, res.modules[0].generators.dy)) == [(0, 0)]
        assert check_homogeneity(res).verdict
        assert check_minimality(res).verdict
        assert check_complex(res).verdict

    @pytest.mark.parametrize("ideal", [M_LEFT, M_RIGHT, M((4, 0), (2, 1), (1, 3), (0, 4))], ids=str)
    def test_labels_unique(self, ideal):
        res = build_resolution(ideal, 9)
        for module in res.modules:
            labels = [str(lbl) for lbl, _ in module.generators]
            assert len(labels) == len(set(labels))


class TestDegenerate:
    def test_type_iii_terminates(self):
        res = build_resolution(M((1, 0), (0, 1)), 5)
        assert res.total_betti_numbers() == [1, 0, 0, 0, 0, 0]

    def test_type_i(self):
        res = build_resolution(M((1, 0)), 4)
        assert res.total_betti_numbers() == [1, 1, 0, 0, 0]
        # x is zero in S = k[x,y]/(x); the map must use the surviving variable
        assert res.dense_strings(1) == [["y"]]
        res = build_resolution(M((0, 1)), 2)
        assert res.dense_strings(1) == [["x"]]

    def test_type_iv_alternation(self):
        res = build_resolution(M((3, 0), (0, 1)), 6)
        grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
        assert grids[0] == [["x"]]
        assert grids[1] == [["x^2"]]
        for i in range(2, 6):
            assert grids[i] == grids[i - 2]

    def test_type_iv_a2_both_maps_x(self):
        res = build_resolution(M((2, 0), (0, 1)), 4)
        for i in range(1, 5):
            assert res.dense_strings(i) == [["x"]]

    def test_type_ii_matrices(self):
        res = build_resolution(M((2, 3)), 8)
        grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
        assert grids[0] == [["x", "y"]]
        assert grids[1] == [["-y", "x*y^3"], ["x", "0"]]
        assert grids[2] == [["x*y^3", "0"], ["y", "x"]]
        assert grids[3] == [["-x", "0"], ["y", "-x*y^3"]]
        for i in range(4, 8):
            assert grids[i] == grids[i - 2]

    def test_type_ii_pure_power_swaps(self):
        res = build_resolution(M((0, 3)), 4)
        grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
        assert grids[1] == [["-x", "y^2"], ["y", "0"]]

    def test_type_v_printed_matrices(self):
        res = build_resolution(M((3, 0), (0, 7)), 4)
        grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
        assert grids[0] == [["x", "y"]]
        assert grids[1] == [["x^2", "0", "-y"], ["0", "y^6", "x"]]
        assert grids[2] == [
            ["x", "0", "-y", "0"],
            ["0", "y", "0", "x"],
            ["0", "0", "-x^2", "-y^6"],
        ]

    def test_type_v_ranks(self):
        res = build_resolution(M((2, 0), (0, 2)), 10)
        assert res.total_betti_numbers() == list(range(1, 12))

    def test_type_v_coefficient_identity(self):
        res = build_resolution(M((3, 0), (0, 7)), 10)

        def coeff(i, col):  # the exponents of column col's one entry in d_i
            ((x, y),) = [(x, y) for _row, c, _sign, x, y in res.differentials[i - 1].entries if c == col]
            return x, y

        for i in range(3, 11):
            assert tuple(map(add, coeff(i, 0), coeff(i - 1, 0))) == (3, 0)
            assert tuple(map(add, coeff(i, 1), coeff(i - 1, 1))) == (0, 7)

    def test_type_v_complex(self):
        res = build_resolution(M((3, 0), (0, 7)), 8)
        assert check_complex(res).verdict


class TestDispatchAndJson:
    def test_build_resolution_dispatch(self):
        assert build_resolution(M_RIGHT, 3).ideal_class is IdealClass.MAIN_CASE_1
        assert build_resolution(M((3, 0), (0, 7)), 3).ideal_class is IdealClass.TYPE_V

    def test_json_round_trip(self):
        for ideal in (M_RIGHT, M((3, 0), (0, 7)), M((1, 0))):
            res = build_resolution(ideal, 6)
            data = json.loads(json.dumps(resolution_to_json(res)))
            res2 = resolution_from_json(data)
            assert res2.ring == res.ring
            assert res2.ideal_class is res.ideal_class
            assert [m.rank for m in res2.modules] == [m.rank for m in res.modules]
            for a, b in zip(res2.differentials, res.differentials):
                assert a.entries == b.entries

    def test_json_class_must_match_the_ideal(self):
        data = json.loads(json.dumps(resolution_to_json(build_resolution(M((3, 0), (0, 7)), 6))))
        data["class"] = "main-case-2"
        with pytest.raises(ValueError, match="'main-case-2'.*'type-5'"):
            resolution_from_json(data)

    def test_json_schema_fields(self):
        data = resolution_to_json(build_resolution(M_RIGHT, 5))
        assert data["ideal"] == [[2, 1], [1, 2]]
        assert data["class"] == "main-case-1"
        assert data["modules"][0] == {
            "rank": 1,
            "generators": [{"label": "e1", "bidegree": [0, 0]}],
        }
        entry = data["differentials"][0]["entries"][0]
        assert set(entry) == {"row", "col", "sign", "monomial"}
        assert data["decomposition"][0] == {"stage": 4, "u": 1, "v": 2, "w": 0}


class TestOneRepresentation:
    """A resolution is its modules and maps; everything else is derived."""

    def test_three_fields(self):
        assert [f.name for f in fields(Resolution)] == ["ring", "modules", "differentials"]

    def test_a_map_is_its_entries(self):
        # d_i's shape F_i -> F_{i-1} and its ring are the resolution's
        assert [f.name for f in fields(Differential)] == ["entries"]

    def test_ideal_class_is_read_off_the_ring(self):
        res = build_resolution(M_RIGHT, 3)
        assert res.ideal_class is IdealClass.MAIN_CASE_1
        assert replace(res, ring=M((3, 0), (0, 7))).ideal_class is IdealClass.TYPE_V

    def test_build_leaves_few_tracked_objects(self):
        # the engine's block lists are dropped with the builder; only the
        # resolution's containers stay tracked, not one object per block
        ideal = parse_ideal("x6,x5y,x4y2,x3y3,x2y4,xy5")
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        res = build_resolution(ideal, 10)
        gc.collect()
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert sum(m.rank for m in res.modules) == 37051

    @pytest.mark.parametrize("text", ["x2y,xy2", "x3,x2y2,xy3,y5", "x3,y7"])
    def test_json_decomposition_is_derived_on_output(self, text):
        res = build_resolution(parse_ideal(text), 7)
        dumped = json.dumps(resolution_to_json(res))
        data = json.loads(dumped)
        data["decomposition"] = [{"stage": 4, "u": 99, "v": 0, "w": 7}]
        assert json.dumps(resolution_to_json(resolution_from_json(data))) == dumped


@pytest.mark.parametrize("text", ["x3,x2y2,xy3,y5", "xy2,y4", "x3,y7", "x2y3", "x3,y"])
def test_json_reload_keeps_labels_and_rejects_negative_exponents(text):
    res = build_resolution(parse_ideal(text), 7)
    dumped = json.dumps(resolution_to_json(res))
    loaded = resolution_from_json(json.loads(dumped))
    assert [m.generators for m in loaded.modules] == [m.generators for m in res.modules]
    assert json.dumps(resolution_to_json(loaded)) == dumped
    for var in (0, 1):  # a negative x-exponent, then a negative y-exponent
        data = json.loads(dumped)
        mono = data["differentials"][-1]["entries"][0]["monomial"]
        mono[var] = -1
        with pytest.raises(ValueError, match=re.escape(f"negative exponent in {tuple(mono)}")):
            resolution_from_json(data)


def test_json_reload_reads_the_sign_byte_of_each_exponent():
    # the rule reads one byte of each exponent, its int64's top byte: the
    # low byte of 200 is above 127, and that of -256 is 0
    dumped = json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4)))
    for var in (0, 1):  # the x-exponents, then the y-exponents
        data = json.loads(dumped)
        entries = data["differentials"][3]["entries"]
        entries[7]["monomial"][var] = 200
        resolution_from_json(data)  # not homogeneous, but within the loader's rule
        entries[2]["monomial"][var] = -256
        row, col, mono = entries[2]["row"], entries[2]["col"], tuple(entries[2]["monomial"])
        message = f"entry ({row}, {col}) of d4 has a negative exponent in {mono}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolution_from_json(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("row", 99, "entry (99, 0) of d2 is outside its 2x3 matrix"),
        ("row", -1, "entry (-1, 0) of d2 is outside its 2x3 matrix"),
        ("col", -1, "entry (0, -1) of d2 is outside its 2x3 matrix"),
        ("col", 3, "entry (0, 3) of d2 is outside its 2x3 matrix"),
    ],
)
def test_json_reload_rejects_entries_outside_their_matrix(field, value, message):
    # left unchecked, a row of 99 loads and crashes the checks with
    # IndexError, and a col of -1 wraps to the last column
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    entry = data["differentials"][1]["entries"][0]
    assert (entry["row"], entry["col"]) == (0, 0)
    entry[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        resolution_from_json(data)


@pytest.mark.parametrize("sign", [0, 2, -3])
def test_json_reload_rejects_a_sign_other_than_one_or_minus_one(sign):
    # left unchecked, a sign of 3 loads, passes check_complex,
    # check_minimality and check_exactness over Q, and prints unsigned
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    entries = data["differentials"][1]["entries"]
    entries[-1]["sign"] = sign
    row, col = entries[-1]["row"], entries[-1]["col"]
    message = f"entry ({row}, {col}) of d2 has sign {sign}, not 1 or -1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resolution_from_json(data)


@pytest.mark.parametrize("faults", [4, 3, 2, 1])
def test_json_reload_names_the_faults_of_one_map_in_the_rules_order(faults):
    # the last ``faults`` of four faults in d2, each kind in an earlier
    # entry than the kind named before it: a value that is not an int is
    # named first, then a place outside the matrix, then a sign, then a
    # negative exponent
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    entries = data["differentials"][1]["entries"]
    r0, c0, (_x0, y0) = entries[0]["row"], entries[0]["col"], entries[0]["monomial"]
    r1, c1 = entries[1]["row"], entries[1]["col"]
    kinds = [  # (entry, field, value, message), in the order they are named
        (3, "sign", 1.5, "sign of d2 entry 3 is 1.5, not an int"),
        (2, "row", 99, f"entry (99, {entries[2]['col']}) of d2 is outside its 2x3 matrix"),
        (1, "sign", 2, f"entry ({r1}, {c1}) of d2 has sign 2, not 1 or -1"),
        (0, "monomial", [-1, y0], f"entry ({r0}, {c0}) of d2 has a negative exponent in {(-1, y0)}"),
    ][-faults:]
    for k, field, value, _message in kinds:
        entries[k][field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(kinds[0][3])}$"):
        resolution_from_json(data)


@pytest.mark.parametrize("rank", [2, 7, "abc", None])
def test_json_reload_rejects_a_rank_other_than_the_generator_count(rank):
    # left unchecked, a module of 3 generators loads with any "rank"
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    assert data["modules"][2]["rank"] == len(data["modules"][2]["generators"]) == 3
    data["modules"][2]["rank"] = rank
    message = f"F2 has rank {rank!r} but 3 generators"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resolution_from_json(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("differentials", 1, "entries", 0, "row"), 0.0, "row of d2 entry 0 is 0.0, not an int"),
        (("differentials", 1, "entries", 2, "col"), 2.0, "col of d2 entry 2 is 2.0, not an int"),
        (("differentials", 1, "entries", 1, "sign"), True, "sign of d2 entry 1 is True, not an int"),
        (("differentials", 2, "entries", 0, "monomial", 0), 2.5, "monomial[0] of d3 entry 0 is 2.5, not an int"),
        (("differentials", 0, "entries", 1, "monomial", 1), 1.0, "monomial[1] of d1 entry 1 is 1.0, not an int"),
        (("modules", 2, "generators", 1, "bidegree", 1), 2.0, "bidegree[1] of F2 generator 1 is 2.0, not an int"),
        (("modules", 0, "rank"), True, "F0 has rank True but 1 generators"),
        (("ideal", 1, 0), 1.0, "x-exponent of ideal generator 1 is 1.0, not an int"),
        (("differentials", 3, "entries", 4, "row"), "0", "row of d4 entry 4 is '0', not an int"),
        (("differentials", 1, "entries", 0, "monomial", 1), None, "monomial[1] of d2 entry 0 is None, not an int"),
    ],
)
def test_json_reload_rejects_values_that_are_not_ints(path, value, message):
    # a float, a string or null raised TypeError, and True loaded as 1
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    *parents, key = path
    target = data
    for step in parents:
        target = target[step]
    assert type(target[key]) is int
    target[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resolution_from_json(data)


DELETE = object()  # a value that removes its key


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("differentials", 1, "entries", 2, "monomial"), [1], "monomial of d2 entry 2 is [1], not two ints"),
        (("differentials", 1, "entries", 2, "monomial"), [1, 0, 0], "monomial of d2 entry 2 is [1, 0, 0], not two ints"),
        (("modules", 1, "generators", 0, "bidegree"), [1], "bidegree of F1 generator 0 is [1], not two ints"),
        (("ideal", 0), [1], "monomial of ideal generator 0 is [1], not two ints"),
        (("differentials", 1, "entries", 2, "sign"), DELETE, "sign of d2 entry 2 is missing"),
        (("modules", 1, "generators", 0, "label"), DELETE, "label of F1 generator 0 is missing"),
        (("class",), DELETE, "class of the file is missing"),
        (("differentials", 1, "entries"), 5, "entries of d2 is 5, not a list"),
        (("modules", 1, "generators", 0, "label"), 5, "label of F1 generator 0 is 5, not a string"),
        (("modules", 1, "generators"), "", "generators of F1 is '', not a list"),
        (("modules", 2), [], "F2 is [], not an object"),
        (("differentials", 0), "d1", "d1 is 'd1', not an object"),
    ],
)
def test_json_reload_names_every_malformed_shape(path, value, message):
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    # a shape fault is named before an int fault in an earlier entry of its map
    data["differentials"][1]["entries"][0]["row"] = 0.5
    *parents, key = path
    target = data
    for step in parents:
        target = target[step]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resolution_from_json(data)


@pytest.mark.parametrize("data", [[], "", None])
def test_json_reload_rejects_a_file_that_is_not_an_object(data):
    with pytest.raises(ValueError, match=f"^{re.escape(f'the file is {data!r}, not an object')}$"):
        resolution_from_json(data)


@pytest.mark.parametrize("text", ["x3,x2y2,xy{e}", "x{e},y", "x{e}y"])
def test_bidegrees_beyond_64_bits_are_a_value_error(text):
    # the main case, the Kunneth product and type II each store a bidegree
    # or an exponent of about 2^63
    ideal = parse_ideal(text.format(e=2**63))
    with pytest.raises(ValueError, match="do not fit in 64 bits"):
        build_resolution(ideal, 3)


def test_json_reload_rejects_an_int_beyond_64_bits():
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    data["modules"][2]["generators"][0]["bidegree"][0] = 2**63
    with pytest.raises(ValueError, match="does not fit in 64 bits"):
        resolution_from_json(data)


@pytest.mark.parametrize("extra", [-1, 1])
def test_json_reload_rejects_a_differential_count_off_the_modules(extra):
    data = json.loads(json.dumps(resolution_to_json(build_resolution(M_RIGHT, 4))))
    if extra > 0:
        data["differentials"].append(data["differentials"][-1])
    else:
        data["differentials"].pop()
    count = 4 + extra
    with pytest.raises(ValueError, match=f"^{count} differentials between 5 modules$"):
        resolution_from_json(data)


# SHA-256 of json.dumps(resolution_to_json(build_resolution(M, 8)), sort_keys=True),
# recorded from the engine before its templates were prebuilt per ideal:
# entry order, monomials and labels must not change.
GOLDEN_JSON_SHA256 = {
    "xy2,y4": "adf9065f81deb8167b18bdd1fb59fc8682bdf601fa895334582bcdf2572993be",
    "x2y,xy2": "06ce83784a0d9b8fb71c2ca5c41579de155ef49f5fa1e46e77e0929e2d72c3d5",
    "x2,xy": "22b7a60d6c8af541e6a17e55587c8f89ece686aa721422e918d16fcfb1417983",
    "xy,y3": "4a737b6f7c8a49351557aa72651cd6667c263ac3726c87dfd7703e02eb05e3f4",
    "x3,x2y2,xy3,y5": "4458ccdb8ef9957e164ca372a5a85c5aecd52f81ade081721bbe8c7ef163d2ed",
    "x6,x5y,x4y2,x3y3,x2y4,xy5": "a6515eeb4ebd23a6d03753c37218cce56221db650a08040dcac8b000c01546a4",
    "x2,y3": "61d1b951571af9cb5cf8b226959616df436fb98fecffcfc0c7a1f25064047960",
}


@pytest.mark.parametrize("text", sorted(GOLDEN_JSON_SHA256))
def test_resolution_json_is_unchanged(text):
    data = resolution_to_json(build_resolution(parse_ideal(text), 8))
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_JSON_SHA256[text]


# SHA-256 over the JSON of every degenerate ideal with exponents up to 8,
# recorded from the per-type constructions the Kunneth product replaced.
DEGENERATE_SHA256 = "6b851371f21fa14d239c0f970fb02ed3aeefc637f88b962256d5c8e13937afec"


def test_degenerate_json_is_unchanged():
    # for a in 1..8: (x^a), (y^a), then (x^a, y^b) and (x^a y^b) for b in
    # 1..8, main-case ideals skipped; each at stages 0, 1, 2, 5, 12 and 30
    sha, updates = hashlib.sha256(), 0
    for a in range(1, 9):
        gens = [[(a, 0)], [(0, a)]]
        for b in range(1, 9):
            gens += [[(a, 0), (0, b)], [(a, b)]]
        for pairs in gens:
            ideal = M(*pairs)
            if build_resolution(ideal, 0).ideal_class.is_main:
                continue
            for stage in (0, 1, 2, 5, 12, 30):
                data = resolution_to_json(build_resolution(ideal, stage))
                sha.update(json.dumps(data, sort_keys=True).encode())
                updates += 1
    assert (updates, sha.hexdigest()) == (864, DEGENERATE_SHA256)


def compose_reference(res, i):
    """_composite(res, i), d_i o d_{i+1}, computed with Monomial products and membership throughout."""
    ring, d_hi, d_lo = res.ring, res.differentials[i], res.differentials[i - 1]
    out = {}
    for col in range(res.modules[i + 1].rank):
        acc = {}
        for mid, c, sign, x, y in d_hi.entries:
            if c != col:
                continue
            for row, c2, sign2, x2, y2 in d_lo.entries:
                prod = Monomial(x + x2, y + y2)
                if c2 == mid and not ring.contains(prod):
                    key = (row, prod)
                    acc[key] = acc.get(key, 0) + sign * sign2
        for (row, prod), coeff in acc.items():
            if coeff:
                out.setdefault((row, col), {})[(prod.xdeg, prod.ydeg)] = coeff
    return out


@pytest.mark.parametrize("ideal", [M_LEFT, M_RIGHT, M((3, 0), (2, 2), (1, 3), (0, 5))])
def test_compose_check_matches_monomial_reference(ideal):
    res = build_resolution(ideal, 6)
    nonzero = unordered = 0
    for i in range(1, len(res.differentials)):
        d_hi = res.differentials[i]
        # flip the first entry of every column: a column with several
        # entries loses the cancellation that made its composite vanish
        bad, seen = [], set()
        for row, col, sign, x, y in d_hi.entries:
            bad.append((row, col, sign if col in seen else -sign, x, y))
            seen.add(col)
        for hi in (tuple(d_hi.entries), bad):
            # a shuffled copy is out of column order; the composite does not see it
            shuffled = random.Random(i).sample(hi, len(hi))
            unordered += shuffled != sorted(shuffled, key=lambda e: e[1])
            # a second entry in the first entry's cell cancels it: the map
            # is the one without that entry
            row, col, sign, x, y = hi[0]
            cancelling = [*hi, (row, col, -sign, x, y)]
            for copy in (hi, shuffled, cancelling):
                assert _composite(with_map(res, i + 1, copy), i) == compose_reference(with_map(res, i + 1, copy), i)
            assert _composite(with_map(res, i + 1, cancelling), i) == _composite(with_map(res, i + 1, hi[1:]), i)
        nonzero += bool(_composite(with_map(res, i + 1, bad), i))
    assert nonzero > 0 and unordered > 0
