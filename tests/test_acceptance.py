"""Acceptance suite: one test per criterion, one printed verdict line each.

The corpus is every normalized ideal with exponents <= 4 (250 ideals)
plus 50 seed-0 random ideals with r <= 6 and exponents <= 10.
"""
from __future__ import annotations

import time

from conftest import M, M_LEFT, M_RIGHT, acceptance_corpus, exhaustive_corpus, mutate
from stairstep import (
    BettiTable,
    PoincareSeries,
    build_resolution,
    check_complex,
    check_exactness,
    check_minimality,
    classify,
    compare_betti,
    graded_betti,
    minimal_resolution_bruteforce,
    series_expand,
    total_betti,
)
# printed graded Betti diagrams for the two running examples, i <= 6
GOLDEN_LEFT_ENTRIES = {
    (0, 0): 1, (1, 1): 2,
    (2, 2): 1, (2, 3): 1, (2, 4): 1,
    (3, 4): 2, (3, 5): 3,
    (4, 5): 1, (4, 6): 4, (4, 7): 2, (4, 8): 1,
    (5, 7): 3, (5, 8): 6, (5, 9): 4,
    (6, 8): 1, (6, 9): 7, (6, 10): 9, (6, 11): 3, (6, 12): 1,
}
GOLDEN_RIGHT_ENTRIES = {
    (0, 0): 1, (1, 1): 2,
    (2, 2): 1, (2, 3): 2,
    (3, 4): 5,
    (4, 5): 4, (4, 6): 4,
    (5, 6): 1, (5, 7): 12,
    (6, 8): 13, (6, 9): 8,
}

def report(num: int, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def test_criterion_1_golden_totals():
    start = time.perf_counter()
    ok = True
    for ideal in (M_LEFT, M_RIGHT):
        totals = build_resolution(ideal, 6).total_betti_numbers()
        ok = ok and totals == [1, 2, 3, 5, 8, 13, 21]
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_golden_graded_tables():
    start = time.perf_counter()
    ok = True
    for ideal, golden in ((M_LEFT, GOLDEN_LEFT_ENTRIES), (M_RIGHT, GOLDEN_RIGHT_ENTRIES)):
        table = minimal_resolution_bruteforce(ideal, 6, 15)
        found = {key: v for key, v in table.entries.items() if key[0] <= 6}
        ok = ok and found == golden
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_3_engine_oracle_equivalence():
    mismatched = []
    exhaustive_count = len(exhaustive_corpus(4))
    for ideal in acceptance_corpus():
        engine = graded_betti(build_resolution(ideal, 6))
        depth = max(15, ideal.max_generator_degree)
        oracle = minimal_resolution_bruteforce(ideal, 6, depth)
        clipped = BettiTable(
            {k: v for k, v in oracle.entries.items() if k[1] <= 15},
            max_stage=6,
            max_degree=15,
        )
        if not compare_betti(engine, clipped).is_empty:
            mismatched.append(str(ideal))
    ok = not mismatched and exhaustive_count == 250
    report(3, ok, f"{len(acceptance_corpus())} ideals, mismatches: {mismatched[:3]}")


def test_criterion_4_complex_minimality_exactness():
    start = time.perf_counter()
    failures = []
    for ideal in acceptance_corpus():
        res = build_resolution(ideal, 10)
        if not (check_complex(res).verdict and check_minimality(res).verdict):
            failures.append((str(ideal), "symbolic"))
        res9 = build_resolution(ideal, 9)
        if not check_exactness(res9, 8, 25).verdict:
            failures.append((str(ideal), "exactness"))
    elapsed = time.perf_counter() - start
    report(4, not failures and elapsed < 300.0, f"{elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_5_betti_recursions():
    failures = []
    for ideal in acceptance_corpus():
        if not classify(ideal).is_main:
            continue
        r = ideal.num_generators
        ranks = build_resolution(ideal, 10).total_betti_numbers()
        ok = ranks[2] == r + 1 and ranks[3] == 3 * r - 1
        ok = ok and all(
            ranks[i] == ranks[i - 1] + (r - 1) * ranks[i - 2] for i in range(2, 11)
        )
        ok = ok and all(
            ranks[i] == r * ranks[i - 2] + (r - 1) * ranks[i - 3] for i in range(4, 11)
        )
        if not ok:
            failures.append(str(ideal))
    report(5, not failures, f"failures: {failures[:3]}")


def test_criterion_6_poincare_consistency():
    ok = True
    for r in range(2, 9):
        expected = total_betti(classify(M_RIGHT), r, 30)
        main = PoincareSeries((1, 1), (1, -1, 1 - r))
        alternate = PoincareSeries((1, 2, 1), (1, 0, -r, 1 - r))
        ok = ok and series_expand(main, 30) == expected
        ok = ok and series_expand(alternate, 30) == expected
    report(6, ok)


def test_criterion_7_degenerate_fidelity():
    ok = True
    # Type II period-2 repetition
    res = build_resolution(M((2, 3)), 9)
    grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
    ok = ok and all(grids[i] == grids[i - 2] for i in range(4, 9))
    # Type IV alternation
    res = build_resolution(M((4, 0), (0, 1)), 6)
    grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
    ok = ok and grids[0] == [["x"]] and grids[1] == [["x^3"]]
    ok = ok and all(grids[i] == grids[i - 2] for i in range(2, 6))
    # Type I / Type III termination
    ok = ok and build_resolution(M((1, 0)), 5).total_betti_numbers() == [1, 1, 0, 0, 0, 0]
    ok = ok and build_resolution(M((1, 0), (0, 1)), 5).total_betti_numbers() == [1, 0, 0, 0, 0, 0]
    # (x^3, y^7): printed third map entry-for-entry, second map with y^6
    res = build_resolution(M((3, 0), (0, 7)), 11)
    grids = [res.dense_strings(i) for i in range(1, res.stages + 1)]
    ok = ok and grids[1] == [["x^2", "0", "-y"], ["0", "y^6", "x"]]
    ok = ok and grids[2] == [
        ["x", "0", "-y", "0"],
        ["0", "y", "0", "x"],
        ["0", "0", "-x^2", "-y^6"],
    ]
    ok = ok and check_exactness(res, 10, 40).verdict
    report(7, ok)


def test_criterion_8_mutation_detection():
    results = {}
    base = build_resolution(M_RIGHT, 7)
    for which, kind, k in (("sign", "flip_sign", 0), ("drop", "drop_column", -1), ("shift", "x_plus_1", 0)):
        bad = mutate(base, 3, kind, k)
        results[which] = (
            not check_complex(bad).verdict
            or not check_minimality(bad).verdict
            or not check_exactness(bad, 5, 15).verdict
        )
    ok = all(results.values())
    report(8, ok, ", ".join(f"{k}: {'caught' if v else 'missed'}" for k, v in results.items()))
