"""Shared helpers for the test suite: the corpora, the running examples,
the one way tests replace or corrupt a map of a resolution, the bent
main-case rules, a resolution's JSON as a file holds it, and the
staircase bound's c."""
from __future__ import annotations

import functools
import gc
import itertools
import json
import random
import sys
from dataclasses import replace

from hypothesis import assume, settings, strategies as st

import stairstep.resolution
from stairstep import Differential, Monomial, MonomialIdeal, normalize_ideal, resolution_to_json


def M(*pairs):
    return normalize_ideal([Monomial(a, b) for a, b in pairs])


M_LEFT = M((1, 2), (0, 4))   # (xy^2, y^4), case 2
M_RIGHT = M((2, 1), (1, 2))  # (x^2y, xy^2), case 1


def with_map(res, i, entries):
    """``res`` with d_i, numbered from 1, replaced by ``Differential(entries)``."""
    diffs = list(res.differentials)
    diffs[i - 1] = Differential(entries)
    return replace(res, differentials=diffs)


# the kinds tests/report_digests.py draws from, in order: kind k is hashed
# in its section mutation_{MUTATIONS[k]}; mutate_entries also knows swap,
# drop_column and flip_column_heads
MUTATIONS = ("flip_sign", "x_plus_1", "row_plus_1", "drop", "sign_2", "x_to_minus_1", "duplicate", "shuffle")


def mutate_entries(entries, kind: str, k: int, rng: random.Random | None = None) -> list:
    """The entries with entry k changed by mutation ``kind``; shuffle
    reorders them all with ``rng``, drop_column drops entry k's column,
    and flip_column_heads flips the sign of the first entry of every
    column, whatever k."""
    out = list(entries)
    row, col, sign, x, y = out[k]
    if kind == "flip_sign":
        out[k] = (row, col, -sign, x, y)
    elif kind == "x_plus_1":
        out[k] = (row, col, sign, x + 1, y)
    elif kind == "row_plus_1":
        out[k] = (row + 1, col, sign, x, y)
    elif kind == "drop":
        del out[k]
    elif kind == "sign_2":
        out[k] = (row, col, 2, x, y)
    elif kind == "x_to_minus_1":
        out[k] = (row, col, sign, -1, y)
    elif kind == "duplicate":
        out.insert(k, out[k])
    elif kind == "shuffle":
        rng.shuffle(out)
    elif kind == "swap":
        out[k] = (row, col, sign, y, x)
    elif kind == "drop_column":
        out = [e for e in out if e[1] != col]
    elif kind == "flip_column_heads":
        out, seen = [], set()
        for row, col, sign, x, y in entries:
            out.append((row, col, sign if col in seen else -sign, x, y))
            seen.add(col)
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return out


def mutate(res, i, kind: str, k: int = 0, rng: random.Random | None = None):
    """``res`` with entry k of d_i, numbered from 1, changed by mutation ``kind``."""
    return with_map(res, i, mutate_entries(res.differentials[i - 1].entries, kind, k, rng))


def each_map(res, edit):
    """``res`` with every d_i replaced by ``Differential(edit(entries of d_i))``, d_1 first."""
    return replace(res, differentials=[Differential(edit(d.entries)) for d in res.differentials])


# Bent main-case rules: each takes _main_rule's (offsets, templates,
# children) and returns them changed, and bend_rule installs one.
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


def swap_f1(offsets, templates, children):
    """e_x at (0, 1) and e_y at (1, 0): every total degree stays."""
    return {**offsets, "F1": tuple((dy, dx) for dx, dy in offsets["F1"])}, templates, children


def bend_rule(monkeypatch, bend) -> None:
    """Make _main_rule return its tables passed through bend."""
    real = stairstep.resolution._main_rule
    monkeypatch.setattr(stairstep.resolution, "_main_rule", lambda gens: bend(*real(gens)))


def json_data(res) -> dict:
    """``resolution_to_json(res)`` written as JSON text and read back, as a
    loader reads it from a file."""
    return json.loads(json.dumps(resolution_to_json(res)))


def staircase_c(ideal: MonomialIdeal) -> int:
    """c of the brute force's staircase bound (stage i >= 2 ends at degree
    m_x + m_y + c), in its three-term form, read off the first and last
    generators."""
    g1, gr = ideal.generators[0], ideal.generators[-1]
    return max(g1.xdeg + gr.ydeg - 2, g1.xdeg + g1.ydeg - 1, gr.xdeg + gr.ydeg - 1)


def exhaustive_corpus(max_exp: int) -> list[MonomialIdeal]:
    """Every normalized proper nonzero ideal with exponents <= max_exp.

    A staircase pairs strictly decreasing x-exponents with strictly
    increasing y-exponents, so enumerating those pairings hits each
    normalized ideal exactly once.
    """
    vals = range(max_exp + 1)
    out = []
    for r in range(1, max_exp + 2):
        for a_set in itertools.combinations(vals, r):
            for b_set in itertools.combinations(vals, r):
                gens = [
                    Monomial(a, b)
                    for a, b in zip(sorted(a_set, reverse=True), sorted(b_set))
                ]
                if gens == [Monomial(0, 0)]:
                    continue
                out.append(normalize_ideal(gens))
    return out


def random_corpus(count: int, seed: int, max_r: int = 6, max_exp: int = 10) -> list[MonomialIdeal]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(1, max_r)
        a_vals = rng.sample(range(max_exp + 1), r)
        b_vals = rng.sample(range(max_exp + 1), r)
        gens = [
            Monomial(a, b)
            for a, b in zip(sorted(a_vals, reverse=True), sorted(b_vals))
        ]
        if gens == [Monomial(0, 0)]:
            continue
        out.append(normalize_ideal(gens))
    return out


@functools.cache
def acceptance_corpus() -> tuple[MonomialIdeal, ...]:
    """The 300 ideals of the acceptance corpus: every ideal with exponents
    <= 4, then 50 seed-0 random ones.  The ideals are frozen, so every
    caller shares them."""
    return tuple(exhaustive_corpus(4) + random_corpus(50, seed=0))


@st.composite
def staircases(draw, max_r: int, max_exp: int) -> MonomialIdeal:
    """r <= max_r generators x^{a_i} y^{b_i} with exponents <= max_exp,
    drawn as a staircase pairing and normalized."""
    r = draw(st.integers(1, max_r))
    xs = draw(st.lists(st.integers(0, max_exp), min_size=r, max_size=r, unique=True))
    ys = draw(st.lists(st.integers(0, max_exp), min_size=r, max_size=r, unique=True))
    gens = [Monomial(a, b) for a, b in zip(sorted(xs, reverse=True), sorted(ys))]
    assume(gens != [Monomial(0, 0)])
    return normalize_ideal(gens)


# a larger budget for the elimination kernel's property tests, loaded only
# by --hypothesis-profile=elimination
settings.register_profile("elimination", max_examples=2000)


def python_steps(fn, *args):
    """(fn's result, the Python steps it took): every call, line and return
    its frames report to a trace function.  The garbage collector is off
    during the call, so no collection callback runs under the trace, and
    the count repeats exactly where a timing does not; unlike a count of
    calls alone it sees a loop that calls nothing."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += 1
        return trace

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return result, count
