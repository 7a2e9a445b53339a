"""Shared corpus helpers for the test suite."""
from __future__ import annotations

import gc
import itertools
import random
import sys

from hypothesis import assume, settings, strategies as st

from stairstep import Monomial, MonomialIdeal, normalize_ideal


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
