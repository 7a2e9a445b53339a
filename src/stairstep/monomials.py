"""Exact arithmetic for monomials in two variables and monomial ideals.

Everything here is immutable and pure: monomials are exponent pairs,
ideals are minimal generating sets kept in staircase order
(x-exponents strictly decreasing, y-exponents strictly increasing).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable


class EmptyIdeal(ValueError):
    """No generators were supplied (the zero ideal is rejected)."""


class UnitIdeal(ValueError):
    """The unit monomial 1 appeared among the generators."""


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")


@dataclass(frozen=True)
class Monomial:
    """x^xdeg * y^ydeg with nonnegative exponents."""

    xdeg: int
    ydeg: int

    def __post_init__(self) -> None:
        if self.xdeg < 0 or self.ydeg < 0:
            raise ValueError(f"negative exponent in {(self.xdeg, self.ydeg)}")

    @property
    def degree(self) -> int:
        return self.xdeg + self.ydeg

    @property
    def is_unit(self) -> bool:
        return self.xdeg == 0 and self.ydeg == 0

    def __str__(self) -> str:
        return term_str(self.xdeg, self.ydeg)


def term_str(xdeg: int, ydeg: int) -> str:
    """x^xdeg * y^ydeg as text ("x*y^2", "1"), for any integer exponents,
    so a malformed entry can be reported without building a Monomial."""
    x = "" if xdeg == 0 else "x" if xdeg == 1 else f"x^{xdeg}"
    y = "" if ydeg == 0 else "y" if ydeg == 1 else f"y^{ydeg}"
    return f"{x}*{y}" if x and y else x or y or "1"


@dataclass(frozen=True)
class MonomialIdeal:
    """A proper nonzero monomial ideal of k[x,y], given by its minimal
    generating set.

    Generators are in staircase order: a_1 > a_2 > ... > a_r >= 0 with
    0 <= b_1 < b_2 < ... < b_r, where g_i = x^{a_i} y^{b_i}.  Construction
    rejects an empty tuple with ``EmptyIdeal``, the unit monomial with
    ``UnitIdeal`` and any other order with ``ValueError``, because the
    staircase lemma relies on it.  :func:`normalize_ideal` builds one from
    any generators.

    The staircase lemma: whether x^u y^v lies in M depends only on
    min(u, a_1) and min(v, b_r).  It lies in M iff a_i <= u and b_i <= v
    for some i; every a_i <= a_1 and every b_i <= b_r, so a_i <= u iff
    a_i <= min(u, a_1), and b_i <= v iff b_i <= min(v, b_r).  The i with
    a_i <= u form a suffix, whose first member k has the least y-exponent,
    so x^u y^v lies in M iff v >= b_k: :attr:`stair` tabulates it for
    u <= a_1, and b_1 serves every u >= a_1.  The lemma gives S = k[x,y]/M
    the degrees :attr:`flat`, :attr:`tail` and :attr:`top`.
    """

    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        gens = self.generators
        if not gens:
            raise EmptyIdeal("an ideal needs at least one generator")
        if any(g.is_unit for g in gens):
            raise UnitIdeal("the unit ideal is not a proper ideal")
        for g, h in zip(gens, gens[1:]):
            if g.xdeg <= h.xdeg or g.ydeg >= h.ydeg:
                raise ValueError(
                    f"generators not in staircase order at {g}, {h}: "
                    "x-exponents must strictly decrease and y-exponents strictly increase"
                )

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def max_generator_degree(self) -> int:
        return max(g.degree for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        return self.contains_xy(m.xdeg, m.ydeg)

    def contains_xy(self, x: int, y: int) -> bool:
        """Whether x^x y^y lies in M, for x, y >= 0, without building a
        Monomial."""
        stair = self.stair
        return y >= stair[min(x, len(stair) - 1)]

    @cached_property
    def stair(self) -> tuple:
        """stair[p] for 0 <= p <= a_1: the least q with x^p y^q in M (inf
        if there is none), so x^p y^q lies in M iff q >= stair[min(p, a_1)].
        Tabulated by one linear sweep over the generators on first read and
        kept, outside equality, hashing and repr; a loop testing many
        products clamps inline, stair[p] if p < len(stair) else stair[-1].
        ValueError when a_1 >= sys.maxsize, which no tuple can index."""
        gens = self.generators
        if gens[0].xdeg >= sys.maxsize:
            raise ValueError(f"the x-exponent a_1 = {gens[0].xdeg} is too large to tabulate the staircase of M")
        hi = gens[0].xdeg + 1
        stair: list = [math.inf] * hi
        for g in gens:  # g is the first generator dividing x^p y^q for a_g <= p < hi
            stair[g.xdeg : hi] = [g.ydeg] * (hi - g.xdeg)
            hi = g.xdeg
        return tuple(stair)

    @property
    def flat(self) -> int:
        """a_1 + b_r - 1: from this degree on, each x^s y^t has s >= a_1 or
        t >= b_r, so S_d is two arms, one along each axis."""
        return self.generators[0].xdeg + self.generators[-1].ydeg - 1

    @property
    def tail(self) -> int:
        """b_1 + a_r: dim S_d for d >= flat, the b_1 monomials of the arm
        along the x-axis and the a_r of the arm along the y-axis."""
        return self.generators[0].ydeg + self.generators[-1].xdeg

    @property
    def top(self) -> float:
        """The highest degree of a standard monomial: inf unless M holds
        pure powers of x and y (b_1 = 0 = a_r).  Then a standard x^u y^v has
        u < a_1, so a_{i+1} <= u < a_i for one i < r and v < b_{i+1}: the
        standard monomials divide the outer corners x^{a_i - 1} y^{b_{i+1} - 1},
        and the top degree is max_i(a_i + b_{i+1}) - 2."""
        gens = self.generators
        if gens[0].ydeg == 0 and gens[-1].xdeg == 0:
            return max(g.xdeg + h.ydeg for g, h in zip(gens, gens[1:])) - 2
        return math.inf

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _minimalize(raw: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Minimal generators, falling x first: in (xdeg, ydeg) order m is kept iff its ydeg is below all kept."""
    kept: list[Monomial] = []
    low = math.inf
    for m in sorted(set(raw), key=lambda m: (m.xdeg, m.ydeg)):
        if m.ydeg < low:
            kept.append(m)
            low = m.ydeg
    return tuple(reversed(kept))


def normalize_ideal(raw: Iterable[Monomial]) -> MonomialIdeal:
    """The ideal with the minimal generating set of ``raw``, in staircase
    order; the constructor rejects the zero and unit ideals."""
    return MonomialIdeal(_minimalize(raw))


def _standard_x(ideal: MonomialIdeal, d: int) -> tuple[int, ...]:
    """x-exponents s of the standard monomials x^s y^(d-s) of degree d,
    highest first.

    By the staircase lemma (MonomialIdeal), for a_j <= s < a_{j-1} (a_0 =
    inf) the first generator dividing x^s y^t is g_j, so x^s y^t is
    standard exactly when t < b_j; every x^s y^t with s < a_r is standard.
    So the piece is one range of s per corner, from the top of its strip
    down to max(a_j, d - b_j + 1), and one below a_r: at most r + 1
    ranges, at O(r) cost plus its standard monomials, however large d and
    the exponents are.  No cell is tested."""
    hi = d  # the highest s not yet walked
    xs: list[int] = []
    for g in ideal.generators:
        xs += range(hi, max(g.xdeg, d - g.ydeg + 1) - 1, -1)
        hi = min(hi, g.xdeg - 1)
    xs += range(hi, -1, -1)
    return tuple(xs)


# Bounded.  No check calls it: they read _standard_x's ints, uncached.
@lru_cache(maxsize=4096)
def standard_monomials(ideal: MonomialIdeal, d: int) -> tuple[Monomial, ...]:
    """k-basis of the degree-d graded piece of S, highest x-power first."""
    return tuple(Monomial(s, d - s) for s in _standard_x(ideal, d))


def parse_monomial(text: str, base_offset: int = 0) -> Monomial:
    """Parse ``x^3*y``, ``x3y``, ``y^4``, ``1`` and friends."""
    xd = yd = 0
    i = 0
    n = len(text)
    saw_factor = False
    while i < n:
        ch = text[i]
        if ch in " \t*":
            i += 1
            continue
        if ch == "1" and not saw_factor and xd == yd == 0:
            # the unit monomial; only valid standing alone
            rest = text[i + 1 :].strip(" \t*")
            if rest:
                raise ParseError("unexpected input after '1'", base_offset + i + 1)
            return Monomial(0, 0)
        if ch in "xy":
            i += 1
            if i < n and text[i] == "^":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("expected digits after '^'", base_offset + i)
            j = i
            while j < n and text[j].isdigit():
                j += 1
            exp = int(text[i:j]) if j > i else 1
            if ch == "x":
                xd += exp
            else:
                yd += exp
            i = j
            saw_factor = True
            continue
        raise ParseError(f"unexpected character {ch!r}", base_offset + i)
    if not saw_factor:
        raise ParseError("empty monomial", base_offset)
    return Monomial(xd, yd)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse a comma-separated generator list and normalize it."""
    gens = []
    offset = 0
    for part in text.split(","):
        if not part.strip():
            raise ParseError("empty generator", offset)
        gens.append(parse_monomial(part, offset))
        offset += len(part) + 1
    return normalize_ideal(gens)
