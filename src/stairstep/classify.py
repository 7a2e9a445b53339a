"""Classification of two-variable monomial ideals into seven classes:
the two main cases and the five degenerate types.  They are built in two
regimes: the main-case rule table, which builds type II at r = 1, and
the Kunneth product, which builds types I, III, IV and V."""
from __future__ import annotations

import enum

from .monomials import MonomialIdeal


class IdealClass(enum.Enum):
    MAIN_CASE_1 = "main-case-1"  # r >= 2 mixed, every generator divisible by x
    MAIN_CASE_2 = "main-case-2"  # r >= 2 mixed, last generator a pure y-power
    TYPE_I = "type-1"            # (x) or (y)
    TYPE_II = "type-2"           # single generator of degree >= 2
    TYPE_III = "type-3"          # (x, y)
    TYPE_IV = "type-4"           # (x^a, y) or (x, y^b) with a,b >= 2
    TYPE_V = "type-5"            # (x^a, y^b) with a,b >= 2

    @property
    def slug(self) -> str:
        return self.value

    @property
    def is_main(self) -> bool:
        return self in (IdealClass.MAIN_CASE_1, IdealClass.MAIN_CASE_2)


def classify(ideal: MonomialIdeal) -> IdealClass:
    """The unique regime of the ideal, which is proper and nonzero by
    construction."""
    gens = ideal.generators
    r = len(gens)
    if r == 1:
        g = gens[0]
        if g.degree == 1:
            return IdealClass.TYPE_I
        return IdealClass.TYPE_II
    if r == 2 and gens[0].ydeg == 0 and gens[1].xdeg == 0:
        # pure powers (x^a, y^b)
        a, b = gens[0].xdeg, gens[1].ydeg
        if a == 1 and b == 1:
            return IdealClass.TYPE_III
        if a == 1 or b == 1:
            return IdealClass.TYPE_IV
        return IdealClass.TYPE_V
    if gens[-1].xdeg >= 1:
        return IdealClass.MAIN_CASE_1
    return IdealClass.MAIN_CASE_2
