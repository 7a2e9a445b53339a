"""Betti sequences, graded Betti tables and Poincare-Betti series."""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Iterator, Optional

from .classify import IdealClass

if TYPE_CHECKING:
    from .monomials import MonomialIdeal
    from .resolution import Resolution


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,d}, nonzero entries only.

    ``max_degree`` is the window the table is complete on; None means
    complete in all internal degrees for stages up to ``max_stage``.
    """

    entries: dict[tuple[int, int], int]
    max_stage: int
    max_degree: Optional[int] = None

    def totals(self) -> list[int]:
        out = [0] * (self.max_stage + 1)
        for i, _d, v in _shown(self):
            out[i] += v
        return out


def _shown(table: BettiTable) -> Iterator[tuple[int, int, int]]:
    """(i, d, beta_{i,d}) for each entry on the grid, 0 <= i <= max_stage
    and d >= i: the cells the totals, the shape and the render read."""
    return ((i, d, v) for (i, d), v in table.entries.items() if 0 <= i <= table.max_stage and d >= i)


@dataclass(frozen=True)
class PoincareSeries:
    """Rational generating function, coefficients low degree first."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __str__(self) -> str:
        num, den = _poly_str(self.numerator), _poly_str(self.denominator)
        if den == "1":
            return num
        if len([c for c in self.numerator if c]) > 1:
            num = f"({num})"
        return f"{num}/({den})"


def _poly_str(coeffs: tuple[int, ...]) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
        mag = abs(c)
        body = mono if (mag == 1 and k > 0) else (str(mag) if k == 0 else f"{mag}{mono}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) if parts else "0"


def total_betti(ideal_class: IdealClass, r: int, n: int) -> list[int]:
    """Total Betti numbers beta_0..beta_n of k over S."""
    if n < 0:
        raise ValueError("need n >= 0")
    if ideal_class.is_main:
        if r < 2:
            raise ValueError("main case needs r >= 2")
        seq = [1, 2]
        while len(seq) < n + 1:
            seq.append(seq[-1] + (r - 1) * seq[-2])
        return seq[: n + 1]
    if ideal_class is IdealClass.TYPE_I:
        return ([1, 1] + [0] * n)[: n + 1]
    if ideal_class is IdealClass.TYPE_II:
        return ([1] + [2] * n)[: n + 1]
    if ideal_class is IdealClass.TYPE_III:
        return ([1] + [0] * n)[: n + 1]
    if ideal_class is IdealClass.TYPE_IV:
        return [1] * (n + 1)
    return list(range(1, n + 2))  # TYPE_V


def poincare_series(ideal_class: IdealClass, r: int = 0) -> PoincareSeries:
    if ideal_class.is_main:
        if r < 2:
            raise ValueError("main case needs r >= 2")
        return PoincareSeries((1, 1), (1, -1, 1 - r))
    return {
        IdealClass.TYPE_I: PoincareSeries((1, 1), (1,)),
        IdealClass.TYPE_II: PoincareSeries((1, 1), (1, -1)),
        IdealClass.TYPE_III: PoincareSeries((1,), (1,)),
        IdealClass.TYPE_IV: PoincareSeries((1,), (1, -1)),
        IdealClass.TYPE_V: PoincareSeries((1,), (1, -2, 1)),
    }[ideal_class]


def series_coefficients(series: PoincareSeries) -> Iterator[int]:
    """The power-series coefficients c_0, c_1, ..., without end, in exact
    integer arithmetic.  c_k = num_k - sum_j den_j c_{k-j}, so only the
    last len(denominator) - 1 of them are held."""
    den = series.denominator
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    tail = den[1:]
    recent = deque([0] * len(tail), maxlen=len(tail))  # c_{k-1}, c_{k-2}, ...
    for num_k in chain(series.numerator, repeat(0)):
        c = num_k - sum(map(mul, tail, recent))
        recent.appendleft(c)
        yield c


def series_expand(series: PoincareSeries, n: int) -> list[int]:
    """First n+1 power-series coefficients, exact integer arithmetic."""
    coeffs = series_coefficients(series)
    return [next(coeffs) for _ in range(n + 1)]


def graded_betti(res: Resolution) -> BettiTable:
    entries: dict[tuple[int, int], int] = {}
    for i, module in enumerate(res.modules):
        for d, count in Counter(map(add, module.generators.dx, module.generators.dy)).items():
            entries[(i, d)] = count
    return BettiTable(entries, max_stage=len(res.modules) - 1, max_degree=None)


def betti_table(ideal: MonomialIdeal, stages: int) -> BettiTable:
    """The graded Betti table of :func:`build_resolution` through ``stages``,
    counted by the Betti counter of M's regime with no resolution built."""
    from .resolution import _regime

    _source, count = _regime(ideal, stages)
    return BettiTable(count(ideal, stages), max_stage=stages)


def render_shape(table: BettiTable) -> tuple[int, int]:
    """(rows, columns) of the cell grid :func:`render_betti_table` prints."""
    return 1 + max((d - i for i, d, _v in _shown(table)), default=0), table.max_stage + 1


def render_betti_table(table: BettiTable) -> str:
    """Macaulay2-style text layout: row j, column i holds beta_{i, i+j}.

    The entries are sorted into their rows once; each row is then a run of
    "." with its entries written in, so no cell is looked up.  An entry
    outside the grid (i < 0, i > max_stage, or d < i) is not shown and
    counts in no total."""
    rows, n_cols = render_shape(table)
    in_row: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for i, d, v in _shown(table):
        in_row[d - i].append((i, v))
    pad = max(len("total:"), len(f"{rows - 1}:")) + 1  # one label column, labels padded after the colon
    lines = [" " * pad + " ".join(map(str, range(n_cols))), "total:".ljust(pad) + " ".join(map(str, table.totals()))]
    for j, entries in enumerate(in_row):
        cells = ["."] * n_cols
        for i, v in entries:
            cells[i] = str(v)
        lines.append(f"{j}:".ljust(pad) + " ".join(cells))
    return "\n".join(lines)


def betti_csv(table: BettiTable) -> str:
    lines = ["i,d,beta"]
    for (i, d), v in sorted(table.entries.items()):
        lines.append(f"{i},{d},{v}")
    return "\n".join(lines)


def betti_json(table: BettiTable) -> dict:
    return {
        "entries": [
            {"i": i, "d": d, "beta": v} for (i, d), v in sorted(table.entries.items())
        ]
    }
