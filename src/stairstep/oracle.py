"""Independent verification by exact linear algebra on graded pieces.

Every check of a resolution lives here, and check_resolution is the one
verdict: no check alone proves a resolution.  Readers take (res, i), d_i
being F_i -> F_{i-1} of res.modules over res.ring.  A module or map too
many raises the loader's ValueError (resolution._require_count).  An
entry is tested in one order everywhere: first the loader's rule (row,
col, sign, exponents: _shape_fault), then, where a check needs it, the
bigrading (the first pass of _split_blocks); a break fails a record.
No report depends on the order of a differential's entries: the complex
check adds every product of a composite into one accumulator, and the
exactness check splits each map into blocks in two passes over it.

The brute-force resolution here never looks at the engine's matrices:
it finds syzygies degree by degree from graded slices, so it can
adjudicate every engine construction.  In each degree it eliminates the
shifts of the previous degree's syzygies, then takes the nullspace of
only the slice columns outside their pivots, and three rules spare the
work that finds no new syzygy: rank-nullity counts the new generators,
the nullspace stops at that count, and stage i >= 2 ends at a bound the
staircase lemma (see MonomialIdeal) gives.  Stage 1 is read off S.
minimal_resolution_bruteforce proves each step.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd
from operator import add, sub
from typing import NamedTuple, Optional, Union

from .betti import BettiTable
from .monomials import MonomialIdeal, _standard_x, term_str
from .resolution import Resolution, StageTooSmall, _require_count, _shape_fault


class TruncationTooSmall(ValueError):
    pass


def _require_window(ideal: MonomialIdeal, max_stage: int, max_degree: int) -> None:
    if max_stage < 0:
        raise StageTooSmall("need n >= 0")
    if max_degree < ideal.max_generator_degree:
        raise TruncationTooSmall(f"max_degree {max_degree} below largest generator degree {ideal.max_generator_degree}")


@dataclass(frozen=True)
class ExactRationals:
    pass


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < _MR_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self) -> None:
        if self.p >= _MR_LIMIT:
            raise ValueError(f"{self.p} is too large: the prime must be below {_MR_LIMIT}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


FieldConfig = Union[ExactRationals, PrimeField]


def _modulus(fld: FieldConfig) -> int:
    """The characteristic: p for F_p, 0 for Q."""
    return fld.p if isinstance(fld, PrimeField) else 0


def _subtract(vec: dict, b: int, other: dict, p: int) -> None:
    """vec -= b * other in place; zeros are dropped.  When p > 0 entries
    are residues in (-p, p), reduced mod p only when one leaves that range:
    an entry in it is zero mod p only if it is 0."""
    for k, v in other.items():
        nv = vec.get(k, 0) - b * v
        if p and not -p < nv < p:
            nv %= p
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def _divide(vecs, g: int) -> None:
    """Divide integer vectors by g in place; g must divide every entry."""
    if g != 1:
        for vec in vecs:
            for k in vec:
                vec[k] //= g


def _content(vecs) -> int:
    """The gcd of every entry of the vectors (0 if all are empty)."""
    return gcd(*(v for vec in vecs for v in vec.values()))


def _eliminate(col, pivots, p, combo=None, pivcombos=None) -> bool:
    """Reduce a sparse integer column against the pivot set in place, then
    install what is left; False if the column vanished.

    p is the characteristic (0 for Q).  pivots maps a row to the whole
    pivot column whose lowest row it is, its entry a there included, and
    pivcombos maps it to that column's combo.  With b the column's entry in
    a pivot row, col <- a*col - b*pivot, and the combo likewise: the pivot
    row clears itself, a*b - b*a = 0.  Over F_p pivots are monic, so
    a == 1 and entries stay residues in (-p, p).  Over Q the elimination is
    fraction-free: after a step with a != 1 the column and combo are
    divided by their common gcd.

    A column left is installed at its lowest row: a lead of 1 as it is;
    any other lead is scaled to 1 over F_p, and over Q the column and
    combo are made primitive with a positive lead.  A lead of -1 only
    flips every sign."""
    while col:
        prow = min(col)
        piv = pivots.get(prow)
        if piv is None:
            break
        a, b = piv[prow], col[prow]
        if a != 1:
            vecs = (col,) if combo is None else (col, combo)
            for vec in vecs:
                for k in vec:
                    vec[k] *= a
        _subtract(col, b, piv, p)
        if combo is not None:
            _subtract(combo, b, pivcombos[prow], p)
        if a != 1:
            _divide(vecs, _content(vecs) or 1)
    else:
        return False
    lead = col[prow]
    if lead != 1:
        vecs = (col,) if combo is None else (col, combo)
        if p and lead != -1:
            inv = pow(lead, p - 2, p)
            for vec in vecs:
                for k in vec:
                    vec[k] = vec[k] * inv % p
        else:
            # a lead of -1 leaves no content over Q and needs no inverse
            # over F_p: it only flips every sign
            g = 1 if lead == -1 else _content(vecs)
            _divide(vecs, g if lead > 0 else -g)
    pivots[prow] = col
    if combo is not None:
        pivcombos[prow] = combo
    return True


def sparse_rank(columns, fld: FieldConfig) -> int:
    """Rank of a matrix given as sparse columns {row: int_coeff}, which the
    kernel owns: each holds nonzero ints only, over F_p residues in (-p, p),
    and _eliminate reduces it in place and may keep it as a pivot."""
    p = _modulus(fld)
    pivots: dict = {}
    for col in columns:
        _eliminate(col, pivots, p)
    return len(pivots)


def sparse_nullspace(columns, fld: FieldConfig, *, limit: Optional[int] = None) -> list[dict[int, int]]:
    """Nullspace basis of a matrix given as sparse columns {row: int_coeff},
    any iterable of them, each owned by the kernel as sparse_rank's are.

    Vectors are sparse {column_index: int_coeff}, each fixed only up to a
    nonzero scalar: over Q the coefficients are integers (common factors
    met during elimination are divided out), over F_p they are the
    balanced residues, in (-p/2, p/2]: a coefficient -1 stays -1.

    With a limit, no column is read after the limit-th vector is found.
    A vector found at column j combines column j with earlier columns
    only, so when the nullspace has exactly limit vectors (a count that
    rank-nullity gives the caller) the first limit found are all of it."""
    p = _modulus(fld)
    pivots: dict = {}
    pivcombos: dict = {}
    null: list[dict[int, int]] = []
    if limit == 0:
        return null
    for j, col in enumerate(columns):
        combo = {j: 1}
        if not _eliminate(col, pivots, p, combo, pivcombos):
            null.append(combo)
            if len(null) == limit:
                break
    if p:  # balanced residues, in (-p/2, p/2]
        half = (p - 1) // 2
        null = [{k: (v + half) % p - half for k, v in vec.items()} for vec in null]
    return null


class CheckRecord(NamedTuple):
    """One verdict; a tuple, since a report holds one per (stage, degree)."""

    kind: str  # "complex" | "minimality" | "homogeneity" | "exactness"
    stage: int
    degree: Optional[int]
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    ideal: MonomialIdeal
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "ideal": [[g.xdeg, g.ydeg] for g in self.ideal.generators],
            "checks": [
                {
                    "kind": c.kind,
                    "stage": c.stage,
                    "degree": c.degree,
                    "pass": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "verdict": "pass" if self.verdict else "fail",
        }


def _group_columns(res: Resolution, i: int) -> list[list[tuple[int, int, int, int]]]:
    """The entries of d_i grouped by column as (row, sign, xdeg, ydeg)."""
    cols: list[list[tuple[int, int, int, int]]] = [[] for _ in range(res.modules[i].rank)]
    for row, col, sign, x, y in res.differentials[i - 1].entries:
        cols[col].append((row, sign, x, y))
    return cols


def _composite(res: Resolution, i: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """d_i o d_{i+1} over S, for entries in their matrices, as {(row,
    col): {(xdeg, ydeg): coeff}}, nonzero coefficients only.  Only d_i is
    grouped by column; d_{i+1}'s entries are read in place, each product
    outside M added into one accumulator keyed (row, col, xdeg, ydeg), so
    their order does not matter.  A cell that cancels leaves the
    accumulator, which then holds only the open cells: in column order,
    those of one column."""
    lo_cols = _group_columns(res, i)
    stair = res.ring.stair
    n, far = len(stair), stair[-1]
    acc: dict[tuple[int, int, int, int], int] = {}
    for mid, col, sign, x, y in res.differentials[i].entries:
        for row, sign2, x2, y2 in lo_cols[mid]:
            px, py = x + x2, y + y2
            if py < (stair[px] if px < n else far):
                key = (row, col, px, py)
                coeff = acc.pop(key, 0) + sign * sign2
                if coeff:
                    acc[key] = coeff
    out: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (row, col, px, py), coeff in acc.items():
        out.setdefault((row, col), {})[(px, py)] = coeff
    return out


def _shape_faults(res: Resolution, top: int) -> list[str]:
    """_shape_fault of each map d_1 .. d_top that res has."""
    return [_shape_fault(res, i) for i in range(1, min(top, len(res.differentials)) + 1)]


def _complex_records(res: Resolution, shapes: list[str]) -> list[CheckRecord]:
    """check_complex's records; shapes is _shape_faults of every map."""
    records = [CheckRecord("complex", 1, None, False, shapes[0])] if len(shapes) == 1 and shapes[0] else []
    for i in range(1, len(shapes)):
        detail = shapes[i - 1] or shapes[i]
        if not detail and (cells := _composite(res, i)):
            detail = f"nonzero composite at cells {sorted(cells)[:3]}"
        records.append(CheckRecord("complex", i + 1, None, not detail, detail))
    return records


def check_complex(res: Resolution) -> VerificationReport:
    """Symbolic check that consecutive differentials compose to zero.

    A composite is not formed when one of its maps breaks the entry rule.
    Each map below the top one is grouped by column once, as the lower map
    of its composite; the top map is never grouped.  A lone d1 has no
    composite, but a break of the entry rule there still fails a record at
    stage 1."""
    _require_count(res.modules, res.differentials)
    return VerificationReport(res.ring, _complex_records(res, _shape_faults(res, len(res.differentials))))


def _map_records(res: Resolution, kind: str, fault) -> list[CheckRecord]:
    """One ``kind`` record per map d_i, failed with fault(res, i) unless that is ""."""
    return [CheckRecord(kind, i, None, not (d := fault(res, i)), d) for i in range(1, len(res.differentials) + 1)]


def _unit_fault(res: Resolution, i: int) -> str:
    """The first three entries of d_i that are a unit, vanish in S or have
    a negative exponent, or "".  An entry is bad by its monomial alone, so
    each distinct one is tested once."""
    stair, e = res.ring.stair, res.differentials[i - 1].entries
    n, far = len(stair), stair[-1]
    bad = {
        (x, y)
        for x, y in set(zip(e.ints[3::5], e.ints[4::5]))
        if x < 0 or y < 0 or x + y < 1 or y >= (stair[x] if x < n else far)
    }
    if not bad:
        return ""
    return f"bad entries {[(row, col, term_str(x, y)) for row, col, _sign, x, y in e if (x, y) in bad][:3]}"


def check_minimality(res: Resolution) -> VerificationReport:
    """No differential entry may be a unit, vanish in S or have a negative
    exponent.  Only monomials are tested: the entry rule's row, col and
    sign are left to the complex records, which fail a map breaking it."""
    _require_count(res.modules, res.differentials)
    return VerificationReport(res.ring, _map_records(res, "minimality", _unit_fault))


def _entry_fault(res: Resolution, i: int) -> str:
    """_shape_fault, then the bigrading fault of a split that keeps no column."""
    return _shape_fault(res, i) or _split_blocks(res, i, -1)[0]


def check_homogeneity(res: Resolution) -> VerificationReport:
    """Every entry must keep the loader's rule (in its matrix, sign 1 or
    -1, no negative exponent) and then carry its column's bidegree onto
    its row's: source bidegree = target bidegree + (xdeg, ydeg), as the
    first pass of _split_blocks tests it (_entry_fault).  Total degrees
    alone, which the Betti tables read, would miss a swapped bidegree."""
    _require_count(res.modules, res.differentials)
    return VerificationReport(res.ring, _map_records(res, "homogeneity", _entry_fault))


def _split_blocks(res: Resolution, i: int, max_degree: int) -> tuple[str, dict[tuple, tuple[list, list, list[int]]]]:
    """(fault, blocks) of d_i: the first entry that breaks the bigrading,
    or "", and the connected blocks, columns sharing a target row.

    Slice ranks add over blocks.  A key is a block's entries (column, row,
    sign, xdeg, ydeg), five ints each in one flat tuple, columns and rows
    numbered in order of use; it maps to (cbi, rbi, twists): the
    bidegrees of the key's columns and rows relative to its first row,
    read from the modules at one block with that key, and the twist of
    the first row of each block with that key.  Only columns of twist <=
    max_degree join a block: a column above has no basis element in any
    slice through max_degree, so dropping it leaves every slice matrix
    there as it was.

    One pass over the entries, which must have passed _shape_fault, tests
    each before its window: its column's bidegree must be its row's plus
    (xdeg, ydeg).  The first that breaks this, in entry order, ends the
    split with no blocks; so a key fixes its relative bidegrees.  The pass
    joins each kept entry's row to its column's first row (union-find over
    target rows), and with no column in the window the split ends there.
    A second numbers each block's columns and rows through one slot per
    column and one per row of the whole differential, since a column or
    row lies in one block."""
    src, tgt, entries = res.modules[i].generators, res.modules[i - 1].generators, res.differentials[i - 1].entries
    # lists index without making an int per read, as arrays do
    sx, sy, tx, ty = src.dx.tolist(), src.dy.tolist(), tgt.dx.tolist(), tgt.dy.tolist()
    parent = list(range(len(tx)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    in_window = [a + b <= max_degree for a, b in zip(sx, sy)]
    first = [-1] * len(sx)  # each column joins the block of its first row
    for row, col, _sign, x, y in entries:
        if sx[col] != tx[row] + x or sy[col] != ty[row] + y:
            return f"entry ({row}, {col}) is not homogeneous", {}
        if in_window[col]:
            f = first[col]
            if f < 0:
                first[col] = row
            elif f != row:
                parent[find(row)] = find(f)
    if not any(in_window):
        return "", {}
    root = list(map(find, range(len(tx))))
    col_slot, row_slot = [-1] * len(sx), [-1] * len(tx)
    blocks: list = [None] * len(tx)  # at its root row: a block's (flat entries, columns, rows)
    for row, col, sign, x, y in entries:
        if not in_window[col]:
            continue
        block = blocks[root[row]]
        if block is None:
            block = blocks[root[row]] = ([], [], [])
        entries, cols, rows = block
        c = col_slot[col]
        if c < 0:
            c = col_slot[col] = len(cols)
            cols.append(col)
        r = row_slot[row]
        if r < 0:
            r = row_slot[row] = len(rows)
            rows.append(row)
        entries += (c, r, sign, x, y)
    keyed: dict[tuple, tuple[list, list, list[int]]] = {}
    for entries, cols, rows in filter(None, blocks):
        bx, by = tx[rows[0]], ty[rows[0]]
        key = tuple(entries)
        found = keyed.get(key)
        if found is None:  # the key's first block: bidegrees relative to its first row
            cbi = [(sx[c] - bx, sy[c] - by) for c in cols]
            found = keyed[key] = (cbi, [(tx[r] - bx, ty[r] - by) for r in rows], [])
        found[2].append(bx + by)
    return "", keyed


def _std_x(ring: MonomialIdeal, std: list, n: int) -> tuple[int, ...]:
    """x-exponents of the standard monomials of degree n >= 0, highest
    first; std caches them by degree and is extended on demand."""
    while len(std) <= n:
        std.append(_standard_x(ring, len(std)))
    return std[n]


def _block_ranks(
    key: tuple, cbi: list, rbi: list, ring: MonomialIdeal, top: int, fld: FieldConfig, tables: dict, std: list
):
    """(low, ranks): ranks[s] is the block's slice rank in degree low + s,
    counted from its first row's twist, through degree min(top, T) at
    least; from T on (see below) it is ranks[-1], which _spread holds on.
    cbi and rbi are the bidegrees of the key's columns and rows relative
    to its first row (see _split_blocks).  A column is alive in degree t
    only if its degree lies in [t - ring.top, t], so the columns, sorted
    by degree once per key, are visited only in that range.

    Every entry is homogeneous in the bigrading, so a slice is the direct
    sum of its bigraded pieces, and a piece has at most one basis element
    per generator: the generator times the one monomial of the piece's
    bidegree, if that monomial is standard.  An entry of sign s from a
    column alive in the piece to a row alive there is s in the piece's
    matrix; to a dead row, its product lies in M.  So a piece's matrix is
    the block's integer sign matrix on the columns and rows alive there:
    the key's entries are folded into one integer per cell, over F_p a
    residue in (-p, p), and cells that vanish dropped, once per key, and a
    piece's rank is computed once per (alive columns, alive rows) pattern
    and looked up after.  Each key's ranks are extended on demand.

    The ranks are constant from degree T = Pmax + Qmax on, where Pmax is
    the largest relative x-degree of a column or row plus a_1 and Qmax the
    largest relative y-degree plus b_r, so pieces are ranked only through
    min(top, T).  A piece (P, Q) with P >= Pmax and Q >= Qmax has no
    alive column: each column's monomial there is divisible by
    x^{a_1} y^{b_r}, which lies in M.  In degree
    t >= T every other piece has exactly one of P < Pmax or Q < Qmax; if
    P < Pmax, then Q - y >= b_r for every column and row, so by the
    staircase lemma (see MonomialIdeal) the piece's pattern depends on P
    alone, and likewise on Q alone if Q < Qmax.  So degree t has the
    pieces of degree T with the same patterns."""
    state = tables.get(key)
    if state is None:
        cells: list[dict[int, int]] = [{} for _ in cbi]
        it = iter(key)
        for c, r, s, _x, _y in zip(it, it, it, it, it):
            cells[c][r] = cells[c].get(r, 0) + s
        p = _modulus(fld)
        folded = [{r: w for r, v in col.items() if (w := v % p if p and not -p < v < p else v)} for col in cells]
        by_degree = sorted(range(len(cbi)), key=lambda c: sum(cbi[c]))
        degrees = [sum(cbi[c]) for c in by_degree]
        xs, ys = zip(*cbi, *rbi)
        settle = max(xs) + max(ys) + ring.flat + 1  # T = Pmax + Qmax, flat = a_1 + b_r - 1
        state = tables[key] = (folded, min(x + y for x, y in rbi), [], {}, by_degree, degrees, settle)
    cells, low, ranks, patterns, by_degree, degrees, settle = state
    last = min(top, settle)
    reach = ring.top
    _std_x(ring, std, min(last - low, reach))  # no column twist lies below its rows'
    stair = ring.stair
    n_stair, far = len(stair), stair[-1]
    for t in range(low + len(ranks), last + 1):
        pieces: dict[int, list[int]] = {}  # x-degree of a piece -> its alive columns
        for c in by_degree[bisect_left(degrees, t - reach) : bisect_right(degrees, t)]:
            cx, cy = cbi[c]
            for u in std[t - cx - cy]:
                pieces.setdefault(cx + u, []).append(c)
        total = 0
        for px, cols in pieces.items():
            py = t - px
            rows = set()
            for c in cols:
                for r in cells[c]:
                    rx, ry = rbi[r]
                    u = px - rx  # >= 0: no entry has a negative exponent (_shape_fault)
                    if py - ry < (stair[u] if u < n_stair else far):
                        rows.add(r)
            if not rows:
                continue
            pattern = (tuple(cols), frozenset(rows))
            rank = patterns.get(pattern)
            if rank is None:
                rank = patterns[pattern] = sparse_rank(
                    [{r: v for r, v in cells[c].items() if r in rows} for c in cols], fld
                )
            total += rank
        ranks.append(total)
    return low, ranks


def _spread(diff: list[int], lo: int, head, count: int) -> None:
    """Add count * head[d - lo] to the count that diff holds as a difference
    list (its value in degree d is diff[0] + ... + diff[d]), in every
    degree d of the window 0..len(diff)-1.  head is 0 below lo and its last
    value holds on past its end, so the work is at most len(head), however
    wide the window; the steps below degree 0 go into diff[0]."""
    prev = 0
    for d, h in zip(range(lo, len(diff)), head):
        diff[d if d > 0 else 0] += count * (h - prev)
        prev = h


def _hilbert(ring: MonomialIdeal) -> list[int]:
    """dim S_d for 0 <= d < flat, then tail.  By Hilbert-Burch, S has the
    Hilbert series (1 - sum_i t^{a_i+b_i} + sum_{i<r} t^{a_i+b_{i+1}}) / (1 - t)^2,
    the numerator's terms at the generators' degrees and at the lcms of
    neighbours, so the function is those terms summed twice."""
    gens, flat = ring.generators, ring.flat
    second = [0] * flat
    degrees = [(g.xdeg + g.ydeg, -1) for g in gens]
    lcms = [(g.xdeg + h.ydeg, 1) for g, h in zip(gens, gens[1:])]
    for d, sign in [(0, 1), *degrees, *lcms]:
        if d < flat:
            second[d] += sign
    return [*accumulate(accumulate(second)), ring.tail]


def _dims(res: Resolution, i: int, diff: list[int], hilbert: list[int]) -> None:
    """Spread dim (F_i)_d into diff: a generator of twist t adds S's
    Hilbert function, hilbert, from degree t on."""
    gens = res.modules[i].generators
    for t, count in Counter(map(add, gens.dx, gens.dy)).items():
        _spread(diff, t, hilbert, count)


def _ranks(res: Resolution, i: int, diff: list[int], std: list, fld: FieldConfig, tables: dict) -> str:
    """Spread the slice ranks of d_i into diff, each block's from its first
    row's twist on, and return the split's fault, which spreads nothing."""
    max_degree = len(diff) - 1
    fault, blocks = _split_blocks(res, i, max_degree)
    for key, (cbi, rbi, bases) in blocks.items():
        low, ranks = _block_ranks(key, cbi, rbi, res.ring, max_degree - min(bases), fld, tables, std)
        for base, count in Counter(bases).items():
            _spread(diff, base + low, ranks, count)
    return fault


def _require_stages(res: Resolution, max_stage: int, max_degree: int) -> None:
    """check_exactness's ValueErrors, raised before any map is read."""
    _require_window(res.ring, max_stage, max_degree)
    _require_count(res.modules, res.differentials)
    if len(res.differentials) < max_stage + 1 and res.modules[-1].rank > 0:
        raise ValueError(f"resolution built to stage {res.stages}; need stage {max_stage + 1}")


def _exactness_records(res: Resolution, max_stage: int, max_degree: int, fld: FieldConfig, shapes: list) -> list:
    """check_exactness's records; shapes is _shape_faults(res, k), k > max_stage."""
    records: list[CheckRecord] = []
    tables: dict = {}  # block key -> its folded cells and ranks, shared by all stages
    std: list = []
    ker = [0] * (max_degree + 1)  # first: a window no list can hold raises here, at once
    hilbert = _hilbert(res.ring)
    _dims(res, 0, ker, hilbert)
    _spread(ker, 0, (1, 0), -1)  # the augmentation F_0 -> k
    for i in range(1, max_stage + 2):
        dim, rank = [0] * (max_degree + 1), [0] * (max_degree + 1)
        if i <= len(shapes):  # d_i exists
            if fault := shapes[i - 1] or _ranks(res, i, rank, std, fld, tables):
                records.append(CheckRecord("exactness", i, None, False, fault))
                return records
            if i <= max_stage:  # F_{max_stage+1}'s dims feed only a ker no record reads
                _dims(res, i, dim, hilbert)
        for d, (k, im) in enumerate(zip(accumulate(ker), accumulate(rank))):
            detail = "" if k == im else f"dim ker={k} != dim im={im}"
            records.append(CheckRecord("exactness", i - 1, d, not detail, detail))
        ker = list(map(sub, dim, rank))
    return records


def check_exactness(
    res: Resolution, max_stage: int, max_degree: int, fld: FieldConfig = ExactRationals()
) -> VerificationReport:
    """Rank-nullity comparison dim ker = dim im on every degree slice.  It
    proves exactness only when check_complex passes too (check_resolution
    runs both): flipping the sign of d3's first entry breaks d2 d3 = 0 on
    most ideals, yet keeps every rank, and this check passes.

    Ranks come from the differentials' own entries and modules, so any
    Resolution is checked alike: engine-built, modified or loaded from
    JSON, whatever the order of its entries.  Each differential is split
    into connected blocks in two passes over its entries (_split_blocks);
    a slice's rank is the sum of its blocks' ranks, and a block's rank in
    a degree is the sum of the ranks of its bigraded pieces there, each
    ranked once per pattern of alive columns and rows (_block_ranks).
    dim (F_i)_d is read off F_i's twists for every i, F_0 included
    (_dims), so an F_0 that is not S fails; stage 0's kernel is that of
    the augmentation F_0 -> k, one less in degree 0.  Each count is a
    difference list that _spread adds to, summed only in the record loop.
    S's Hilbert function is summed from its Hilbert-Burch numerator through
    flat (_hilbert), from which it is tail (see MonomialIdeal), as a twist
    below 0 reads past the window's end; flat < 2 * max_degree by
    _require_window.  An entry of d_i that breaks
    the loader's rule or the bigrading (_shape_fault, then _split_blocks),
    wherever its column lies, ends the report with a failed record at
    stage i and no degree; no map above d_{max_stage + 1} is read."""
    _require_stages(res, max_stage, max_degree)
    records = _exactness_records(res, max_stage, max_degree, fld, _shape_faults(res, max_stage + 1))
    return VerificationReport(res.ring, records)


def check_resolution(
    res: Resolution, max_stage: int, max_degree: int, fld: FieldConfig = ExactRationals()
) -> VerificationReport:
    """check_complex's, check_minimality's and check_exactness's records,
    in that order, each map's entry rule read once; it raises what
    check_exactness raises.  Exactness by ranks is sound only beside the
    complex records: dim ker = dim im makes the homology vanish only when
    im d_{i+1} lies in ker d_i, that is, when d_i d_{i+1} = 0."""
    _require_stages(res, max_stage, max_degree)
    shapes = _shape_faults(res, len(res.differentials))
    records = _complex_records(res, shapes) + _map_records(res, "minimality", _unit_fault)
    return VerificationReport(res.ring, records + _exactness_records(res, max_stage, max_degree, fld, shapes))


def default_max_degree(ideal: MonomialIdeal, max_stage: int) -> int:
    return ideal.max_generator_degree * (max_stage + 2)


def _free_columns(free, pivots, images, twists, gens, d, width, std, stair):
    """The slice columns in degree d of the generators gens of F_{i-1}
    whose keys lie outside pivots, built one at a time as they are read;
    each column's key is appended to free before it is yielded.  images
    and twists are those of F_{i-1} (see minimal_resolution_bruteforce)."""
    n_stair, far = len(stair), stair[-1]
    for g in gens:
        n = d - twists[g]
        base = g * width + width - 1
        image = images[g]
        for a in std[n]:
            k = base - a
            if k not in pivots:
                free.append(k)
                b = n - a
                yield {tk - a: c for tk, tx, ty, c in image if ty + b < (stair[u] if (u := tx + a) < n_stair else far)}


def minimal_resolution_bruteforce(
    ideal: MonomialIdeal,
    max_stage: int,
    max_degree: int,
    fld: FieldConfig = ExactRationals(),
) -> BettiTable:
    """Graded Betti numbers computed from scratch, one syzygy stage at a
    time, without consulting the engine's matrices.  F_1 is read off S:
    the kernel of S -> k is (x, y)S, minimally generated by the standard
    monomials of degree 1.  Each stage i >= 2 is found as follows.

    In each degree d the kernel K_d of the slice map contains the shifted
    syzygies V_d = x*K_{d-1} + y*K_{d-1}, which are eliminated first.  The
    echelon basis of V_d has distinct pivot coordinates P, so projecting
    onto P is an isomorphism on V_d, and K_d is the direct sum of V_d and
    the kernel vectors that vanish on P.  Only the slice columns outside P
    are built, and every vector of their nullspace is a new minimal
    generator.

    The basis of K_d carried to degree d + 1 has two parts: X, the pivots
    installed from x-shifts, which are eliminated first and so span
    x*K_{d-1}; and R, the pivots installed from y-shifts with the new
    generators.  Then V_{d+1} = x*K_d + y*R, because
    y*X = y*x*K_{d-1} = x*(y*K_{d-1}) lies in x*K_d.

    Three rules, read off M and the oracle's own earlier stages, never the
    engine, spare the work that finds no new generator:

    - Rank-nullity.  F_{i-1}'s generators span the previous stage's kernel
      K', so the slice map in degree d has rank dim K'_d and
      dim K_d = dim (F_{i-1})_d - dim K'_d.  Unrolled down to F_0 = S,
      dim K_d is an alternating sum of slice sizes, each a sum of
      dim S_{d-t} over a module's twists t; euler holds those twists with
      their signed counts.  K_d holds need = dim K_d - |P| new generators,
      and when that is 0 no column is built and no nullspace taken.  The
      augmentation's 1 in degree 0 is left out of the sum: no stage
      i >= 2 visits degree 0.
    - The nullspace stops at its count.  When need > 0 the free columns,
      those outside P, are built one at a time as sparse_nullspace reads
      them, and it reads none after the need-th vector.  The nullspace of
      the free columns has exactly need vectors, by rank-nullity as above,
      and each vector found combines its own column with earlier columns
      only, so the first need found are the whole basis.
    - Stage i >= 2 ends at degree m_x + m_y + c, with c = flat - [r >= 2].
      Each generator found is bihomogeneous, since elimination combines
      only columns that share a row, and a bigraded piece of the slice map
      is one integer matrix on the columns and rows alive there.  Let m_x
      and m_y be the largest x- and y-degrees of F_{i-1}'s generators; a
      row's bidegree lies below its columns'.  By the staircase lemma (see
      MonomialIdeal), pieces (P, Q) and (P + 1, Q) with P >= m_x + a_1
      have the same alive columns, rows and entries, and
      K_(P+1,Q) = x*K_(P,Q) holds no new generator; likewise in y from
      m_y + b_r on.  So a new generator lies at P <= m_x + a_1 and
      Q <= m_y + b_r, and it is nonzero on a column g alive there:
      x^(P-g_x) y^(Q-g_y) is not in M.  At P = m_x + a_1 every column has
      P - g_x >= a_1, so it is alive only if Q - g_y < b_1, and then
      Q <= m_y + b_1 - 1.  At Q = m_y + b_r, likewise, P <= m_x + a_r - 1.
      Otherwise P <= m_x + a_1 - 1 and Q <= m_y + b_r - 1.  So c is
      a_1 + b_r - 2 = flat - 1 when r >= 2, where b_1 < b_r and a_r < a_1,
      and a_1 + b_1 - 1 = flat when r = 1.  The bound is tight: on
      (x, y^2) at every stage >= 2 and on (xy) at odd stages the last
      generator lies on it.

    The basis element g*x^a*y^b of a slice in degree d is the int key
    g*W + (W-1-a), W = max_degree + 1: keys sort by generator, then by
    falling x-degree, and b is d - twist(g) - a.  Multiplying by x is
    key - 1, by y the key itself.  A product is tested against M with the
    ring's stair, clamped inline, so no index of a slice's basis is built
    and nothing is sized by the window."""
    _require_window(ideal, max_stage, max_degree)
    p = _modulus(fld)
    width = max_degree + 1
    stair = ideal.stair
    n_stair, far = len(stair), stair[-1]
    top = min(max_degree, ideal.top)
    # c of the staircase bound: stage i >= 2 ends at degree m_x + m_y + c
    corner = ideal.flat - (ideal.num_generators > 1)
    # std[n]: x-degrees of the standard monomials of degree n, extended
    # by each stage through its last degree
    std: list = []
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    # F_{i-1} data: generator twists, nondecreasing, x-degrees and images,
    # each a list of (key, xdeg, ydeg, coeff) over F_{i-2}'s slice in the
    # generator's twist; F_1 is read off S: x^a y^(1-a) maps to itself.
    ones = _std_x(ideal, std, 1) if max_stage else ()
    twists, xdegs = [1] * len(ones), list(ones)
    images = [[(width - 1 - a, a, 1 - a, 1)] for a in ones]
    if ones:
        entries[(1, 1)] = len(ones)
    # (twist, count) pairs: dim K_d is the sum of count * dim S_{d - twist}
    euler = [(0, 1)]  # stage 1's: dim (x, y)S_d, the augmentation's 1 left out
    for stage in range(2, max_stage + 1):
        if not twists:
            break
        signed = Counter(twists)  # dim K_d = dim (F_{i-1})_d - dim K'_d
        signed.subtract(dict(euler))
        euler = [(t, c) for t, c in signed.items() if c]
        last = min(max_degree, max(xdegs) + max(map(sub, twists, xdegs)) + corner)
        _std_x(ideal, std, min(top, last))
        new_twists: list[int] = []
        new_xdegs: list[int] = []
        new_gens: list[list[tuple[int, int, int, int]]] = []
        # K_{d-1}'s basis as sparse {key: coeff}: X from x-shifts, R the rest
        x_part: list[dict] = []
        r_part: list[dict] = []
        # the generators twist[g] <= d with a nonzero slice in degree d
        # are first <= g < alive; with none, K_d is 0 and the next nonzero
        # slice is at the next twist
        count, first, alive, d = len(twists), 0, 0, 0
        while d <= last:
            while alive < count and twists[alive] <= d:
                alive += 1
            while first < alive and twists[first] < d - top:
                first += 1
            if first == alive:
                x_part, r_part = [], []
                if alive == count:
                    break
                d = twists[alive]
                continue
            # V_d in echelon form, x-shifts first.  A key k of degree d - 1
            # has x-degree W-1-(k % W) and twist twists[k // W]; its shift of
            # x-degree u has y-degree d - twist - u, and is dropped in M.
            pivots: dict = {}
            for vec in x_part + r_part:
                shifted = {}
                for k, c in vec.items():
                    u = width - k % width
                    if d - u - twists[k // width] < (stair[u] if u < n_stair else far):
                        shifted[k - 1] = c
                _eliminate(shifted, pivots, p)
            from_x = len(pivots)
            for vec in r_part:
                shifted = {}
                for k, c in vec.items():
                    u = width - 1 - k % width
                    if d - u - twists[k // width] < (stair[u] if u < n_stair else far):
                        shifted[k] = c
                _eliminate(shifted, pivots, p)
            found: list[dict] = []
            if (need := sum(c * len(std[d - t]) for t, c in euler if d - top <= t <= d) - len(pivots)) > 0:
                free: list[int] = []  # the keys of the columns read, in order
                columns = _free_columns(free, pivots, images, twists, range(first, alive), d, width, std, stair)
                # over F_p the coefficients are balanced: a -1 stays -1, a
                # pivot lead that later eliminations install without an inverse
                found = [{free[j]: c for j, c in vec.items()} for vec in sparse_nullspace(columns, fld, limit=need)]
            if found:
                entries[(stage, d)] = len(found)
                new_twists += [d] * len(found)
                for vec in found:
                    image = []
                    for k, c in vec.items():
                        g, r = divmod(k, width)
                        a = width - 1 - r
                        image.append((k, a, d - twists[g] - a, c))
                    new_xdegs.append(xdegs[g] + a)  # bihomogeneous: any key gives it
                    new_gens.append(image)
            basis = list(pivots.values())
            x_part, r_part = basis[:from_x], basis[from_x:] + found
            d += 1
        twists, xdegs, images = new_twists, new_xdegs, new_gens
    return BettiTable(entries, max_stage=max_stage, max_degree=max_degree)


@dataclass(frozen=True)
class BettiDiff:
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, d, left, right)

    @property
    def is_empty(self) -> bool:
        return not self.mismatches


def compare_betti(a: BettiTable, b: BettiTable) -> BettiDiff:
    """Differences on the common (stage, degree) window."""
    max_stage = min(a.max_stage, b.max_stage)
    degrees = [x.max_degree for x in (a, b) if x.max_degree is not None]
    max_degree = min(degrees) if degrees else None
    keys = set(a.entries) | set(b.entries)
    out = []
    for i, d in sorted(keys):
        if i > max_stage or (max_degree is not None and d > max_degree):
            continue
        va, vb = a.entries.get((i, d), 0), b.entries.get((i, d), 0)
        if va != vb:
            out.append((i, d, va, vb))
    return BettiDiff(tuple(out))
