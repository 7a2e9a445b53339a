"""Explicit graded minimal free resolutions of k over S = k[x,y]/M.

_regime, the one home of the regime split, classifies M and names its
stage source, Betti counter and bigrading check; build_resolution, the
one builder, wraps each stage the source yields.  The main-case
resolution is assembled from three column templates (the maps into a
rank-1 target, an {e_x,e_y} pair, and a full {e_f_1..e_f_{r+1}}
stage-two module).  From stage four on, every module is a direct sum of
copies of F1, F2 and F3 and the next differential is block diagonal in
instantiated templates.  One pure function, _main_rule, states the
templates and which blocks of the next stage each block carries; the
builder instantiates them.  Type II, a single generator, is the main
case at r = 1 and is built by the same rule.  Degenerate types I, III,
IV and V are one Kunneth product of the one-variable resolutions of k.

A Resolution states M, each F_i and each map d_i: F_i -> F_{i-1} once, a
map as its entries alone, and keeps its ints in arrays: a map's entries
in one array('q') of five ints each and a module's bidegrees in two.  A
main-case stage stores no label per generator, since a rule renders its
labels on demand; a Kunneth stage i holds at most i + 1 generators and
keeps their labels as a tuple of strings.

Graded Betti numbers need no matrices: a counting pass advances the
number of F1, F2 and F3 blocks per base degree over the same rule table,
so stage 40 takes milliseconds; a Kunneth product's are read off the two
factors' twists by the reachability rule its builder uses.  Each map's
bigrading is checked the same way, on the rule table or on the factors'
twists and powers, so engine-oracle agreement builds no resolution.  The
checks of a built or loaded resolution are in :mod:`stairstep.oracle`,
which shares the loader's rules.
"""
from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable

from .classify import IdealClass, classify
from .monomials import Monomial, MonomialIdeal, normalize_ideal, term_str


class StageTooSmall(ValueError):
    pass


# the index of the byte of a native int64 that holds its sign bit
_TOP = 7 if sys.byteorder == "little" else 0


def _append_ints(target: array, values: list[int]) -> array:
    """Append the ints to an ``array('q')`` and return it.  ``struct``
    packs a list about four times as fast as ``array.extend`` converts it;
    on a value it cannot pack, ``extend`` raises its own OverflowError or
    TypeError."""
    try:
        # a Struct of its own: struct.pack would cache one per list length
        target.frombytes(struct.Struct(f"{len(values)}q").pack(*values))
    except struct.error:
        target.extend(values)
    return target


class Generators:
    """The generators of a graded free module: generator i has bidegree
    (dx[i], dy[i]), two int arrays, and the i-th label of ``labels``.

    ``labels`` is anything iterated in generator order: for a main-case
    stage a rule that renders its labels when iterated, so no
    per-generator object is stored, and otherwise a tuple of strings.
    Iterating yields ``(label, (dx, dy))`` pairs, made on demand."""

    __slots__ = ("dx", "dy", "labels")

    def __init__(self, dx: array, dy: array, labels) -> None:
        self.dx, self.dy, self.labels = dx, dy, labels

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, tuple[int, int]]]) -> "Generators":
        pairs = tuple(pairs)
        return cls(
            _append_ints(array("q"), [dx for _label, (dx, _dy) in pairs]),
            _append_ints(array("q"), [dy for _label, (_dx, dy) in pairs]),
            tuple(label for label, _bideg in pairs),
        )

    def __len__(self) -> int:
        return len(self.dx)

    def __iter__(self):
        return zip(self.labels, zip(self.dx, self.dy))

    def __eq__(self, other) -> bool:
        return isinstance(other, Generators) and list(self) == list(other)


@dataclass(frozen=True)
class GradedFreeModule:
    """Ordered labeled generators, each with a bidegree twist.

    ``generators`` is a :class:`Generators`; any iterable of
    ``(label, (dx, dy))`` pairs is accepted and stored as one."""

    generators: Generators

    def __post_init__(self) -> None:
        if not isinstance(self.generators, Generators):
            object.__setattr__(self, "generators", Generators.of(self.generators))

    @property
    def rank(self) -> int:
        return len(self.generators)


class Entries:
    """The entries of a sparse matrix in one int array, five ints per
    entry: row, col, sign, xdeg, ydeg, the term sign * x^xdeg y^ydeg in row
    ``row`` of column ``col``.

    ``len`` is the entry count.  Iterating yields ``(row, col, sign, xdeg,
    ydeg)`` tuples, made on demand."""

    __slots__ = ("ints",)

    def __init__(self, ints: array) -> None:
        self.ints = ints

    @classmethod
    def of(cls, entries: Iterable[tuple[int, int, int, int, int]]) -> "Entries":
        ints: list[int] = []
        for row, col, sign, x, y in entries:
            ints += (row, col, sign, x, y)
        return cls(_append_ints(array("q"), ints))

    def __len__(self) -> int:
        return len(self.ints) // 5

    def __iter__(self):
        it = iter(self.ints)
        return zip(it, it, it, it, it)

    def __eq__(self, other) -> bool:
        return isinstance(other, Entries) and self.ints == other.ints


@dataclass(frozen=True)
class Differential:
    """The entries of a map d_i: F_i -> F_{i-1}, whose modules and ring the
    :class:`Resolution` holds.  Any iterable of (row, col, sign, xdeg,
    ydeg) tuples, the term sign * x^xdeg y^ydeg with nonnegative exponents
    in row ``row`` of column ``col``, is stored as an :class:`Entries`."""

    entries: Entries

    def __post_init__(self) -> None:
        if not isinstance(self.entries, Entries):
            object.__setattr__(self, "entries", Entries.of(self.entries))


def _require_count(modules: list, maps: list) -> None:
    """ValueError unless each map d_i has its F_i and F_{i-1} and each F_i, i >= 1, its d_i."""
    if len(modules) != len(maps) + 1:
        raise ValueError(f"{len(maps)} differentials between {len(modules)} modules")


def _shape_fault(res: Resolution, i: int) -> str:
    """Why d_i of a resolution that passes :func:`_require_count` breaks the
    entry rule of the loader and the checks, or "": each row in [0, rank
    F_{i-1}), col in [0, rank F_i), sign 1 or -1 and both exponents >= 0,
    tested in that order.  Read as unsigned, a negative row or col exceeds
    every rank, so one max per field and a set of the signs test the rule;
    an exponent is negative exactly when the top byte of its int64 is
    above 127, so the top bytes of an exponent field are ASCII exactly
    when none of its values is negative."""
    ints, n_rows, n_cols = res.differentials[i - 1].entries.ints, res.modules[i - 1].rank, res.modules[i].rank
    rows, cols = array("Q", ints[0::5].tobytes()), array("Q", ints[1::5].tobytes())
    if rows and (max(rows) >= n_rows or max(cols) >= n_cols):
        row, col = next((r, c) for r, c in zip(ints[0::5], ints[1::5]) if not (0 <= r < n_rows and 0 <= c < n_cols))
        return f"entry ({row}, {col}) of d{i} is outside its {n_rows}x{n_cols} matrix"
    if not set(ints[2::5]) <= {1, -1}:
        row, col, sign, _x, _y = next(e for e in res.differentials[i - 1].entries if e[2] not in (1, -1))
        return f"entry ({row}, {col}) of d{i} has sign {sign}, not 1 or -1"
    if not (ints[3::5].tobytes()[_TOP::8].isascii() and ints[4::5].tobytes()[_TOP::8].isascii()):
        row, col, _sign, x, y = next(e for e in res.differentials[i - 1].entries if e[3] < 0 or e[4] < 0)
        return f"entry ({row}, {col}) of d{i} has a negative exponent in {(x, y)}"
    return ""


@dataclass
class Resolution:
    """The modules F_0..F_n and the maps d_i: F_i -> F_{i-1}; nothing
    derived from them is stored beside them."""

    ring: MonomialIdeal
    modules: list[GradedFreeModule]
    differentials: list[Differential]

    # Not a field: read only by the benchmark's traced with_blocks counter;
    # it goes with the next benchmark change.
    blocks = None

    @property
    def ideal_class(self) -> IdealClass:
        return classify(self.ring)

    @property
    def stages(self) -> int:
        return len(self.modules) - 1

    def total_betti_numbers(self) -> list[int]:
        return [m.rank for m in self.modules]

    def dense_strings(self, i: int) -> list[list[str]]:
        """The matrix of d_i, rank F_{i-1} rows of rank F_i terms."""
        grid = [["0"] * self.modules[i].rank for _ in range(self.modules[i - 1].rank)]
        for row, col, sign, x, y in self.differentials[i - 1].entries:
            grid[row][col] = ("-" if sign < 0 else "") + term_str(x, y)
        return grid


def _main_rule(gens) -> tuple[dict, dict, dict]:
    """(offsets, templates, children): the F1/F2/F3 column templates of the
    main-case ideal with generators ``gens`` and the one rule that places
    them, as plain tuples keyed by block kind.  The exponents meet only +
    and -, and the case split is their one comparison, so the rule runs
    on ints and on affine forms in the exponents alike.

    A template is one (dx, dy) generator offset per column and its
    entries, each (row, column offset, sign, xdeg, ydeg).  An instance
    based at bidegree B has one generator at B + offset per column.
    ``children`` is the recursion, keyed by the kind of a block of the
    next stage, then by the kind of the block of the last stage it is
    based on, parent kinds in stage order: each (base offset, rows), the
    rows of the template's entries resolved against the parent block's
    first generator.  An F1 sits at the F0 and at B + D for each F3 at B,
    an F2 at each F1 and at B + G for each F3 at B, and an F3 at each F2.
    G holds the first r F2 offsets (a_i, b_i); D holds the offsets
    (a_i, b_{i+1}) of the F3 columns d_i."""
    a, b = [g.xdeg for g in gens], [g.ydeg for g in gens]
    r, case = len(gens), 1 if a[-1] >= 1 else 2
    # F1: the e_x and e_y columns, each x or y into the one row it maps into
    f1 = ((0, 0, 1, 1, 0), (0, 1, 1, 0, 1))
    # F2: an entry's row is 0 for the x-row, 1 for the y-row
    f2 = []
    for i in range(r):
        if case == 1 or i < r - 1:
            f2.append((0, i, 1, a[i] - 1, b[i]))
        else:
            f2.append((1, i, 1, 0, b[r - 1] - 1))
    f2 += [(0, r, -1, 0, 1), (1, r, 1, 1, 0)]
    # F3: the columns c_i^x, then c_i^y, then d_i; an entry's row is
    # relative to the first row of the F2 block it maps into
    f3 = []
    for i in range(r):
        f3.append((i, i, 1, 1, 0))
        if case == 2 and i == r - 1:
            f3.append((r, i, -1, 0, b[r - 1] - 1))
    for i in range(r):
        if case == 2 and i == r - 1:
            f3.append((r - 1, r + i, 1, 0, 1))
        else:
            f3 += [(i, r + i, 1, 0, 1), (r, r + i, 1, a[i] - 1, b[i])]
    for i in range(r - 1):
        f3.append((r, 2 * r + i, 1, a[i] - 1, b[i + 1] - 1))
    g, d = tuple(zip(a, b)), tuple((a[i], b[i + 1]) for i in range(r - 1))
    offsets = {
        "F1": ((1, 0), (0, 1)),
        "F2": g + ((1, 1),),
        "F3": tuple([(x + 1, y) for x, y in g] + [(x, y + 1) for x, y in g]) + d,
    }

    def child(base, template, rows):
        return base, tuple(rows[entry[0]] for entry in template)

    children = {
        # at the F0, and into d_j of each F3
        "F1": {
            "F0": (child((0, 0), f1, (0,)),),
            "F3": tuple(child(d[j], f1, (2 * r + j,)) for j in range(r - 1)),
        },
        # at each F1, and into the columns c_j^x and c_j^y of each F3
        "F2": {
            "F1": (child((0, 0), f2, (0, 1)),),
            "F3": tuple(child(g[j], f2, (j, r + j)) for j in range(r)),
        },
        "F3": {"F2": (child((0, 0), f3, range(r + 1)),)},
    }
    return offsets, {"F1": f1, "F2": tuple(f2), "F3": tuple(f3)}, children


def _main_block_bases(children: dict, stages: int):
    """Yield (stage, bases) for stages 1..stages, bases mapping F1, F2 and
    F3 to the number of blocks of that kind per total degree of their base.

    The counts advance over ``children``, the rule table of
    :func:`_main_rule` that :func:`_main_stages` builds from, with no
    module or matrix built."""
    counts: dict[str, dict[int, int]] = {"F0": {0: 1}}
    for stage in range(1, stages + 1):
        bases: dict[str, dict[int, int]] = {}
        for kind, kids in children.items():
            out = bases[kind] = {}
            for parent, placed in kids.items():
                for base, c in counts.get(parent, {}).items():
                    for (ox, oy), _rows in placed:
                        out[base + ox + oy] = out.get(base + ox + oy, 0) + c
        counts = bases
        yield stage, bases


def _main_betti_counts(ideal: MonomialIdeal, stages: int) -> dict[tuple[int, int], int]:
    """Graded Betti numbers beta_{i,d} of the main-case resolution through
    ``stages``: a block adds one generator per template column at its base
    degree plus the column's."""
    offsets, _templates, children = _main_rule(ideal.generators)
    degrees = {kind: [dx + dy for dx, dy in kind_offsets] for kind, kind_offsets in offsets.items()}
    entries = {(0, 0): 1}
    for stage, bases in _main_block_bases(children, stages):
        gens: dict[int, int] = {}
        for kind, counts in bases.items():
            for base, c in counts.items():
                for deg in degrees[kind]:
                    gens[base + deg] = gens.get(base + deg, 0) + c
        for deg, c in gens.items():
            entries[(stage, deg)] = c
    return entries


def _main_bigrading_faults(ideal: MonomialIdeal, stages: int) -> list[tuple[int, str]]:
    """(stage, detail) for each map d_1..d_stages of the main-case
    resolution with an entry that breaks the bigrading, read off the rule
    table of :func:`_main_rule` with no module or matrix built.

    An entry of a block of kind K at offset o on a parent block of kind P
    maps template column c to the parent's column rel[e].  Whatever the
    parent's base B, its column lies at B + o + off_K[c] and its row at B +
    off_P[rel[e]], so it is homogeneous iff o + off_K[c] = off_P[rel[e]] +
    (xdeg, ydeg).  One pass over the table finds, per parent kind, the
    first bad entry of the first pair on it, and d_i fails iff stage i - 1,
    whose block kinds :func:`_main_block_bases` counts, holds a block of
    such a kind.  The detail names that entry in the rule's terms, as in
    "the F2 template's entry 3 at placement 1 on an F3 is not homogeneous";
    check_homogeneity names the matrix cell of a built resolution."""
    offsets, templates, children = _main_rule(ideal.generators)
    offsets = {"F0": ((0, 0),), **offsets}
    bad: dict[str, str] = {}  # parent kind -> the detail of its first bad pair
    for kind, kids in children.items():
        for parent, placed in kids.items():
            for j, ((ox, oy), rel) in enumerate(placed):
                for e, ((_row, c, _sign, x, y), row) in enumerate(zip(templates[kind], rel)):
                    (cx, cy), (rx, ry) = offsets[kind][c], offsets[parent][row]
                    if (ox + cx, oy + cy) != (rx + x, ry + y):
                        bad.setdefault(parent, f"the {kind} template's entry {e} at placement {j} on an {parent}")
    if not bad:
        return []
    faults, held = [], {"F0"}  # the block kinds of the last stage
    for stage, bases in _main_block_bases(children, stages):
        if detail := next((detail for parent, detail in bad.items() if parent in held), None):
            faults.append((stage, detail + " is not homogeneous"))
        held = {kind for kind, counts in bases.items() if counts}
    return faults


class _MainLabels:
    """The generator labels of one main-case stage, rendered on demand.

    A stage holds u F1 blocks, then v F2 blocks, then w F3 blocks, of
    widths 2, r + 1 and 3r - 1, so a label depends only on r, the stage
    and the counts.  Through stage 3 a label is its column's name: e_x and
    e_y, f1..f{r+1}, or c1^x..cr^x, c1^y..cr^y, d1..d{r-1}.  From stage 4
    on, with n the block's number among its kind, an F1's labels are h{n}^x
    and h{n}^y, an F2's k1,{n}..k{r+1},{n}, and an F3's its columns'
    names; from stage 5 on each ends in "@{stage}.{block}" with the
    block's index in the stage.  Iterating renders each kind's labels
    with one comprehension."""

    __slots__ = ("r", "stage", "counts")

    def __init__(self, r: int, stage: int, counts: tuple[int, int, int]) -> None:
        self.r, self.stage, self.counts = r, stage, counts

    def __iter__(self):
        (u, v, w), ks = self.counts, range(1, self.r + 2)
        cd = [f"c{i}^{s}" for s in "xy" for i in range(1, self.r + 1)] + [f"d{i}" for i in range(1, self.r)]
        if self.stage < 4:
            return iter(["e_x", "e_y"] * u + [f"f{k}" for k in ks] * v + cd * w)
        ats = [f"@{self.stage}.{b}" for b in range(u + v + w)] if self.stage >= 5 else [""] * (u + v + w)
        f2_posts = [f"{n}{at}" for n, at in enumerate(ats[u : u + v], 1)]
        f2_names = [f"k{k}," for k in ks]
        return iter(
            [f"h{n}^{s}{at}" for n, at in enumerate(ats[:u], 1) for s in "xy"]
            + [name + post for post in f2_posts for name in f2_names]
            + [name + at for at in ats[u + v :] for name in cd]
        )


def _main_stages(ideal: MonomialIdeal, stages: int):
    """Yield stages 1..stages of the main-case resolution, each as
    (dx, dy, labels, entries).

    Every block of the last stage places its children by the rule table
    of :func:`_main_rule`; the new stage holds the F1 instances, then the
    F2s, then the F3s, each kind in the order of the blocks they are based
    at.  A kind's instances are written together, straight into the
    layout :class:`Entries` stores: the kind's template entries, flattened
    once per ideal into one int array, are repeated once per instance, and
    two comprehensions overwrite the row field, with the resolved template
    rows, and the column field; the kinds' blocks are joined with +, which
    allocates the stage's array at its final size.  Their bidegrees take
    one comprehension per coordinate.  The stage's labels are a
    :class:`_MainLabels` rule, so no label is stored."""
    (offsets, templates, children), r = _main_rule(ideal.generators), len(ideal.generators)
    flat = {kind: array("q", [v for entry in t for v in entry]) for kind, t in templates.items()}
    # the last stage's blocks per kind: (first generator, base x, base y)
    last: dict[str, list[tuple[int, int, int]]] = {"F0": [(0, 0, 0)]}
    for stage in range(1, stages + 1):
        ints, dx, dy = array("q"), array("q"), array("q")
        blocks: dict[str, list[tuple[int, int, int]]] = {}
        counts: list[int] = []  # the blocks of each kind
        for kind, kids in children.items():
            kind_offsets, template = offsets[kind], flat[kind]
            # (first target row, resolved rows, base x, base y) per instance
            placed = [
                (start, rel, bx + ox, by + oy)
                for parent, at_parent in kids.items()
                for start, bx, by in last.get(parent, ())
                for (ox, oy), rel in at_parent
            ]
            n, width, c0 = len(placed), len(kind_offsets), len(dx)
            counts.append(n)
            blocks[kind] = []
            if not n:
                continue
            firsts, tcols = range(c0, c0 + n * width, width), template[1::5]
            block = template * n
            block[0::5] = _append_ints(array("q"), [start + row for start, rel, _x, _y in placed for row in rel])
            block[1::5] = _append_ints(array("q"), [c + k for c in firsts for k in tcols])
            ints = ints + block  # += would leave spare room in the stored array
            _append_ints(dx, [x + ox for _s, _r, x, _y in placed for ox, _oy in kind_offsets])
            _append_ints(dy, [y + oy for _s, _r, _x, y in placed for _ox, oy in kind_offsets])
            blocks[kind] = [(c, x, y) for c, (_s, _r, x, y) in zip(firsts, placed)]
        yield dx, dy, _MainLabels(r, stage, tuple(counts)), Entries(ints)
        last = blocks


def _factor(e: int | None, n: int) -> tuple[list[int], list[int]]:
    """Twists and map exponents of the minimal resolution of k over one
    factor k[v]/(v^e) through stage n: k[v] (e None) has the one map v,
    k (e = 1) none, and e >= 2 maps alternating v and v^(e-1).  Generator
    u_p has twist e*(p//2) + p%2 and d(u_p) = v^powers[p] * u_{p-1}."""
    top = n if e is not None and e >= 2 else 0 if e == 1 else min(n, 1)
    twists = [(e or 0) * (p // 2) + p % 2 for p in range(top + 1)]
    powers = [0] + [1 if p % 2 else e - 1 for p in range(1, top + 1)]
    return twists, powers


def _product_factors(ideal: MonomialIdeal, n: int):
    """(xtw, xpow), (ytw, ypow): the _factor data of k[x]/(x^a) and
    k[y]/(y^b) through stage n, a factor k[v] where M holds no power of v."""
    first, last = ideal.generators[0], ideal.generators[-1]
    return (
        _factor(first.xdeg if first.ydeg == 0 else None, n),
        _factor(last.ydeg if last.xdeg == 0 else None, n),
    )


def _product_stage(tx: int, ty: int, i: int) -> range:
    """The p of the generators u_p*v_{i-p} of stage i that both factors
    reach, tx and ty being the factors' top stages: p <= tx, i - p <= ty."""
    return range(max(0, i - ty), min(i, tx) + 1)


def _product_betti_counts(ideal: MonomialIdeal, stages: int) -> dict[tuple[int, int], int]:
    """Graded Betti numbers beta_{i,d} of the Kunneth product through
    ``stages``: one generator per reachable p, of twist xtw[p] + ytw[i-p]."""
    (xtw, _), (ytw, _) = _product_factors(ideal, stages)
    entries: dict[tuple[int, int], int] = {}
    for i in range(stages + 1):
        for p in _product_stage(len(xtw) - 1, len(ytw) - 1, i):
            key = (i, xtw[p] + ytw[i - p])
            entries[key] = entries.get(key, 0) + 1
    return entries


def _product_stages(ideal: MonomialIdeal, n: int):
    """Yield stages 1..n of types I, III, IV and V, each as (dx, dy,
    labels, entries).

    S is k[x]/(x^a) tensor k[y]/(y^b), where a factor is k[v] when M holds
    no power of v.  By Kunneth (Tate 1957) the tensor product of the two
    factors' minimal resolutions of k is a minimal resolution of k over S.
    Over k[v] that is the one map v; over k[v]/(v) = k there are no maps;
    over k[v]/(v^e), e >= 2, the maps alternate v and v^(e-1).  Stage i
    holds the generators u_p*v_q (u_p tensor v_q) with p + q = i that both
    factors reach, in the order (i,0), (0,i), (i-1,1), (1,i-1), ..., and
    the Koszul differential d(u_p*v_q) = du_p*v_q + (-1)^p u_p*dv_q.  Each
    generator is then multiplied by eps(p, q) = -1 exactly when, with
    k = min(p, q), "k >= 1 and (k-1)//2 is odd" XOR "p > q, q odd and p
    even".  The Koszul signs alone give a resolution too; this basis change
    keeps the appendix's signs, which the earlier inductive type-V
    construction gave and the pinned JSON records."""
    (xtw, xpow), (ytw, ypow) = _product_factors(ideal, n)
    tx, ty = len(xtw) - 1, len(ytw) - 1
    stem = "g" if classify(ideal) is IdealClass.TYPE_IV else "e"
    # per stage i, indexed by p: the row of u_p*v_{i-p} and its sign eps
    rows, signs = {0: 0}, {0: 1}
    for i in range(1, n + 1):
        # the reached p in the order (i,0), (0,i), (i-1,1), (1,i-1), ...
        ps = sorted(_product_stage(tx, ty, i), key=lambda p: (min(p, i - p), -p))
        if i == 1:
            labels = ("g",) * len(ps) if stem == "g" else tuple("e_x" if p else "e_y" for p in ps)
        elif len(ps) == 1:
            labels = (f"{stem}({i})",)
        else:
            labels = tuple(f"{stem}{c}({i})" for c in range(1, len(ps) + 1))
        prev_rows, prev_signs = rows, signs
        rows, signs = {}, {}
        dx, dy = array("q"), array("q")
        entries: list[tuple[int, int, int, int, int]] = []
        for c, p in enumerate(ps):
            q = i - p
            rows[p] = c
            k = p if p < q else q  # eps(p, q), as the docstring states it
            flip = (k and (k - 1) // 2 % 2) != (p > q and q % 2 == 1 and p % 2 == 0)
            signs[p] = s = -1 if flip else 1
            dx.append(xtw[p])
            dy.append(ytw[q])
            # d(u_p*v_q) = du_p*v_q + (-1)^p u_p*dv_q, in ascending rows:
            # u_p*v_{q-1} precedes u_{p-1}*v_q exactly when p >= q
            if p:
                by_x = (prev_rows[p - 1], c, s * prev_signs[p - 1], xpow[p], 0)
                if not q:
                    entries.append(by_x)
                    continue
            s *= -prev_signs[p] if p % 2 else prev_signs[p]
            by_y = (prev_rows[p], c, s, 0, ypow[q])
            entries += (by_y, by_x) if p >= q else (by_x, by_y) if p else (by_y,)
        yield dx, dy, labels, entries


def _product_bigrading_faults(ideal: MonomialIdeal, stages: int) -> list[tuple[int, str]]:
    """(stage, detail) for each map d_1..d_stages of the Kunneth product
    with an entry that breaks the bigrading, read off the factors' data
    with no module or matrix built.

    The entry of u_p*v_q through du_p maps it, at (xtw[p], ytw[q]), to
    u_{p-1}*v_q by x^xpow[p], so it is homogeneous iff xtw[p] = xtw[p-1] +
    xpow[p]; the entry through dv_q likewise iff ytw[q] = ytw[q-1] +
    ypow[q].  A bad x-step p fails d_i iff p is in stage i's reach
    (:func:`_product_stage`), a bad y-step q iff i - q is.  The detail
    names the factor step, the x factor's least bad step first, as in
    "d(u_2) of the x factor is not homogeneous"; check_homogeneity names
    the matrix cell of a built resolution."""
    (xtw, xpow), (ytw, ypow) = _product_factors(ideal, stages)
    x_bad = [p for p in range(1, len(xtw)) if xtw[p] != xtw[p - 1] + xpow[p]]
    y_bad = [q for q in range(1, len(ytw)) if ytw[q] != ytw[q - 1] + ypow[q]]
    if not x_bad + y_bad:
        return []
    faults = []
    for i in range(1, stages + 1):
        reach = _product_stage(len(xtw) - 1, len(ytw) - 1, i)
        steps = [f"d(u_{p}) of the x factor" for p in x_bad if p in reach]
        steps += [f"d(v_{q}) of the y factor" for q in y_bad if i - q in reach]
        if steps:
            faults.append((i, steps[0] + " is not homogeneous"))
    return faults


def _regime(ideal: MonomialIdeal, stages: int):
    """(stage source, Betti counter, bigrading check) of M's regime, read
    by name when this runs; type II is built, counted and checked over the
    main-case rule table at r = 1.  The check reads the rule alone, so
    engine-oracle agreement needs no resolution built."""
    if stages < 0:
        raise StageTooSmall("need n >= 0")
    cls = classify(ideal)
    if cls.is_main or cls is IdealClass.TYPE_II:
        return _main_stages, _main_betti_counts, _main_bigrading_faults
    return _product_stages, _product_betti_counts, _product_bigrading_faults


def build_resolution(ideal: MonomialIdeal, stages: int) -> Resolution:
    """Resolution of k over k[x,y]/M through the requested stage: F_0 = S,
    one generator e1 in bidegree (0, 0), then each stage of the source of
    M's regime.  Bidegrees and exponents are stored as 64-bit ints; one
    that does not fit raises ValueError."""
    source, _count, _check = _regime(ideal, stages)
    modules = [GradedFreeModule(Generators(array("q", [0]), array("q", [0]), ("e1",)))]
    diffs: list[Differential] = []
    try:
        for dx, dy, labels, entries in source(ideal, stages):
            modules.append(GradedFreeModule(Generators(dx, dy, labels)))
            diffs.append(Differential(entries))
    except OverflowError as exc:
        raise ValueError(f"the bidegrees of M through stage {stages} do not fit in 64 bits") from exc
    return Resolution(ideal, modules, diffs)


def resolution_to_json(res: Resolution) -> dict:
    return {
        "ideal": [[g.xdeg, g.ydeg] for g in res.ring.generators],
        "class": res.ideal_class.slug,
        "modules": [
            {
                "rank": m.rank,
                "generators": [
                    {"label": label, "bidegree": [dx, dy]}
                    for label, (dx, dy) in m.generators
                ],
            }
            for m in res.modules
        ],
        "differentials": [
            {
                "entries": [
                    {"row": row, "col": col, "sign": sign, "monomial": [x, y]}
                    for row, col, sign, x, y in d.entries
                ]
            }
            for d in res.differentials
        ],
        "decomposition": _decomposition(res),
    }


def _decomposition(res: Resolution) -> list[dict]:
    """The main case's per-stage F1/F2/F3 block totals (u, v, w) from stage
    4 on, counted from M and the stage; [] for the degenerate types."""
    if not classify(res.ring).is_main:
        return []
    return [
        {"stage": stage, "u": sum(bases["F1"].values()), "v": sum(bases["F2"].values()),
         "w": sum(bases["F3"].values())}
        for stage, bases in _main_block_bases(_main_rule(res.ring.generators)[2], res.stages)
        if stage >= 4
    ]


def _require_ints(values: list, fields: tuple, item: str) -> None:
    """ValueError naming the field and item of the first non-int (a bool is not) in values."""
    if not set(map(type, values)) <= {int}:
        j = next(j for j, v in enumerate(values) if type(v) is not int)
        raise ValueError(f"{fields[j % len(fields)]} of {item} {j // len(fields)} is {values[j]!r}, not an int")


def _require_list(value, name: str) -> list:
    """value, unless it is not a list: then a ValueError naming it."""
    if type(value) not in (list, tuple):
        raise ValueError(f"{name} is {value!r}, not a list")
    return value


def _require_keys(obj, keys: tuple, item: str) -> None:
    """ValueError naming item unless it is an object holding every key."""
    if type(obj) is not dict:
        raise ValueError(f"{item} is {obj!r}, not an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{key} of {item} is missing")


def _require_pair(value, name: str) -> None:
    """ValueError naming value unless it is a list of two."""
    if type(value) not in (list, tuple) or len(value) != 2:
        raise ValueError(f"{name} is {value!r}, not two ints")


def _require_items(objs, name: str, keys: tuple, item: str) -> None:
    """ValueError naming ``name`` unless it is a list, else the first of
    its objects, the j-th named ``item`` j, that does not hold every key
    or whose last key is not a pair.  Run only once a read has failed, so
    a valid file pays nothing for it."""
    for j, obj in enumerate(_require_list(objs, name)):
        _require_keys(obj, keys, f"{item} {j}")
        _require_pair(obj[keys[-1]], f"{keys[-1]} of {item} {j}")


def resolution_from_json(data: dict) -> Resolution:
    """The resolution a :func:`resolution_to_json` dict describes; labels
    are kept as the file's strings.  Raises ValueError on a missing key, a
    list, object or pair of another shape, a label that is not a string, a
    class that is not the ideal's, a differential count other than the
    module count minus one, an exponent, bidegree, row, col or sign that
    is not an int (a bool is not), a module whose "rank" is not an int
    equal to its generator count, an entry that breaks the checks' entry
    rule (:func:`_shape_fault`: place, sign, exponents), and an int that
    does not fit in 64 bits.  In one map, a value of the wrong shape is
    named first, then a value that is not an int anywhere, then the rule's
    first fault in the rule's order."""
    _require_keys(data, ("ideal", "class", "modules", "differentials"), "the file")
    pairs = _require_list(data["ideal"], "ideal of the file")
    for j, pair in enumerate(pairs):
        _require_pair(pair, f"monomial of ideal generator {j}")
    _require_ints([v for g in pairs for v in g], ("x-exponent", "y-exponent"), "ideal generator")
    ideal = normalize_ideal([Monomial(a, b) for a, b in pairs])
    cls = classify(ideal)
    if data["class"] != cls.slug:
        raise ValueError(f"class {data['class']!r} does not match the ideal's class {cls.slug!r}")
    mods = _require_list(data["modules"], "modules of the file")
    maps = _require_list(data["differentials"], "differentials of the file")
    _require_count(mods, maps)
    try:
        modules = []
        for k, m in enumerate(mods):
            try:
                gens, rank = m["generators"], m["rank"]
                if type(gens) not in (list, tuple):  # "" or {} would read as no generators
                    raise TypeError
                labels = tuple(g["label"] for g in gens)
                bidegrees = [g["bidegree"] for g in gens]
                dxs, dys = [dx for dx, _dy in bidegrees], [dy for _dx, dy in bidegrees]
            except (KeyError, TypeError, ValueError):
                # each read above fails only on a shape these two name, so they raise
                _require_keys(m, ("rank", "generators"), f"F{k}")
                _require_items(m["generators"], f"generators of F{k}", ("label", "bidegree"), f"F{k} generator")
            if type(rank) is not int or rank != len(bidegrees):
                raise ValueError(f"F{k} has rank {rank!r} but {len(bidegrees)} generators")
            if not set(map(type, labels)) <= {str}:
                j = next(j for j, label in enumerate(labels) if type(label) is not str)
                raise ValueError(f"label of F{k} generator {j} is {labels[j]!r}, not a string")
            _require_ints(dxs, ("bidegree[0]",), f"F{k} generator")
            _require_ints(dys, ("bidegree[1]",), f"F{k} generator")
            dx, dy = _append_ints(array("q"), dxs), _append_ints(array("q"), dys)
            modules.append(GradedFreeModule(Generators(dx, dy, labels)))
        diffs = []
        for i, d in enumerate(maps, start=1):
            ints: list[int] = []
            try:
                entries = d["entries"]
                if type(entries) not in (list, tuple):  # "" or {} would read as no entries
                    raise TypeError
                for e in entries:
                    x, y = e["monomial"]
                    ints += (e["row"], e["col"], e["sign"], x, y)
            except (KeyError, TypeError, ValueError):
                # as for the modules: each read fails only on a shape these name
                _require_keys(d, ("entries",), f"d{i}")
                _require_items(d["entries"], f"entries of d{i}", ("row", "col", "sign", "monomial"), f"d{i} entry")
            _require_ints(ints, ("row", "col", "sign", "monomial[0]", "monomial[1]"), f"d{i} entry")
            diffs.append(Differential(Entries(_append_ints(array("q"), ints))))
            # the maps read so far between their modules: a fault is raised in the file's order
            if fault := _shape_fault(Resolution(ideal, modules[: i + 1], diffs), i):
                raise ValueError(fault)
    except OverflowError as exc:
        raise ValueError(f"an int in the file does not fit in 64 bits: {exc}") from exc
    return Resolution(ideal, modules, diffs)
