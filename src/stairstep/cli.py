"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
a size too large to index, or out of memory, 141 a closed stdout.
"""
from __future__ import annotations

import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .monomials import parse_ideal

if TYPE_CHECKING:
    import argparse

    from .oracle import FieldConfig
    from .resolution import Resolution

# Each handler imports what it reads when it runs, so that a command loads
# only the modules it needs: classify and staircase never load the builder.
# argparse is imported only to print help, usage and errors.


def _type_error(message: str) -> Exception:
    """argparse's ArgumentTypeError, which a flag's type raises on a bad
    value; imported only then."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _parse_field(text: str) -> FieldConfig:
    from .oracle import ExactRationals, PrimeField

    if text == "q":
        return ExactRationals()
    if text.startswith("p:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise _type_error(str(exc))
    raise _type_error(f"field must be 'q' or 'p:PRIME', got {text!r}")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _type_error(f"invalid int value: {text!r}")
    if value < 0:
        raise _type_error(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand, built only when _read_args hands
    argv over: for help, a missing or unknown command and any error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stairstep",
        description="Minimal free resolutions of k over k[x,y]/M "
        "for monomial ideals M in two variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("ideal", help='generators, e.g. "x^2*y, x*y^2" or "xy2,y4"')
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """``_build_parser().parse_args(argv)`` when argv names a command, then
    gives its ideal once and each of the command's flags at most once, by
    its exact name, as ``--flag value`` or ``--flag=value`` with a value
    that does not start with "-" and that the flag's type and choices
    accept, or bare if it stores true.  None for any other argv: argparse
    reads it instead.  A string default goes through the flag's type, as
    argparse converts it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = {"ideal": {}, **dict(_COMMANDS[argv[0]][2])}
    given: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        # a token not starting with "-" is the ideal, which carries its value
        flag, eq, value = token.partition("=") if token.startswith("-") else ("ideal", "=", token)
        kwargs = flags.get(flag)
        if kwargs is None or flag in given or ("action" in kwargs and eq):
            return None
        if "action" in kwargs:  # store_true, given bare
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value is refused as "-" is
        if value.startswith("-"):
            return None
        try:
            given[flag] = kwargs.get("type", str)(value)
        except Exception:  # argparse prints its message, or raises it again
            return None
        if "choices" in kwargs and given[flag] not in kwargs["choices"]:
            return None
    if "ideal" not in given:
        return None
    for flag, kwargs in flags.items():
        if flag not in given:
            default = kwargs.get("default", False)  # False: a store_true flag's
            given[flag] = kwargs.get("type", str)(default) if isinstance(default, str) else default
    return SimpleNamespace(command=argv[0], **{flag.lstrip("-").replace("-", "_"): v for flag, v in given.items()})


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """``_build_parser().parse_args(argv)``: _read_args's namespace for a
    valid command line, or else the full parser's, which prints help, usage
    and errors and exits."""
    args = _read_args(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _print_resolution_text(res: Resolution) -> None:
    print(f"M = {res.ring}  [{res.ideal_class.slug}]")
    print("ranks: " + " ".join(str(m.rank) for m in res.modules))
    for i in range(1, len(res.differentials) + 1):
        print(f"d{i}: F{i} -> F{i - 1}")
        grid = res.dense_strings(i)
        widths = [max(len(grid[r][c]) for r in range(len(grid))) for c in range(len(grid[0]))] if grid and grid[0] else []
        for row in grid:
            print("  [ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]")


def _cmd_classify(args, ideal) -> int:
    from .classify import classify

    print(classify(ideal).slug)
    return 0


def _cmd_resolve(args, ideal) -> int:
    from .resolution import build_resolution, resolution_to_json

    res = build_resolution(ideal, args.stages)
    if args.format == "json":
        import json
        print(json.dumps(resolution_to_json(res), indent=2))
    elif args.format == "csv":
        print("stage,rank")
        for i, m in enumerate(res.modules):
            print(f"{i},{m.rank}")
    else:
        ranks = [m.rank for m in res.modules]
        cells = sum(a * b for a, b in zip(ranks, ranks[1:]))  # one per entry of each dense d_i
        if cells > BETTI_MAX_CELLS:
            raise ValueError(f"resolve text would print {cells} cells, above the limit of {BETTI_MAX_CELLS}")
        _print_resolution_text(res)
    return 0


# The deepest table `betti` prints.  On a 2-core x86-64 VM, at stage 500
# the six-generator (x^6, ..., xy^5) table takes about 0.2 s and --graded
# 0.35 s (3.9 MB printed); with 21 generators --graded takes about 1 s
# (9 MB).  Stage 1000 costs 3-5x that, and stage 2000 another 4-7x.
BETTI_MAX_STAGES = 500

# The most cells `betti --graded` or `oracle` prints as a text grid, one per
# (row, stage), and `resolve` as text matrices, one per entry of each dense
# d_i.  A grid cell costs 25-80 ns on the same VM, the most where the table is
# dense: 3.96 M cells (the 200-generator staircase at stage 200) take 0.1 s
# and print 8.6 MB.  (x^100000, y) at stage 40 would print 82 M, one row per
# d - i, and `resolve` (x^6, ..., xy^5) --stages 9 29.8 M, about 176 MB.
# json and csv list only nonzero entries.
BETTI_MAX_CELLS = 5_000_000

# The most digits `poincare --expand` prints.  Converting an n-digit int to
# text costs about n^2, so on the same VM (x^2y, xy^2) --expand 10000
# prints 10.5 MB in 0.3 s and --expand 20000 41.8 MB in 2.1 s.
POINCARE_MAX_DIGITS = 5_000_000

# The most lattice cells `staircase` draws, (a_1 + 3)(b_r + 3) of them.  The
# limit bounds output size: about 2 bytes a cell as text and 65 as SVG.  On
# the same VM a cell costs about 15 ns as text and 0.5 us as SVG, so
# (x^497, y^497) draws 250,000 cells, 0.5 MB of text in 4 ms or 16 MB of
# SVG in 0.13 s.
STAIRCASE_MAX_CELLS = 250_000


def _betti_text(table, command: str) -> str:
    """render_betti_table(table), or ValueError naming ``command`` when its
    grid is larger than BETTI_MAX_CELLS."""
    from .betti import render_betti_table, render_shape

    rows, cols = render_shape(table)
    if rows * cols > BETTI_MAX_CELLS:
        raise ValueError(
            f"{command} text would print {rows * cols} cells ({rows} rows x {cols} "
            f"stages), above the limit of {BETTI_MAX_CELLS}; --format json or csv lists "
            "only the nonzero entries"
        )
    return render_betti_table(table)


def _cmd_betti(args, ideal) -> int:
    from .betti import betti_csv, betti_json, betti_table

    if args.stages > BETTI_MAX_STAGES:
        raise ValueError(f"betti --stages must be <= {BETTI_MAX_STAGES}, got {args.stages}")
    table = betti_table(ideal, args.stages)
    if args.graded:
        if args.format == "json":
            import json
            print(json.dumps(betti_json(table)))
        elif args.format == "csv":
            print(betti_csv(table))
        else:
            print(_betti_text(table, "betti --graded"))
    else:
        totals = table.totals()
        if args.format == "json":
            import json
            print(json.dumps({"totals": totals}))
        elif args.format == "csv":
            print("i,beta")
            for i, v in enumerate(totals):
                print(f"{i},{v}")
        else:
            print(" ".join(str(v) for v in totals))
    return 0


def _require_expand(main: bool, r: int, n: int) -> None:
    """ValueError naming `poincare --expand` unless its coefficients through
    z^n print at most POINCARE_MAX_DIGITS digits in all and none of them
    more than Python converts to text.  A main-case coefficient c_k is at
    most rho^(k+1), rho = (1 + sqrt(4r - 3))/2, by induction on c_k =
    c_{k-1} + (r - 1)c_{k-2}, since rho^2 = rho + r - 1; every other
    regime's is at most k + 1."""
    import math

    if n >= POINCARE_MAX_DIGITS:  # each coefficient prints one digit at least
        total = largest = n + 1
    elif main:
        lg = math.log10((1 + math.sqrt(4 * r - 3)) / 2)
        largest, total = 1 + int((n + 1) * lg), n + 1 + int(lg * (n + 1) * (n + 2) / 2)
    else:  # the digits of 1, 2, ..., n + 1: n + 2 - 10^j of them have more than j
        largest = len(str(n + 1))
        total = sum(n + 2 - 10**j for j in range(largest))
    if total > POINCARE_MAX_DIGITS:
        raise ValueError(
            f"poincare --expand {n} would print about {total} digits, above the limit of {POINCARE_MAX_DIGITS}"
        )
    cap = getattr(sys, "get_int_max_str_digits", int)()  # 0, no cap, before Python 3.10.7
    if cap and largest > cap:
        raise ValueError(
            f"poincare --expand {n} would print a coefficient of about {largest} digits, above Python's limit of "
            f"{cap} digits for one integer"
        )


def _write_joined(values, sep: str) -> None:
    """Write ``sep.join(map(str, values))`` to stdout a chunk of values at a
    time, so that only one chunk is held as text."""
    values = iter(values)
    lead = ""
    while chunk := list(islice(values, 1024)):
        sys.stdout.write(lead + sep.join(map(str, chunk)))
        lead = sep


def _cmd_poincare(args, ideal) -> int:
    from .betti import poincare_series, series_coefficients
    from .classify import classify

    cls = classify(ideal)
    series = poincare_series(cls, ideal.num_generators)
    if args.expand is not None:
        _require_expand(cls.is_main, ideal.num_generators, args.expand)
        # written as they are made: json.dumps of the same object, or the
        # coefficients joined by spaces
        coeffs = islice(series_coefficients(series), args.expand + 1)
        if args.format == "json":
            import json
            sys.stdout.write(f'{{"series": {json.dumps(str(series))}, "coefficients": [')
            _write_joined(coeffs, ", ")
            sys.stdout.write("]}\n")
        else:
            _write_joined(coeffs, " ")
            sys.stdout.write("\n")
    else:
        if args.format == "json":
            import json
            print(
                json.dumps(
                    {
                        "numerator": list(series.numerator),
                        "denominator": list(series.denominator),
                        "display": str(series),
                    }
                )
            )
        else:
            print(str(series))
    return 0


def _max_degree(args, ideal) -> int:
    from .oracle import default_max_degree

    if args.max_degree is not None:
        return args.max_degree
    return default_max_degree(ideal, args.stages)


def _cmd_verify(args, ideal) -> int:
    from .oracle import check_resolution
    from .resolution import build_resolution

    res = build_resolution(ideal, args.stages + 1)
    report = check_resolution(res, args.stages, _max_degree(args, ideal), args.field)
    failures = report.failures()
    if args.format == "json":
        import json
        print(json.dumps(report.to_json()))
    else:
        for c in failures:
            where = f"stage {c.stage}" + (f", degree {c.degree}" if c.degree is not None else "")
            print(f"FAIL {c.kind} at {where}: {c.detail}")
        print("verdict: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


def _cmd_oracle(args, ideal) -> int:
    from .betti import betti_csv, betti_json, betti_table
    from .oracle import compare_betti, minimal_resolution_bruteforce
    from .resolution import _regime

    max_degree = _max_degree(args, ideal)
    oracle_table = minimal_resolution_bruteforce(ideal, args.stages, max_degree, args.field)
    # the engine's counted table, and its bigrading checked apart on the
    # rule, since the tables compare total degrees only: nothing is built
    _source, _count, check_rule = _regime(ideal, args.stages)
    unhomogeneous = check_rule(ideal, args.stages)
    diff = compare_betti(betti_table(ideal, args.stages), oracle_table)
    agree = diff.is_empty and not unhomogeneous
    if args.format == "json":
        import json
        print(
            json.dumps(
                {
                    "oracle": betti_json(oracle_table),
                    "match": diff.is_empty,
                    "mismatches": [list(m) for m in diff.mismatches],
                    "homogeneous": not unhomogeneous,
                }
            )
        )
    elif args.format == "csv":
        print(betti_csv(oracle_table))
    else:
        print(_betti_text(oracle_table, "oracle"))
        for stage, detail in unhomogeneous:
            print(f"FAIL homogeneity at stage {stage}: {detail}")
        for i, d, eng, orc in diff.mismatches:
            print(f"MISMATCH beta_({i},{d}): engine {eng} vs oracle {orc}")
        print("engine agreement: " + ("pass" if agree else "fail"))
    return 0 if agree else 1


def _cmd_staircase(args, ideal) -> int:
    from .staircase import render_ascii, render_svg, staircase_outline

    outline = staircase_outline(ideal)
    cells = (outline.xmax + 1) * (outline.ymax + 1)
    if cells > STAIRCASE_MAX_CELLS:
        raise ValueError(f"staircase would draw {cells} cells, above the limit of {STAIRCASE_MAX_CELLS}")
    if args.svg:
        try:
            with open(args.svg, "w") as fh:
                fh.write(render_svg(ideal))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(ideal))
    return 0


# the flags a subcommand may take; each declares only those its handler reads
_STAGES = ("--stages", {"type": _nonnegative_int, "default": 6})
_MAX_DEGREE = ("--max-degree", {"type": int, "default": None})
_FIELD = ("--field", {"type": _parse_field, "default": "q"})
_TEXT_JSON = ("--format", {"choices": ["text", "json"], "default": "text"})
_TEXT_JSON_CSV = ("--format", {"choices": ["text", "json", "csv"], "default": "text"})

# name -> (handler, help, flags beyond the ideal), in usage order
_COMMANDS = {
    "classify": (_cmd_classify, "print the construction regime of the ideal", ()),
    "resolve": (_cmd_resolve, "build and print the resolution through --stages", (_STAGES, _TEXT_JSON_CSV)),
    "betti": (
        _cmd_betti,
        "total Betti numbers, or the graded table with --graded",
        (_STAGES, _TEXT_JSON_CSV, ("--graded", {"action": "store_true"})),
    ),
    "poincare": (
        _cmd_poincare,
        "Poincare-Betti series, expanded with --expand N",
        (_TEXT_JSON, ("--expand", {"type": _nonnegative_int, "default": None})),
    ),
    "verify": (
        _cmd_verify, "run complex, minimality and exactness checks", (_STAGES, _MAX_DEGREE, _TEXT_JSON, _FIELD)
    ),
    "oracle": (
        _cmd_oracle,
        "brute-force Betti table, compared against the engine",
        (_STAGES, _MAX_DEGREE, _TEXT_JSON_CSV, _FIELD),
    ),
    "staircase": (
        _cmd_staircase,
        "render the staircase diagram (ASCII or --svg PATH)",
        (("--svg", {"default": None}),),
    ),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # ParseError, EmptyIdeal and UnitIdeal are ValueErrors too
        code = _COMMANDS[args.command][0](args, parse_ideal(args.ideal))
        sys.stdout.flush()  # here, so that a closed pipe raises inside the try
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as a writer killed by SIGPIPE, with
        # stdout on the null device so that the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size no list can index, such as a 2^63-degree window
        print(f"error: too large to compute: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
