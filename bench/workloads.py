"""The four benchmark workloads: seeded inputs, the timed job per item, and
an independent check of every output.

Nothing here imports ``stairstep`` at module level: :func:`setup` does, so
that the set-up probe can time the package import itself.  Checks never
call into ``stairstep``; they recompute what they need from the paper's
formulas and the golden tables in ``golden.json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent

# Acceptance-corpus recipe: every ideal with exponents <= 4, plus seeded
# random ideals with r <= 6 generators and exponents <= 10.  A pass keeps
# about the recipe's 5:1 mix of exhaustive to random ideals.  Its random
# part holds a fixed number of ideals per generator count r.  The
# exhaustive ideals of a run's measured passes are a fixed sample, spread
# evenly over the pool ordered by r and degree, that depends on the run's
# length only: like the recipe's exhaustive part, it is not drawn at random,
# so the seed moves the random ideals and the order, not the mix.
EXHAUSTIVE_MAX_EXP = 4
RANDOM_MAX_EXP = 10

RUNNING_EXAMPLES = ("xy2,y4", "x2y,xy2")
DEEP_BETTI = ("x6,x5y,x4y2,x3y3,x2y4,xy5", "x8y,x7y3,x6y5,x5y6,xy8,y9")
DEEP_VERIFY = "x3,x2y2,xy3,y5"


class SetupError(RuntimeError):
    """The package under test cannot be loaded from the checkout."""


def load_package(root: Path):
    """Import ``stairstep`` from ``root/src`` and nowhere else."""
    src = (Path(root) / "src").resolve()
    if not (src / "stairstep" / "__init__.py").is_file():
        raise SetupError(f"no stairstep package under {src}")
    sys.path.insert(0, str(src))
    try:
        import stairstep
        import stairstep.cli  # noqa: F401  (the CLI is not imported by the package)
    except ImportError as exc:
        raise SetupError(f"cannot import stairstep: {exc}") from exc
    if not Path(stairstep.__file__).resolve().is_relative_to(src):
        raise SetupError(f"stairstep imported from {stairstep.__file__}, not {src}")
    return stairstep


# ----------------------------------------------------------------------
# Expected values, recomputed from the paper independently of the engine


def ideal_kind(gens) -> str:
    """The construction regime of a staircase-ordered generator list."""
    r = len(gens)
    if r == 1:
        return "I" if sum(gens[0]) == 1 else "II"
    if r == 2 and gens[0][1] == 0 and gens[1][0] == 0:
        a, b = gens[0][0], gens[1][1]
        if a == 1 and b == 1:
            return "III"
        return "IV" if 1 in (a, b) else "V"
    return "main-1" if gens[-1][0] >= 1 else "main-2"


def expected_totals(gens, n: int) -> list[int]:
    """beta_0..beta_n: the rank recursion in the main case, closed forms else."""
    kind = ideal_kind(gens)
    if kind.startswith("main"):
        seq = [1, 2]
        while len(seq) < n + 1:
            seq.append(seq[-1] + (len(gens) - 1) * seq[-2])
        return seq[: n + 1]
    tail = {"I": lambda i: int(i == 1), "II": lambda i: 2, "III": lambda i: 0,
            "IV": lambda i: 1, "V": lambda i: i + 1}[kind]
    return [1] + [tail(i) for i in range(1, n + 1)]


def parse_generators(text: str) -> list[tuple[int, int]]:
    """``"x2y,xy2"`` -> ``[(2, 1), (1, 2)]``; the compact form used in this file."""
    gens = []
    for part in text.split(","):
        exps = {"x": 0, "y": 0}
        i = 0
        while i < len(part):
            var = part[i]
            j = i + 1
            while j < len(part) and part[j].isdigit():
                j += 1
            exps[var] += int(part[i + 1 : j] or 1)
            i = j
        gens.append((exps["x"], exps["y"]))
    return sorted(gens, key=lambda g: -g[0])


def _load_golden() -> dict:
    data = json.loads((BENCH_DIR / "golden.json").read_text())
    return {
        tuple(map(tuple, t["generators"])): {(i, d): v for i, d, v in t["entries"]}
        for t in data["tables"]
    }


GOLDEN = _load_golden()


def _graded_from_modules(res, max_stage: int) -> dict:
    out: dict = {}
    for i, module in enumerate(res.modules[: max_stage + 1]):
        for _label, (dx, dy) in module.generators:
            out[(i, dx + dy)] = out.get((i, dx + dy), 0) + 1
    return out


def _golden_mismatch(gens, entries: dict) -> Optional[str]:
    golden = GOLDEN.get(tuple(gens))
    if golden is None:
        return None
    found = {k: v for k, v in entries.items() if k[0] <= 6}
    return None if found == golden else f"graded table differs from the paper's: {sorted(found.items())}"


def _totals_mismatch(gens, totals) -> Optional[str]:
    want = expected_totals(gens, len(totals) - 1)
    return None if list(totals) == want else f"Betti totals {list(totals)} != expected {want}"


# ----------------------------------------------------------------------
# Seeded inputs


def _generators(ideal) -> tuple[tuple[int, int], ...]:
    return tuple((g.xdeg, g.ydeg) for g in ideal.generators)


def _exhaustive(ss, max_exp: int) -> list:
    vals = range(max_exp + 1)
    out = []
    for r in range(1, max_exp + 2):
        for a_set in itertools.combinations(vals, r):
            for b_set in itertools.combinations(vals, r):
                pairs = list(zip(sorted(a_set, reverse=True), sorted(b_set)))
                if pairs != [(0, 0)]:
                    out.append(ss.normalize_ideal([ss.Monomial(a, b) for a, b in pairs]))
    return out


def _random_ideal(ss, rng: random.Random, r: int, main_only: bool):
    while True:
        a_vals = sorted(rng.sample(range(RANDOM_MAX_EXP + 1), r), reverse=True)
        b_vals = sorted(rng.sample(range(RANDOM_MAX_EXP + 1), r))
        pairs = list(zip(a_vals, b_vals))
        if pairs == [(0, 0)] or (main_only and not ideal_kind(pairs).startswith("main")):
            continue
        return ss.normalize_ideal([ss.Monomial(a, b) for a, b in pairs])


def _even_sample(pool: list, n: int) -> list:
    """``n`` members spread evenly over ``pool``: whole copies of it first,
    if ``n`` is larger."""
    whole, rest = divmod(n, len(pool))
    return pool * whole + [pool[(i * len(pool) + len(pool) // 2) // rest] for i in range(rest)]


def corpus_passes(ss, seed: int, count: int, per_pass: int, r_values, main_only: bool) -> list[list]:
    """``count`` passes of ``per_pass`` exhaustive ideals plus one random
    ideal per entry of ``r_values``, shuffled together.  The first pass, the
    warm-up, takes its exhaustive ideals at random; the others share an even
    sample of the pool ordered by r and degree."""
    rng = random.Random(seed)
    pool = _exhaustive(ss, EXHAUSTIVE_MAX_EXP)
    if main_only:
        pool = [m for m in pool if ideal_kind(_generators(m)).startswith("main")]
    pool.sort(key=lambda m: (m.num_generators, m.max_generator_degree, _generators(m)))
    measured = _even_sample(pool, (count - 1) * per_pass)
    rng.shuffle(measured)
    chunks = [rng.sample(pool, per_pass)] + [measured[k * per_pass:(k + 1) * per_pass] for k in range(count - 1)]
    passes = []
    for items in chunks:
        items = items + [_random_ideal(ss, rng, r, main_only) for r in r_values]
        rng.shuffle(items)
        passes.append(items)
    return passes


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], Optional[str]]


def _expect_last_line(line: str):
    def check(out: str) -> Optional[str]:
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == line else f"last line {last!r}, expected {line!r}"
    return check


def _expect_text(text: str):
    return lambda out: None if out.strip() == text else f"output {out.strip()!r}, expected {text!r}"


def parse_betti_table(out: str) -> tuple[list[int], dict]:
    """Totals and entries of a rendered table: row j, column i is beta_{i,i+j}."""
    lines = out.strip().split("\n")
    totals = [int(v) for v in lines[1].split()[1:]]
    entries = {}
    for line in lines[2:]:
        if not line.split(":")[0].isdigit():
            break
        j, cells = line.split(":")
        for i, cell in enumerate(cells.split()):
            if cell != ".":
                entries[(i, i + int(j))] = int(cell)
    return totals, entries


def _expect_betti_table(gens, stages: int, golden: bool):
    def check(out: str) -> Optional[str]:
        totals, entries = parse_betti_table(out)
        column_sums = [sum(v for (i, _d), v in entries.items() if i == s) for s in range(len(totals))]
        if column_sums != totals:
            return f"table columns sum to {column_sums}, totals row says {totals}"
        if len(totals) != stages + 1:
            return f"{len(totals)} stages printed, expected {stages + 1}"
        return _totals_mismatch(gens, totals) or (_golden_mismatch(gens, entries) if golden else None)
    return check


def _expect_oracle(gens, stages: int):
    def check(out: str) -> Optional[str]:
        return _expect_last_line("engine agreement: pass")(out) or (
            _golden_mismatch(gens, parse_betti_table(out)[1]) if stages >= 6 else None)
    return check


def _expect_staircase(gens):
    def check(out: str) -> Optional[str]:
        stars = set()
        for line in out.split("\n"):  # lattice rows read "{b:>2} " + cells
            if line[:2].strip().isdigit():
                b = int(line[:2])
                stars |= {(a, b) for a, c in enumerate(line[3:].split(" ")) if c == "*"}
        return None if stars == set(gens) else f"corners {sorted(stars)}, expected {sorted(gens)}"
    return check


def cli_commands() -> list[Command]:
    """The README's nine commands on both running examples, then deep queries."""
    cmds = []
    for text in RUNNING_EXAMPLES:
        gens = parse_generators(text)
        r = len(gens)
        totals = " ".join(map(str, expected_totals(gens, 6)))
        series = "(1+z)/(1-z-" + ("" if r == 2 else str(r - 1)) + "z^2)"
        slug = {"main-1": "main-case-1", "main-2": "main-case-2"}[ideal_kind(gens)]
        ranks = "ranks: " + " ".join(map(str, expected_totals(gens, 4)))
        cmds += [
            Command(("classify", text), _expect_text(slug)),
            Command(("betti", text, "--stages", "6"), _expect_text(totals)),
            Command(("betti", text, "--graded"), _expect_betti_table(gens, 6, golden=True)),
            Command(("poincare", text), _expect_text(series)),
            Command(("poincare", text, "--expand", "6"), _expect_text(totals)),
            Command(("resolve", text, "--stages", "4"),
                    lambda out, ranks=ranks: None if ranks in out.split("\n") else f"no line {ranks!r}"),
            Command(("verify", text, "--stages", "8", "--max-degree", "40"), _expect_last_line("verdict: pass")),
            Command(("oracle", text, "--stages", "6"), _expect_oracle(gens, 6)),
            Command(("staircase", text), _expect_staircase(gens)),
        ]
    for text in DEEP_BETTI:
        cmds.append(Command(("betti", text, "--graded", "--stages", "11"),
                            _expect_betti_table(parse_generators(text), 11, golden=False)))
    cmds.append(Command(("verify", DEEP_VERIFY, "--stages", "8"), _expect_last_line("verdict: pass")))
    cmds.append(Command(("oracle", DEEP_VERIFY, "--stages", "8", "--field", "p:32003"),
                        _expect_oracle(parse_generators(DEEP_VERIFY), 8)))
    return cmds


def cli_sessions(ss, seed: int, count: int) -> list[list[Command]]:
    """``count`` sessions, each the script in a seeded order."""
    rng = random.Random(seed)
    commands = cli_commands()
    sessions = []
    for _ in range(count):
        session = list(commands)
        rng.shuffle(session)
        sessions.append(session)
    return sessions


# ----------------------------------------------------------------------
# Timed jobs and their checks


def json_text(data: dict) -> dict:
    """Serialize to JSON text and parse it back, as a file round trip would."""
    return json.loads(json.dumps(data))


def verify_job(ss, ideal):
    res = ss.build_resolution(ideal, 10)
    verdicts = {
        "complex": ss.check_complex(res).verdict,
        "minimality": ss.check_minimality(res).verdict,
        "exactness": ss.check_exactness(ss.build_resolution(ideal, 9), 8, 25).verdict,
    }
    return res, verdicts


def verify_check(ideal, output) -> Optional[str]:
    res, verdicts = output
    gens = _generators(ideal)
    failed = [k for k, ok in verdicts.items() if not ok]
    if failed:
        return f"{', '.join(failed)} check failed"
    return _totals_mismatch(gens, res.total_betti_numbers()) or _golden_mismatch(
        gens, _graded_from_modules(res, 6))


def oracle_job(ss, ideal):
    oracle = ss.minimal_resolution_bruteforce(ideal, 6, max(15, ideal.max_generator_degree))
    engine = ss.graded_betti(ss.build_resolution(ideal, 6))
    window = ss.BettiTable({k: v for k, v in oracle.entries.items() if k[1] <= 15},
                           max_stage=6, max_degree=15)
    return oracle, engine, ss.compare_betti(engine, window)


def oracle_check(ideal, output) -> Optional[str]:
    oracle, engine, diff = output
    gens = _generators(ideal)
    if diff.mismatches:
        return f"engine and oracle differ at {list(diff.mismatches)[:3]}"
    return _totals_mismatch(gens, engine.totals()) or _golden_mismatch(gens, oracle.entries)


def reload_job(ss, ideal):
    res = ss.build_resolution(ideal, 7)
    loaded = ss.resolution_from_json(json_text(ss.resolution_to_json(res)))
    verdicts = {
        "complex": ss.check_complex(loaded).verdict,
        "exactness": ss.check_exactness(loaded, 6, 20, ss.PrimeField(32003)).verdict,
    }
    return res, loaded, verdicts


def reload_check(ideal, output) -> Optional[str]:
    res, loaded, verdicts = output
    failed = [k for k, ok in verdicts.items() if not ok]
    if failed:
        return f"{', '.join(failed)} check failed after the JSON round trip"
    ranks = [m.rank for m in res.modules]
    if [m.rank for m in loaded.modules] != ranks:
        return f"ranks {[m.rank for m in loaded.modules]} after reload, {ranks} before"
    counts = [len(d.entries) for d in res.differentials]
    if [len(d.entries) for d in loaded.differentials] != counts:
        return "entry counts changed across the JSON round trip"
    return _totals_mismatch(_generators(ideal), ranks)


def cli_job(ss, command: Command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ss.cli.main(list(command.argv))
    return code, out.getvalue(), err.getvalue()


def cli_check(command: Command, output) -> Optional[str]:
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    return command.check(out)


# ----------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_passes: Callable[[Any, int, int], list]  # (package, seed, count)
    job: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], Optional[str]]
    # Seconds one pass takes on a quiet shared 2-core x86-64 VM with
    # Python 3.11; it only sizes a run (run.pass_count).
    pass_seconds: float
    # Visits per measured pass, a multiple of the core count; an item's
    # latency is the median of its scaled visits (run.measure).
    # CLI sessions all hold the same commands, so more visits cost no
    # input variety there; corpus passes spend the time on more ideals.
    visits: int = 2
    # True: the standard_monomials cache is cleared before every item
    # (each CLI command is its own process for a real user); False: once
    # before every pass, like one corpus sweep.
    cold_per_item: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-verify",
            "acceptance corpus through build to stage 10, complex, minimality and exactness; resolution dominates",
            lambda ss, seed, n: corpus_passes(ss, seed, n, 30, (1, 2, 3, 4, 5, 5, 5, 6), main_only=False),
            verify_job, verify_check, pass_seconds=2.7,
        ),
        Workload(
            "corpus-oracle",
            "acceptance corpus through the brute-force oracle over Q against the engine; oracle arithmetic dominates",
            lambda ss, seed, n: corpus_passes(ss, seed, n, 30, range(1, 7), main_only=False),
            oracle_job, oracle_check, pass_seconds=0.65,
        ),
        Workload(
            "reload-verify",
            "main-case ideals built, sent through JSON and re-verified over F_32003; the generic slice path dominates",
            lambda ss, seed, n: corpus_passes(ss, seed, n, 25, range(2, 7), main_only=True),
            reload_job, reload_check, pass_seconds=0.9,
        ),
        Workload(
            "cli-session",
            "README commands on the running examples plus deep betti/verify/oracle queries through cli.main",
            cli_sessions, cli_job, cli_check, pass_seconds=2.4, visits=6, cold_per_item=True,
        ),
    )
}


def item_key(item) -> list:
    return list(item.argv) if isinstance(item, Command) else [list(g) for g in _generators(item)]


def inputs_digest(passes) -> str:
    text = json.dumps([[item_key(item) for item in p] for p in passes])
    return hashlib.sha256(text.encode()).hexdigest()


def setup(root, name: str, seed: int, count: int):
    """Import the package from the checkout and generate ``count`` passes."""
    ss = load_package(Path(root))
    return ss, WORKLOADS[name].make_passes(ss, seed, count)
