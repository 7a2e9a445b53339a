#!/usr/bin/env python3
"""Stairstep benchmark: a closed loop with one caller and no threads.

    python3 bench/run.py                  # every workload, each in a fresh process
    python3 bench/run.py --workload corpus-verify --seed 7 --seconds 12 --trace 0

One run of one workload:

1. imports the package from ``src/`` of this checkout and generates the
   workload's seeded passes;
2. runs pass 0 unmeasured as a warm-up, then every measured pass
   ``visits`` times (see ``measure``), clearing the ``standard_monomials``
   cache and collecting garbage before each, and checks every output;
   every item's time is scaled to a reference host speed (see ``speed``);
3. times the set-up (package import plus input generation) in
   SETUP_PROBES fresh interpreters spread over the run and keeps the
   median as ``setup_s``;
4. prints the metrics by name with units, a stamp line, and as its last
   line one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

``--seconds`` sizes the run: it sets how many distinct passes are
measured, so that the run takes about that long at the speed the
workloads' ``pass_seconds`` record.  The inputs depend on the seed and
the pass count only; a faster program finishes sooner.

With ``--trace 1`` every measured pass runs once untraced and once traced,
in alternating order, and the metrics are the per-layer counters of
``tracer.Tracer`` plus the tracing overhead.  Exit code 2 means the
package could not be set up; nothing is printed on stdout then.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 7
# Share of traced time that may fall outside every wrapped function
# (harness loop, wrapper bookkeeping, hooks) before the trace is refused.
ATTRIBUTION_SLACK = 0.05

# The reference loop runs after the set-up only, so that its own imports
# do not shorten the timed import of the package.
_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import workloads\n"
    "t0 = time.perf_counter()\n"
    "workloads.setup(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))\n"
    "raw = time.perf_counter() - t0\n"
    "import speed\n"
    "print(repr(speed.scale(raw, speed.reference())))\n"
)


def pass_count(wl, seconds: float) -> int:
    """Warm-up pass plus the measured passes that fill about ``seconds``."""
    return 1 + max(1, round(seconds / (wl.visits * wl.pass_seconds)))


def setup_probe(name: str, seed: int, count: int) -> float:
    """Set-up time in a fresh interpreter, scaled to the reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(BENCH_DIR), str(ROOT), name, str(seed), str(count)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise workloads.SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None

    def record(self, item, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{workloads.item_key(item)}: {error}"


@dataclass
class CacheTally:
    """standard_monomials cache statistics summed over cache lifetimes."""

    hits: int = 0
    misses: int = 0
    peak_entries: int = 0

    def add(self, info) -> None:
        self.hits += info.hits
        self.misses += info.misses
        self.peak_entries = max(self.peak_entries, info.currsize)


def run_pass(wl, ss, items, tally: Tally, cache: Optional[CacheTally] = None,
             sample_inside: bool = True) -> tuple[list, list]:
    """Time each item's job; check every output outside the timed region.

    Returns per item the raw latency and the reference loop's mean
    duration while it ran (see ``speed.timed``)."""
    clear = ss.standard_monomials.cache_clear
    info = ss.standard_monomials.cache_info
    clear()
    gc.collect()
    raw, loop = [], []
    for item in items:
        if wl.cold_per_item:
            if cache is not None:
                cache.add(info())
            clear()
        output, raw_s, loop_s = speed.timed(lambda: wl.job(ss, item), sample_inside)
        raw.append(raw_s)
        loop.append(loop_s)
        if isinstance(output, Exception):  # a raising item is a failed item, not a crashed run
            tally.record(item, f"raised {type(output).__name__}: {output}")
            continue
        try:
            error = wl.check(item, output)
        except Exception as exc:  # output too malformed to check
            error = f"check raised {type(exc).__name__}: {exc}"
        del output  # else it stays alive through the next item and inflates peak RSS
        tally.record(item, error)
    if cache is not None:
        cache.add(info())
    return raw, loop


@dataclass
class Measurement:
    tally: Tally = field(default_factory=Tally)
    latencies: list = field(default_factory=list)  # untraced, per item: see ``measure``
    raw_latencies: list = field(default_factory=list)  # the same visits, unscaled
    setup_samples: list = field(default_factory=list)
    untraced_s: float = 0.0  # trace mode, scaled item time of each side
    traced_s: float = 0.0
    traced_raw_s: float = 0.0
    traced_items: int = 0
    tracer: Optional[Tracer] = None
    cache: CacheTally = field(default_factory=CacheTally)


def measure(wl, ss, passes, trace: bool, probe=None) -> Measurement:
    """Warm up on ``passes[0]``, then visit every other pass ``wl.visits``
    times: in each round, on every core in turn, back to back.

    Untraced, each item keeps the median of its visits, each scaled to the
    reference speed: one visit may catch an interrupt, or a slow spell that
    slows the package more or less than the reference loop.  ``probe``, if
    given, is called SETUP_PROBES times spread evenly over the run.
    Traced, every pass runs once untraced and once traced, in alternating
    order, and the counters come from the traced side only; the host speed
    is then sampled only around each item, so that no sample falls inside
    a wrapped function's time."""
    m = Measurement()
    measured = passes[1:]
    cpus = sorted(os.sched_getaffinity(0))
    if trace:
        schedule = [(visit, k, cpus[visit % len(cpus)]) for visit in range(2) for k in range(len(measured))]
    else:
        rounds = max(1, wl.visits // len(cpus))
        schedule = [(rnd * len(cpus) + c, k, cpu) for rnd in range(rounds)
                    for k in range(len(measured)) for c, cpu in enumerate(cpus)]
    probes_after = [0] * len(schedule)
    if probe is not None:
        m.setup_samples.append(probe())
        for i in range(1, SETUP_PROBES):
            probes_after[i * len(schedule) // SETUP_PROBES] += 1
    run_pass(wl, ss, passes[0], m.tally)
    if trace:
        m.tracer = Tracer(ss, extra=[(workloads, "json_text", "bench.json_text")])
    visits: list[list[tuple[list, list]]] = [[] for _ in measured]  # per pass: (raw, loop) per visit
    for (visit, k, cpu), n_probes in zip(schedule, probes_after):
        items = measured[k]
        os.sched_setaffinity(0, {cpu})
        if not trace:
            visits[k].append(run_pass(wl, ss, items, m.tally))
        elif (k + visit) % 2:
            with m.tracer:
                raw, loop = run_pass(wl, ss, items, m.tally, m.cache, sample_inside=False)
            m.traced_raw_s += sum(raw)
            m.traced_s += sum(map(speed.scale, raw, loop))
            m.traced_items += len(items)
        else:
            m.untraced_s += sum(map(speed.scale, *run_pass(wl, ss, items, m.tally, sample_inside=False)))
        m.setup_samples += [probe() for _ in range(n_probes)]
    os.sched_setaffinity(0, cpus)
    if not trace:
        for per_pass in visits:
            for item_visits in zip(*(zip(raw, loop) for raw, loop in per_pass)):
                m.latencies.append(statistics.median(speed.scale(raw, loop) for raw, loop in item_visits))
                m.raw_latencies.append(statistics.median(raw for raw, _loop in item_visits))
    return m


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end_metrics(m: Measurement) -> dict:
    return {
        "setup_s": (statistics.median(m.setup_samples), "s"),
        "items_per_s": (len(m.latencies) / sum(m.latencies), "1/s"),
        "latency_p50_ms": (statistics.median(m.latencies) * 1000, "ms"),
        "latency_p95_ms": (_quantile(m.latencies, 95) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(m: Measurement) -> dict:
    """Counters per traced item, so runs of different length compare."""
    t, n = m.tracer, m.traced_items

    def calls(fn):
        return (t.stat(fn).calls / n, "calls/item")

    def self_s(fn):
        return (t.stat(fn).self_s / n, "s/item")

    def extra(fn, key, unit):
        return (t.stat(fn).extra.get(key, 0) / n, unit)

    cache_calls = m.cache.hits + m.cache.misses
    vectors = t.stat("oracle.sparse_nullspace").extra.get("vectors", 0)
    found = t.stat("oracle.minimal_resolution_bruteforce").extra.get("generators", 0)
    return {
        "monomials.contains.calls": calls("monomials.contains"),
        "monomials.contains.self_s": self_s("monomials.contains"),
        "monomials.standard_monomials.calls": (cache_calls / n, "calls/item"),
        "monomials.standard_monomials.hit_ratio": (m.cache.hits / cache_calls if cache_calls else 0.0, "ratio"),
        "monomials.standard_monomials.cache_entries": (m.cache.peak_entries, "entries"),
        "monomials.parse_ideal.self_s": self_s("monomials.parse_ideal"),
        "classify.classify.calls": calls("classify.classify"),
        "classify.classify.self_s": self_s("classify.classify"),
        "resolution.build_resolution.calls": calls("resolution.build_resolution"),
        "resolution.build_resolution.self_s": self_s("resolution.build_resolution"),
        "resolution.generators": extra("resolution.build_resolution", "generators", "gens/item"),
        "resolution.entries": extra("resolution.build_resolution", "entries", "entries/item"),
        "resolution.compose_check.calls": calls("resolution.compose_check"),
        "resolution.compose_check.self_s": self_s("resolution.compose_check"),
        "resolution.resolution_to_json.self_s": self_s("resolution.resolution_to_json"),
        "resolution.resolution_from_json.self_s": self_s("resolution.resolution_from_json"),
        "betti.graded_betti.self_s": self_s("betti.graded_betti"),
        "betti.render_betti_table.self_s": self_s("betti.render_betti_table"),
        "oracle.check_complex.self_s": self_s("oracle.check_complex"),
        "oracle.check_minimality.self_s": self_s("oracle.check_minimality"),
        "oracle.check_exactness.calls": calls("oracle.check_exactness"),
        "oracle.check_exactness.self_s": self_s("oracle.check_exactness"),
        "oracle.check_exactness.with_blocks": extra("oracle.check_exactness", "with_blocks", "calls/item"),
        "oracle.graded_piece.calls": calls("oracle.graded_piece"),
        "oracle.graded_piece.self_s": self_s("oracle.graded_piece"),
        "oracle.graded_piece.nonzeros": extra("oracle.graded_piece", "nonzeros", "nonzeros/item"),
        "oracle.sparse_rank.calls": calls("oracle.sparse_rank"),
        "oracle.sparse_rank.self_s": self_s("oracle.sparse_rank"),
        "oracle.sparse_nullspace.calls": calls("oracle.sparse_nullspace"),
        "oracle.sparse_nullspace.self_s": self_s("oracle.sparse_nullspace"),
        "oracle.sparse_nullspace.vectors": extra("oracle.sparse_nullspace", "vectors", "vectors/item"),
        "oracle.minimal_resolution_bruteforce.self_s": self_s("oracle.minimal_resolution_bruteforce"),
        "oracle.bruteforce.useful_ratio": (found / vectors if vectors else 0.0, "ratio"),
        "cli.main.self_s": self_s("cli.main"),
        "staircase.render_ascii.self_s": self_s("staircase.render_ascii"),
        "trace.overhead_ratio": (m.traced_s / m.untraced_s, "ratio"),
        "trace.unattributed_ratio": (1 - t.self_total() / m.traced_raw_s, "ratio"),
    }


def git_state() -> tuple[Optional[str], Optional[bool]]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, stamp)."""
    wl = workloads.WORKLOADS[name]
    count = pass_count(wl, seconds)
    sha, dirty = git_state()
    if not trace:
        setup_probe(name, seed, count)  # fails fast without the package; compiles bytecode once
    ss, passes = workloads.setup(ROOT, name, seed, count)
    m = measure(wl, ss, passes, trace, probe=None if trace else lambda: setup_probe(name, seed, count))
    metrics = per_layer_metrics(m) if trace else end_to_end_metrics(m)
    correct = m.tally.failed == 0
    problems = [m.tally.first_error] if m.tally.first_error else []
    if trace and metrics["trace.unattributed_ratio"][0] > ATTRIBUTION_SLACK:
        correct = False
        problems.append(f"layers' self times miss more than {ATTRIBUTION_SLACK:.0%} of traced time")
    stamp = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_sha": sha, "git_dirty": dirty,
        "inputs_sha256": workloads.inputs_digest(passes),
        "measured_passes": count - 1, "visits": wl.visits, "samples": len(m.latencies) or m.traced_items,
        "fail_ratio": m.tally.failed / m.tally.attempted, "problems": problems,
    }
    if m.raw_latencies:  # the untraced item timings before scaling, for comparison
        stamp["unscaled"] = {
            "items_per_s": len(m.raw_latencies) / sum(m.raw_latencies),
            "latency_p50_ms": statistics.median(m.raw_latencies) * 1000,
            "latency_p95_ms": _quantile(m.raw_latencies, 95) * 1000,
        }
    result = {
        "correct": correct,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, stamp


def print_run(result: dict, stamp: dict) -> None:
    name = stamp["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:44s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:14s} {'fail_ratio':44s} {stamp['fail_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    for problem in stamp["problems"]:
        print(f"{name:14s} problem: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, stamp = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_run(result, stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
