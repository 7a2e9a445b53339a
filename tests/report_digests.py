"""Pinned SHA-256 digests of what the engine and the checks report on the
300-ideal acceptance corpus: exhaustive_corpus(4) + random_corpus(50, seed=0).

Each section hashes one JSON line per ideal:
- json9: resolution_to_json at stage 9;
- complex10, minimality10, homogeneity10, betti10: the three reports
  and graded_betti at stage 10;
- exact_q, exact_f2, exact_f32003: check_exactness(res, 8, 25) of the
  stage-10 resolution over Q, F_2 and F_32003;
- roundtrip7: the stage-7 resolution sent through resolution_from_json,
  its JSON and its three structural reports;
- mutation_<kind>: seeded entry mutations of the stage-6 resolution, each
  made by mutate in tests/conftest.py, and every report on it, one section
  per kind the digest draws from MUTATIONS, so a change to how one kind
  is reported moves that kind's digest alone;
- spare_generators: the stage-6 JSON with one spare generator, read by
  no entry, appended to F_k for k = 0, 1, 2 in turn, loaded with
  resolution_from_json, and all four checks' reports on it.

A refactor that keeps every report the same keeps every digest.  It uses
only the package's public API and the helpers of tests/conftest.py, where
the mutation vocabulary, MUTATIONS and mutate_entries, lives beside the
tests that read it.  The file name has no test_
prefix, so pytest does not collect it; run it on its own (about 12 s
on a shared 2-core x86-64 VM):

    PYTHONPATH=src python tests/report_digests.py

It prints each section's digest and exits 1 if one differs from its pin.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import MUTATIONS, exhaustive_corpus, mutate, random_corpus  # noqa: E402
from stairstep import (  # noqa: E402
    ExactRationals,
    PrimeField,
    build_resolution,
    check_complex,
    check_exactness,
    check_homogeneity,
    check_minimality,
    graded_betti,
    resolution_from_json,
    resolution_to_json,
)

PINNED = {
    "json9": "fe0c52e4c2ccfb4508e70b7cab6a8c6faa852227a4a025abb4570cdeb9967ce2",
    "complex10": "1af729ac98b20a0c79082ce881696fb9936d68491373b53469bcdab48eb2d3d0",
    "minimality10": "18d4e9a024d8560065b0a4c26276d4c8805e04451cb4320605c8c82c6b41d988",
    "homogeneity10": "eea54dc3f526c5bb618d346bd24d6a4b4ad5562c09e7f01fc630f510e5937ca2",
    "betti10": "c13ea1924bafd73e5f9a44bd6987ed78735051cac7de30a1dcfedc15669a0762",
    "exact_q": "b743fb3dd1dbaa01467d67826975f27bad53d9695151e7ae12cf23a1b6623de3",
    "exact_f2": "b743fb3dd1dbaa01467d67826975f27bad53d9695151e7ae12cf23a1b6623de3",
    "exact_f32003": "b743fb3dd1dbaa01467d67826975f27bad53d9695151e7ae12cf23a1b6623de3",
    "roundtrip7": "7ad10de50ef950cd6ad4f392ade7d62a30d8cbb0d785aa2b56515641972d073f",
    "mutation_flip_sign": "22968a5ac92dee4d4936a4a47b6c908d5fe4672c97867b4231ed1f1442e65e1f",
    "mutation_x_plus_1": "759a17866a7f20c8fd8ee88080a781a18de2a42e5aa04217ab04c952bb7d5f58",
    "mutation_row_plus_1": "d3736afd87ceda923a55da91bea1e55636fa71a810f10da7d8f68b58b1cf4249",
    "mutation_drop": "cf66b3b4c5dbd60c087b7e104b7a0c7488281979b21a21d7406e66276795fc8d",
    "mutation_sign_2": "80b8ed272276b874f3d4555e78dc5eafa5f44476dd8880da4e4e2468516f94de",
    "mutation_x_to_minus_1": "c6b8af067c85b95d670a89a1bcac5b2dfe5ae74bb496bf9cd444c6562fcd0375",
    "mutation_duplicate": "72d325035ff48c1111f1e94754ed7c75c0057a9df6064566f116e16d3f1be96f",
    "mutation_shuffle": "ec77f53f702c18065dcdf3bd9ef676fbb434bd5a03405a4809392836f21e2583",
    "spare_generators": "2233c329afec259e4cf9686ada1f918e099b61d5fc4e8957c3788d6957c58b34",
}

FIELDS = {"exact_q": ExactRationals(), "exact_f2": PrimeField(2), "exact_f32003": PrimeField(32003)}


def _mutations(res, seed: int) -> list:
    """Four seeded mutants of ``res``, each one differential's entries changed."""
    rng = random.Random(seed)
    stages = [i for i, d in enumerate(res.differentials) if len(d.entries)]
    out = []
    for _ in range(4 if stages else 0):
        i = rng.choice(stages)
        kind, k = rng.randrange(8), rng.randrange(len(res.differentials[i].entries))
        out.append(((i + 1, kind, k), mutate(res, i + 1, MUTATIONS[kind], k, rng)))
    return out


def _spares(res) -> list:
    """For k = 0, 1, 2: res sent through JSON with one more generator in F_k,
    of twist 7 and read by no entry."""
    out = []
    for k in range(3):
        data = resolution_to_json(res)
        module = data["modules"][k]
        module["generators"].append({"label": "spare", "bidegree": [3, 4]})
        module["rank"] += 1
        out.append((k, resolution_from_json(data)))
    return out


def _reports(res, *checks) -> list:
    return [check(res).to_json() for check in checks]


def digests() -> dict[str, str]:
    shas = {name: hashlib.sha256() for name in PINNED}

    def put(name: str, value) -> None:
        shas[name].update(json.dumps(value, sort_keys=True).encode() + b"\n")

    structural = (check_complex, check_minimality, check_homogeneity)
    for n, ideal in enumerate(exhaustive_corpus(4) + random_corpus(50, seed=0)):
        put("json9", resolution_to_json(build_resolution(ideal, 9)))
        res = build_resolution(ideal, 10)
        for name, report in zip(("complex10", "minimality10", "homogeneity10"), _reports(res, *structural)):
            put(name, report)
        put("betti10", sorted(graded_betti(res).entries.items()))
        for name, fld in FIELDS.items():
            put(name, check_exactness(res, 8, 25, fld).to_json())
        loaded = resolution_from_json(resolution_to_json(build_resolution(ideal, 7)))
        put("roundtrip7", [resolution_to_json(loaded)] + _reports(loaded, *structural))
        res6 = build_resolution(ideal, 6)
        for what, mutant in _mutations(res6, n):
            exact = check_exactness(mutant, 5, max(20, ideal.max_generator_degree)).to_json()
            put(f"mutation_{MUTATIONS[what[1]]}", [what] + _reports(mutant, *structural) + [exact])
        for k, spare in _spares(res6):
            put("spare_generators", [k] + _reports(spare, *structural) + [check_exactness(spare, 5, 20).to_json()])
    return {name: sha.hexdigest() for name, sha in shas.items()}


def main() -> int:
    bad = 0
    for name, digest in digests().items():
        ok = digest == PINNED[name]
        bad += not ok
        print(f"{name:22} {digest}  {'ok' if ok else 'MISMATCH, pinned ' + (PINNED[name] or 'nothing')}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
