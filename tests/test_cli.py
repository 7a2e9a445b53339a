from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import staircases
import stairstep.cli
import stairstep.oracle
import stairstep.resolution
from stairstep import (
    ExactRationals,
    Monomial,
    betti_table,
    check_complex,
    check_exactness,
    check_minimality,
    build_resolution,
    classify,
    default_max_degree,
    minimal_resolution_bruteforce,
    normalize_ideal,
    parse_ideal,
    poincare_series,
    render_ascii,
    render_betti_table,
    render_svg,
    resolution_from_json,
    series_expand,
    staircase_outline,
)
from stairstep.betti import render_shape
from stairstep.cli import main


random_staircases = staircases(6, 30)


# random staircases (one generator whenever r = 1), plus the pure powers
# (x^a, y^b) of types III, IV and V, which random exponents rarely draw
pictured_ideals = st.one_of(
    random_staircases,
    st.builds(lambda a, b: normalize_ideal([Monomial(a, 0), Monomial(0, b)]), st.integers(1, 30), st.integers(1, 30)),
)


def reference_ascii(ideal) -> str:
    """render_ascii's picture drawn cell by cell: * at a corner, # where M
    contains the cell, . elsewhere."""
    outline = staircase_outline(ideal)
    corners = set(outline.corners)
    width = max(2, len(str(outline.ymax)))

    def cell(a, b):
        if (a, b) in corners:
            return "*"
        return "#" if ideal.contains(Monomial(a, b)) else "."

    cols = range(outline.xmax + 1)
    rows = [f"{b:>{width}} " + " ".join(cell(a, b) for a in cols) for b in range(outline.ymax, -1, -1)]
    rows.append(" " * (width + 1) + " ".join(f"{a}"[-1] for a in cols))
    rows.append(f"M = {ideal}")
    return "\n".join(rows)


def reference_lattice_circles(ideal) -> list[str]:
    """render_svg's lattice circles drawn cell by cell, black where M
    contains the cell; the picture is 40 px a cell inside a 50 px pad."""
    outline = staircase_outline(ideal)
    h = outline.ymax * 40 + 100
    return [
        f'<circle cx="{50 + 40 * a}" cy="{h - 50 - 40 * b}" r="3" '
        f'fill="{"black" if ideal.contains(Monomial(a, b)) else "white"}" stroke="black"/>'
        for b in range(outline.ymax + 1)
        for a in range(outline.xmax + 1)
    ]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_main_case(self, capsys):
        code, out, _ = run(capsys, "classify", "x2y,xy2")
        assert (code, out.strip()) == (0, "main-case-1")

    def test_normalization_applies(self, capsys):
        code, out, _ = run(capsys, "classify", "x, y, xy")
        assert (code, out.strip()) == (0, "type-3")


class TestBetti:
    def test_totals(self, capsys):
        code, out, _ = run(capsys, "betti", "xy2,y4", "--stages", "6")
        assert code == 0
        assert out.strip() == "1 2 3 5 8 13 21"

    def test_graded_text(self, capsys):
        code, out, _ = run(capsys, "betti", "x2y,xy2", "--graded")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "       0 1 2 3 4 5 6"
        assert lines[1] == "total: 1 2 3 5 8 13 21"
        assert lines[3] == "1:     . . 2 5 4 1 ."

    def test_graded_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "x,y", "--graded", "--format", "csv")
        assert code == 0
        assert out.strip() == "i,d,beta\n0,0,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "betti", "xy2,y4", "--format", "json")
        assert json.loads(out)["totals"] == [1, 2, 3, 5, 8, 13, 21]

    # stdout of `betti IDEAL --graded --stages 11`, as the materialized
    # engine printed it; the text ones with every label padded to "total:"
    DEEP_SHA256 = {
        ("x6,x5y,x4y2,x3y3,x2y4,xy5", "text"):
            "3db0a15a711311d4053e065e949dd37467bef6ef2bede7cb9bc3af74eaa202b6",
        ("x6,x5y,x4y2,x3y3,x2y4,xy5", "json"):
            "a21870fd3bc655bbd5eb0b6cd143f2e77def8afa472e29779a8ef618a1e4d849",
        ("x8y,x7y3,x6y5,x5y6,xy8,y9", "text"):
            "ac7bb295638efd996ccb1c04ed32529498c448b060d567868dfabf56b41baa05",
        ("x8y,x7y3,x6y5,x5y6,xy8,y9", "json"):
            "4bbaaf1ed1ea781c027dd8e20642d085adbe115a04abdd1bc2e8c522d3810ae5",
    }

    @pytest.mark.parametrize("ideal, fmt", sorted(DEEP_SHA256))
    def test_deep_graded_output_is_pinned(self, capsys, ideal, fmt):
        code, out, _ = run(capsys, "betti", ideal, "--graded", "--stages", "11", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DEEP_SHA256[(ideal, fmt)]

    def test_never_builds_a_main_case_resolution(self, capsys, monkeypatch):
        built = []

        def spy(ideal, stages):
            built.append(str(ideal))
            return build_resolution(ideal, stages)

        def refuse(ideal, stages):
            raise AssertionError("betti built a main-case stage")

        monkeypatch.setattr(stairstep.resolution, "build_resolution", spy)
        assert run(capsys, "resolve", "xy2,y4", "--stages", "2")[0] == 0
        assert built == ["(x*y^2, y^4)"]  # the spy sees what the CLI builds
        monkeypatch.setattr(stairstep.resolution, "_main_stages", refuse)
        for ideal in ("xy2,y4", "x2y,xy2", "x6,x5y,x4y2,x3y3,x2y4,xy5"):
            for fmt in ("text", "json", "csv"):
                for graded in ((), ("--graded",)):
                    code, out, _ = run(capsys, "betti", ideal, "--stages", "9", "--format", fmt, *graded)
                    assert code == 0 and out
        assert built == ["(x*y^2, y^4)"]


class TestPoincare:
    def test_display(self, capsys):
        code, out, _ = run(capsys, "poincare", "x2y,xy2")
        assert (code, out.strip()) == (0, "(1+z)/(1-z-z^2)")

    def test_expand(self, capsys):
        code, out, _ = run(capsys, "poincare", "x2y,xy2", "--expand", "6")
        assert out.strip() == "1 2 3 5 8 13 21"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "poincare", "x2y,xy2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"numerator": [1, 1], "denominator": [1, -1, -1], "display": "(1+z)/(1-z-z^2)"}

    def test_json_expand(self, capsys):
        code, out, _ = run(capsys, "poincare", "x,y", "--format", "json", "--expand", "4")
        assert code == 0
        assert json.loads(out) == {"series": "1", "coefficients": [1, 0, 0, 0, 0]}

    # every regime, and 1, 1024 (one chunk), 1025 and 2501 coefficients
    @pytest.mark.parametrize("text", ["x", "x2y3", "x2y,xy2", "x6,x5y,x4y2,x3y3,x2y4,xy5", "x,y", "x5,y", "x3,y7"])
    @pytest.mark.parametrize("n", [0, 1023, 1024, 2500])
    def test_written_as_made_it_prints_the_whole_lists_text(self, capsys, text, n):
        ideal = parse_ideal(text)
        series = poincare_series(classify(ideal), ideal.num_generators)
        coeffs = series_expand(series, n)
        code, out, err = run(capsys, "poincare", text, "--expand", str(n))
        assert (code, out, err) == (0, " ".join(map(str, coeffs)) + "\n", "")
        code, out, err = run(capsys, "poincare", text, "--expand", str(n), "--format", "json")
        assert (code, out, err) == (0, json.dumps({"series": str(series), "coefficients": coeffs}) + "\n", "")


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "x3,y7", "--stages", "8", "--max-degree", "40")
        assert code == 0
        assert "verdict: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "x2y,xy2", "--stages", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        kinds = [kind for kind, _ in groupby(c["kind"] for c in data["checks"])]
        assert kinds == ["complex", "minimality", "exactness"]

    def test_one_check_call_reads_each_entry_rule_once(self, capsys, monkeypatch):
        # verify's whole verdict is one check_resolution call, which reads
        # the entry rule of each of the 9 maps once
        calls, real, shape, seen = [], stairstep.oracle.check_resolution, stairstep.oracle._shape_fault, Counter()

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        for name in ("check_complex", "check_minimality", "check_exactness", "check_homogeneity"):
            monkeypatch.setattr(stairstep.oracle, name, None)  # a call raises TypeError
        monkeypatch.setattr(stairstep.oracle, "check_resolution", spy)
        monkeypatch.setattr(stairstep.oracle, "_shape_fault", lambda res, i: seen.update([i]) or shape(res, i))
        code, out, err = run(capsys, "verify", "x6,x5y,x4y2,x3y3,x2y4,xy5", "--stages", "8")
        assert (code, out, err, calls) == (0, "verdict: pass\n", "", [(8, 60, ExactRationals())])
        assert seen == Counter(range(1, 10))

    def test_failed_checks_print_and_exit_1(self, capsys, monkeypatch):
        # one minimality record and one exactness record planted as failed
        real, planted = stairstep.oracle.check_resolution, {("minimality", 2, None), ("exactness", 1, 3)}

        def plant(*args):
            report = real(*args)
            report.checks = [
                c._replace(passed=False, detail="planted") if (c.kind, c.stage, c.degree) in planted else c
                for c in report.checks
            ]
            return report

        monkeypatch.setattr(stairstep.oracle, "check_resolution", plant)
        code, out, _ = run(capsys, "verify", "x2y,xy2", "--stages", "3")
        assert code == 1
        assert out.splitlines() == [
            "FAIL minimality at stage 2: planted",
            "FAIL exactness at stage 1, degree 3: planted",
            "verdict: fail",
        ]
        code, out, _ = run(capsys, "verify", "x2y,xy2", "--stages", "3", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fail"
        assert [(c["kind"], c["stage"], c["degree"]) for c in data["checks"] if not c["pass"]] == [
            ("minimality", 2, None),
            ("exactness", 1, 3),
        ]


class TestOracle:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "xy2,y4", "--stages", "5")
        assert code == 0
        assert "engine agreement: pass" in out

    def test_prime_field_flag(self, capsys):
        code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4", "--field", "p:101")
        assert code == 0

    def test_mismatch_line(self, capsys, monkeypatch):
        # a brute force that misses one generator of F_2 in degree 3
        real = stairstep.oracle.minimal_resolution_bruteforce

        def short(ideal, max_stage, max_degree, fld):
            table = real(ideal, max_stage, max_degree, fld)
            return replace(table, entries={**table.entries, (2, 3): table.entries[(2, 3)] - 1})

        monkeypatch.setattr(stairstep.oracle, "minimal_resolution_bruteforce", short)
        code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4")
        assert code == 1
        assert out.splitlines()[-2:] == ["MISMATCH beta_(2,3): engine 2 vs oracle 1", "engine agreement: fail"]

    def test_homogeneity_failure(self, capsys, monkeypatch):
        real = stairstep.oracle.check_homogeneity

        def plant(res):
            report = real(res)
            report.checks[1] = report.checks[1]._replace(passed=False, detail="planted")
            return report

        monkeypatch.setattr(stairstep.oracle, "check_homogeneity", plant)
        code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4")
        assert code == 1
        assert out.splitlines()[-2:] == ["FAIL homogeneity at stage 2: planted", "engine agreement: fail"]
        code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert (data["match"], data["homogeneous"]) == (True, False)


class TestResolve:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "resolve", "x2y,xy2", "--stages", "4")
        assert code == 0
        assert "ranks: 1 2 3 5 8" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "resolve", "x2y,xy2", "--stages", "4", "--format", "csv")
        assert (code, out) == (0, "stage,rank\n0,1\n1,2\n2,3\n3,5\n4,8\n")

    # stdout of `resolve IDEAL --stages 8 --format json`, as the engine
    # printed it before its templates were flattened
    JSON_SHA256 = {
        "x6,x5y,x4y2,x3y3,x2y4,xy5": "e421ab698d60a820b211f0316f072dfd476ce866c9af6e6f01c78f940b2a0cb7",
        "x3,x2y2,xy3,y5": "37357a542f63c69ea599c25148ac65199621e28e9de0db87f30cc87fd45a6313",
    }

    @pytest.mark.parametrize("ideal", sorted(JSON_SHA256))
    def test_json_output_is_pinned(self, capsys, ideal):
        code, out, _ = run(capsys, "resolve", ideal, "--stages", "8", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.JSON_SHA256[ideal]

    def test_json_round_trip_reverifies(self, capsys):
        code, out, _ = run(capsys, "resolve", "xy2,y4", "--stages", "7", "--format", "json")
        assert code == 0
        res = resolution_from_json(json.loads(out))
        assert check_complex(res).verdict
        assert check_minimality(res).verdict
        assert check_exactness(res, 6, 15).verdict


class TestStaircase:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "staircase", "x2y,xy2")
        assert code == 0
        assert "*" in out and "M = (x^2*y, x*y^2)" in out

    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "stairs.svg"
        code, out, _ = run(capsys, "staircase", "xy2,y4", "--svg", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg") and "polygon" in text
        assert ">x</text>" in text and ">y</text>" in text

    # render_ascii(M) and render_svg(M), as the renderer drew them when the
    # staircase frame was computed in monomials.py
    PICTURE_SHA256 = {
        "x2y,xy2": (
            "dbfb95540064424e8c1d14cae24eb7c331b521f104dbce5b37528e77aea833ce",
            "47a4b2e58206844e1534c3afd4578c5fcc5a40338303a7e0897fd60eed5eb1da",
        ),
        "xy2,y4": (
            "81919b24477e07671f52c44bd6a9440dbda2fef713056be7974425e331749725",
            "d265906a19391f8a63fa87b11d75afadb0abea6c2ff83fc7d3142d0c49dc786d",
        ),
        "x3,y7": (
            "45ceb60ad744ba32bc2c2744154520e4f3e1680812e563c0e41d1a9bf68e6cce",
            "06a7ec141fc98e277d11080dec5057e44470b8cb9fd563be5c0aad09356f135d",
        ),
        "x5,y": (
            "e0d70dbf756281600170ac59fb0b54b1623dbe4b455601f5ff6a57242af46db2",
            "fa8ac6e2ba9577b615707804d42caa9af59b2e2812e6a941ef02d2ec84529997",
        ),
        "x2y3": (
            "d03c4a8bb382462f161e713fe992a4db8f35e82f68669b7e5a11024319a19449",
            "5616ad0e79621ebbff30be4efeeb1b7b6948b7963a1390965a83315802c3f690",
        ),
        "y5": (
            "ad94e42b549a786dd60e7a1d8f0029be6a7a684e0015833205e0a9c7ce1439b1",
            "8cc42113b4bc42e7273d52daedb7d32eb8c2640f858e355f4f98f497128f2dd9",
        ),
        "x6,x5y,x4y2,x3y3,x2y4,xy5": (
            "04de6d180e1d954c99ffb4401b91663109f59b57e128fa1ca57d8c651bf368fb",
            "c45baded64a5d237bced9223280597680c2df0ef698ce86cb030d7bc15a05b67",
        ),
    }

    @pytest.mark.parametrize("text", sorted(PICTURE_SHA256))
    def test_pictures_are_pinned(self, text):
        ideal = parse_ideal(text)
        pictures = render_ascii(ideal), render_svg(ideal)
        assert tuple(hashlib.sha256(p.encode()).hexdigest() for p in pictures) == self.PICTURE_SHA256[text]

    @given(pictured_ideals)
    @example(parse_ideal("x2y3"))  # type II, one generator
    @example(parse_ideal("y5"))  # one generator, a pure power
    @example(parse_ideal("x,y"))  # type III
    @example(parse_ideal("x,y7"))  # type IV
    @example(parse_ideal("x5,y"))  # type IV
    @example(parse_ideal("x3,y7"))  # type V
    @example(parse_ideal("x3,y99"))  # row labels of three digits
    def test_pictures_match_the_per_cell_reference(self, ideal):
        assert render_ascii(ideal) == reference_ascii(ideal)
        circles = [line for line in render_svg(ideal).splitlines() if ' r="3" ' in line]
        assert circles == reference_lattice_circles(ideal)

    def test_rows_100_and_above_keep_their_cells_over_the_axis(self):
        ideal = parse_ideal("x3,y99")
        *lattice, axis, _ = render_ascii(ideal).splitlines()
        assert {len(line) for line in lattice + [axis]} == {15}
        stars = [(int(line.split()[0]), axis[line.index("*")]) for line in lattice if "*" in line]
        assert stars == [(b, f"{a}"[-1]) for a, b in reversed(staircase_outline(ideal).corners)]

    def test_svg_unwritable_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "stairs.svg"
        code, out, err = run(capsys, "staircase", "x2y,xy2", "--svg", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.parent.exists()


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "betti", "x^")
        assert code == 2
        assert "error" in err

    def test_unit_ideal_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "1")
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, err = run(capsys, "frobnicate", "x")
        assert code == 2
        assert "error: argument command: invalid choice: 'frobnicate'" in err

    def test_help_lists_every_subcommand(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "{classify,resolve,betti,poincare,verify,oracle,staircase}" in out
        for name in ("classify", "resolve", "betti", "poincare", "verify", "oracle", "staircase"):
            assert f"\n    {name} " in out

    def test_usage_line_lists_every_subcommand(self, capsys):
        # betti takes no --svg, so the full parser reads the line and prints
        # the top-level usage line and error
        code, _, err = run(capsys, "betti", "x2y,xy2", "--svg", "a")
        assert code == 2
        usage = stairstep.cli._build_parser().format_usage()
        assert err == usage + "stairstep: error: unrecognized arguments: --svg a\n"

    def test_bad_field_exit_2(self, capsys):
        assert run(capsys, "oracle", "x2,y2", "--field", "p:6")[0] == 2

    def test_unknown_field_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "x2,y2", "--field", "q2")
        assert code == 2
        assert "field must be 'q' or 'p:PRIME', got 'q2'" in err

    def test_non_integer_stages_exit_2(self, capsys):
        code, _, err = run(capsys, "betti", "x2,y2", "--stages", "abc")
        assert code == 2
        assert "invalid int value: 'abc'" in err

    def test_empty_generator_exit_2(self, capsys):
        code, out, err = run(capsys, "classify", "x,,y")
        assert (code, out) == (2, "")
        assert err == "error: empty generator (at offset 2)\n"

    def test_memory_error_exit_2(self, capsys, monkeypatch):
        # exit 1 means a failed verification, so running out of memory is 2
        def exhaust(args, ideal):
            raise MemoryError

        _handler, help_text, flags = stairstep.cli._COMMANDS["betti"]
        monkeypatch.setitem(stairstep.cli._COMMANDS, "betti", (exhaust, help_text, flags))
        assert run(capsys, "betti", "x2y,xy2") == (2, "", "error: out of memory\n")

    def test_a_closed_stdout_exits_141(self):
        # the reader takes 100 bytes of a 2.9 MB resolution and closes the
        # pipe: exit 128 + SIGPIPE, as a shell reports for a killed writer,
        # with no traceback
        src = os.path.dirname(os.path.dirname(stairstep.cli.__file__))
        argv = ["resolve", "x6,x5y,x4y2,x3y3,x2y4,xy5", "--stages", "7"]
        with subprocess.Popen(
            [sys.executable, "-m", "stairstep.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")

    @pytest.mark.parametrize("window", [str(2**63 - 1), str(10**20)])
    def test_verify_window_past_64_bits_exit_2(self, capsys, window):
        # the exactness check keeps one list entry per degree of the
        # window, and a window that long cannot be allocated, so it is an
        # input error, not a failed check
        code, _out, err = run(capsys, "verify", "x2y,xy2", "--stages", "2", "--max-degree", window)
        assert (code, len(err.splitlines())) == (2, 1)
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("window", [str(2**63 - 1), str(10**20)])
    def test_oracle_window_past_64_bits_answers(self, capsys, window):
        # each brute-force stage ends at its staircase bound and clamps its
        # products to the ring's stair, so nothing is sized by the window
        code, out, err = run(capsys, "oracle", "x2y,xy2", "--stages", "9", "--max-degree", window)
        assert (code, err) == (0, "") and "engine agreement: pass" in out.splitlines()
        assert out == run(capsys, "oracle", "x2y,xy2", "--stages", "9", "--max-degree", "99999")[1]

    def test_graded_only_on_betti(self, capsys):
        assert run(capsys, "classify", "x2y,xy2", "--graded")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "x2y,xy2", "--seed", "3"),
            ("betti", "x2y,xy2", "--expand", "3"),
            ("poincare", "x2y,xy2", "--graded"),
            ("staircase", "x2y,xy2", "--expand", "3"),
            ("verify", "x2y,xy2", "--svg", "out.svg"),
            # a subcommand takes only the flags it reads
            ("classify", "x2y,xy2", "--stages", "3"),
            ("classify", "x2y,xy2", "--format", "json"),
            ("staircase", "x2y,xy2", "--field", "p:7"),
            ("resolve", "x2y,xy2", "--max-degree", "9"),
            ("betti", "x2y,xy2", "--field", "p:7"),
            ("poincare", "x2y,xy2", "--stages", "3"),
            ("poincare", "x2y,xy2", "--format", "csv"),
            ("verify", "x2y,xy2", "--format", "csv"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[2]}",
    )
    def test_flag_on_other_subcommand_exit_2(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2


# every flag a command may take: values that parse, then values that do
# not; None gives the flag alone, and --svg writes to the null device
FLAG_VALUES = {
    "--stages": (("0", "2"), ("-1", "two", None)),
    "--max-degree": (("9", "0"), ("nine", None)),
    "--field": (("q", "p:7"), ("p:6", "r", None)),
    "--format": (("text", "json", "csv"), ("xml", None)),
    "--expand": (("4",), ("-3", "four", None)),
    "--graded": ((None,), ()),
    "--svg": ((os.devnull, ""), (None,)),
}


def flag_tokens(flag):
    """The flag with a value, mostly one that parses."""
    valid, invalid = FLAG_VALUES[flag]
    return st.sampled_from(valid * 4 + invalid).map(lambda value: [flag] if value is None else [flag, value])


@st.composite
def command_lines(draw):
    """A command, or an unknown one, then its ideal 0-2 times and some of
    its flags, and at times a flag of another command, a flag no command
    has, an abbreviation, -h or --, in any order."""
    name = draw(st.sampled_from([*stairstep.cli._COMMANDS, "frobnicate"]))
    own = [flag for flag, _kwargs in stairstep.cli._COMMANDS[name][2]] if name in stairstep.cli._COMMANDS else []
    parts = [["x2y,xy2"], ["x3,y7"]][: draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))]
    if own:
        parts += draw(st.lists(st.sampled_from(own).flatmap(flag_tokens), max_size=3))
    odd = st.sampled_from([["--seed", "3"], ["--stag", "3"], ["--f", "q"], ["--form", "json"], ["--g"], ["-h"], ["--"]])
    parts += [draw(st.one_of(odd, *map(flag_tokens, FLAG_VALUES))) for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])))]
    return [name] + [token for part in draw(st.permutations(parts)) for token in part]


def outcome(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, with each handler printing
    the namespace it was given before it runs."""

    def echo(handler):
        def run_handler(args, ideal):
            print(sorted(vars(args).items()))
            return handler(args, ideal)

        return run_handler

    handlers = {name: (echo(h), help_text, flags) for name, (h, help_text, flags) in stairstep.cli._COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(stairstep.cli._COMMANDS, handlers), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def full_parse(argv):
    """The reference: every argv parsed by the full parser, as main did
    before it read a valid command line without argparse."""
    return stairstep.cli._build_parser().parse_args(argv)


class TestParsing:
    @settings(max_examples=300)
    @given(command_lines())
    @example(["betti", "x2y,xy2", "--svg", "a"])
    @example(["verify", "x2y,xy2", "--stag", "1", "--f", "p:7"])
    @example(["betti", "--stages", "2", "--", "x2y,xy2"])
    @example(["oracle", "x2y,xy2", "--field", "p:6", "-h"])
    @example(["poincare", "-h", "--expand", "four"])
    @example(["staircase", "x2y,xy2", "--svg", os.devnull, "--svg", ""])
    @example([])
    # each line the reader hands over to the full parser, or reads as it does
    @example(["betti", "x2y,xy2", "--stages=3"])
    @example(["betti", "x2y,xy2", "--graded=1"])
    @example(["resolve", "x2y,xy2", "--stages", "2", "--stages", "3"])
    @example(["verify", "x2y,xy2", "--stages", "2", "--max-degree", "-1"])
    @example(["classify", "-"])
    @example(["classify", "--", "x2y,xy2"])
    @example(["betti", "x2y,xy2", "--stag", "2"])
    @example(["classify", ""])
    @example(["betti", "--graded", "--format=csv", "x2y,xy2"])
    @example(["staircase", "x2y,xy2", "--svg="])
    def test_a_command_parsed_alone_prints_what_the_full_parser_does(self, argv):
        # in a directory of its own: an ideal drawn after a bare --svg is a
        # file name, and staircase writes its picture there
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with mock.patch.object(stairstep.cli, "_parse_args", full_parse):
                    expected = outcome(argv)
                assert outcome(argv) == expected
            finally:
                os.chdir(cwd)

    @pytest.mark.parametrize("command", list(stairstep.cli._COMMANDS))
    @pytest.mark.parametrize("help_args", [("-h",), ("x2y,xy2", "--help")])
    def test_help_is_the_subparsers(self, command, help_args):
        with mock.patch.object(stairstep.cli, "_parse_args", full_parse):
            expected = outcome([command, *help_args])
        assert outcome([command, *help_args]) == expected
        assert expected[0] == 0 and expected[1].startswith(f"usage: stairstep {command} [-h]")

    def test_a_valid_command_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in (
            ("classify", "x2y,xy2"),
            ("resolve", "x2y,xy2", "--stages", "2"),
            ("betti", "x2y,xy2", "--graded"),
            ("poincare", "x2y,xy2", "--expand", "3"),
            ("verify", "x2y,xy2", "--stages", "2", "--field", "p:7"),
            ("oracle", "x2y,xy2", "--stages", "2"),
            ("staircase", "x2y,xy2"),
        ):
            built.clear()
            assert run(capsys, *argv)[0] == 0
            assert built == []
        # an error builds the full parser alone, with its seven subparsers
        built.clear()
        assert run(capsys, "betti", "x2y,xy2", "--svg", "a")[0] == 2
        assert built[0] == "stairstep" and len(built) == 1 + len(stairstep.cli._COMMANDS)


def oracle_fields(capsys, monkeypatch):
    """Run `oracle x2y,xy2 --stages 4` and return the fields the oracle got."""
    seen = []

    def spy(ideal, max_stage, max_degree, fld):
        seen.append(fld)
        return minimal_resolution_bruteforce(ideal, max_stage, max_degree, fld)

    monkeypatch.setattr(stairstep.oracle, "minimal_resolution_bruteforce", spy)
    code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4")
    assert code == 0
    assert "engine agreement: pass" in out
    return seen


class TestFieldEnv:
    def test_default_is_exact_rationals(self, capsys, monkeypatch):
        monkeypatch.delenv("STAIRSTEP_FIELD", raising=False)
        assert oracle_fields(capsys, monkeypatch) == [ExactRationals()]

    def test_the_environment_does_not_choose_the_field(self, capsys, monkeypatch):
        # --field is the one way to choose it: a bad prime in the
        # environment is not read, and both commands run over Q
        monkeypatch.setenv("STAIRSTEP_FIELD", "p:9")
        for command, checker in (("verify", "check_resolution"), ("oracle", "minimal_resolution_bruteforce")):
            seen, real = [], getattr(stairstep.oracle, checker)

            def spy(*args, seen=seen, real=real):
                seen.append(args[-1])  # the field, each checker's last argument
                return real(*args)

            monkeypatch.setattr(stairstep.oracle, checker, spy)
            code, _out, err = run(capsys, command, "x2y,xy2", "--stages", "3")
            assert (code, err, seen) == (0, "", [ExactRationals()])


class TestInputBounds:
    def test_max_degree_zero_is_not_the_default(self, capsys):
        code, out, err = run(capsys, "verify", "xy2,y4", "--max-degree", "0")
        assert code == 2
        assert "verdict" not in out and "max_degree 0" in err

    def test_oracle_max_degree_zero(self, capsys):
        assert run(capsys, "oracle", "xy2,y4", "--max-degree", "0")[0] == 2

    def test_max_degree_at_generator_degree_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "xy2,y4", "--stages", "3", "--max-degree", "4")
        assert (code, out.strip()) == (0, "verdict: pass")

    @pytest.mark.parametrize("command", ["resolve", "betti", "verify", "oracle"])
    @pytest.mark.parametrize("ideal", ["xy2,y4", "x2y,xy2", "x", "x2y", "x,y", "x3,y", "x2,y3"])
    def test_negative_stages_rejected_in_every_regime(self, capsys, command, ideal):
        code, out, err = run(capsys, command, ideal, "--stages", "-1")
        assert (code, out) == (2, "")
        assert "--stages" in err

    def test_negative_expand_rejected(self, capsys):
        code, out, err = run(capsys, "poincare", "x2y,xy2", "--expand", "-3")
        assert (code, out) == (2, "")
        assert "--expand" in err

    def test_betti_at_stage_limit(self, capsys):
        limit = stairstep.cli.BETTI_MAX_STAGES
        assert limit >= 40  # CI's beta_40 step and the README commands stay valid
        code, out, _ = run(capsys, "betti", "x2y,xy2", "--stages", str(limit))
        assert code == 0
        assert len(out.split()) == limit + 1

    @pytest.mark.parametrize("graded", [(), ("--graded",)])
    def test_betti_above_stage_limit_exit_2(self, capsys, graded):
        limit = stairstep.cli.BETTI_MAX_STAGES
        code, out, err = run(capsys, "betti", "x2y,xy2", "--stages", str(limit + 1), *graded)
        assert (code, out) == (2, "")
        assert f"--stages must be <= {limit}, got {limit + 1}" in err

    @pytest.mark.parametrize("text", ["x2y,xy2", "x^7,y"])
    def test_betti_graded_at_cell_limit(self, capsys, monkeypatch, text):
        table = betti_table(parse_ideal(text), 9)
        rows, cols = render_shape(table)
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", rows * cols)
        code, out, _ = run(capsys, "betti", text, "--stages", "9", "--graded")
        assert (code, out) == (0, render_betti_table(table) + "\n")
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", rows * cols - 1)
        code, out, err = run(capsys, "betti", text, "--stages", "9", "--graded")
        assert (code, out) == (2, "")
        assert f"would print {rows * cols} cells ({rows} rows x 10 stages)" in err
        assert f"above the limit of {rows * cols - 1}" in err

    def test_oracle_text_at_cell_limit(self, capsys, monkeypatch):
        ideal = parse_ideal("x^7,y")
        table = minimal_resolution_bruteforce(ideal, 6, default_max_degree(ideal, 6))
        rows, cols = render_shape(table)
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", rows * cols)
        code, out, _ = run(capsys, "oracle", "x^7,y")
        assert code == 0 and out.startswith(render_betti_table(table) + "\n")
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", rows * cols - 1)
        code, out, err = run(capsys, "oracle", "x^7,y")
        assert (code, out) == (2, "")
        assert f"oracle text would print {rows * cols} cells ({rows} rows x 7 stages)" in err
        assert f"above the limit of {rows * cols - 1}" in err
        # json and csv list the nonzero entries only
        assert run(capsys, "oracle", "x^7,y", "--format", "csv")[0] == 0

    @pytest.mark.parametrize("text", ["x2y,xy2", "x^7,y"])
    def test_resolve_text_at_cell_limit(self, capsys, monkeypatch, text):
        # one cell per entry of each dense d_i: rank F_{i-1} x rank F_i
        ranks = [m.rank for m in build_resolution(parse_ideal(text), 6).modules]
        cells = sum(a * b for a, b in zip(ranks, ranks[1:]))
        _, expected, _ = run(capsys, "resolve", text)
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", cells)
        assert run(capsys, "resolve", text) == (0, expected, "")
        monkeypatch.setattr(stairstep.cli, "BETTI_MAX_CELLS", cells - 1)
        code, out, err = run(capsys, "resolve", text)
        assert (code, out) == (2, "")
        assert err == f"error: resolve text would print {cells} cells, above the limit of {cells - 1}\n"
        # json and csv are not bounded
        assert run(capsys, "resolve", text, "--format", "json")[0] == 0

    def test_betti_graded_cell_limit_fits_the_stage_limit(self):
        # the six-generator table at the deepest stage betti accepts fits
        table = betti_table(parse_ideal("x6,x5y,x4y2,x3y3,x2y4,xy5"), stairstep.cli.BETTI_MAX_STAGES)
        rows, cols = render_shape(table)
        assert rows * cols <= stairstep.cli.BETTI_MAX_CELLS

    def test_betti_graded_text_too_large_exit_2(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "betti", "x^100000,y", "--stages", "40", "--graded")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert f"would print 81998401 cells (1999961 rows x 41 stages), above the limit of " \
            f"{stairstep.cli.BETTI_MAX_CELLS}" in err
        # json and csv list the nonzero entries only, and are not bounded
        code, out, _ = run(capsys, "betti", "x^100000,y", "--stages", "40", "--graded", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 41  # the header, one generator per stage

    @staticmethod
    def expand_limit(text):
        """The largest n that poincare --expand accepts on the ideal."""
        ideal = parse_ideal(text)
        main, r = classify(ideal).is_main, ideal.num_generators
        lo, hi = 0, stairstep.cli.POINCARE_MAX_DIGITS
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                stairstep.cli._require_expand(main, r, mid)
                lo = mid
            except ValueError:
                hi = mid - 1
        return lo

    @pytest.mark.parametrize("text, limit", [("x2y,xy2", None), ("x3,y7", 10_000)], ids=["main", "type_v"])
    def test_poincare_expand_at_digit_limit(self, capsys, monkeypatch, text, limit):
        # the printed digits come within 1% of the limit, so the bound is
        # priced from what is printed; one coefficient more exits 2 at once
        if limit is not None:
            monkeypatch.setattr(stairstep.cli, "POINCARE_MAX_DIGITS", limit)
        limit = stairstep.cli.POINCARE_MAX_DIGITS
        n = self.expand_limit(text)
        code, out, _ = run(capsys, "poincare", text, "--expand", str(n))
        coeffs = out.split()
        assert code == 0 and len(coeffs) == n + 1
        assert 0.99 * limit < sum(map(len, coeffs)) <= limit
        t0 = time.perf_counter()
        code, out, err = run(capsys, "poincare", text, "--expand", str(n + 1))
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err.startswith(f"error: poincare --expand {n + 1} would print about ")
        assert err.endswith(f" digits, above the limit of {limit}\n")

    def test_poincare_expand_of_many_generators_stops_at_pythons_limit(self, capsys):
        # with 10000 generators, rho is about 100: the coefficient of z^2147
        # would pass the digits Python converts to text before the whole
        # expansion passed POINCARE_MAX_DIGITS
        text = ",".join(f"x{9999 - i}y{i}" for i in range(10000))
        cap = sys.get_int_max_str_digits()
        n = self.expand_limit(text)
        code, out, _ = run(capsys, "poincare", text, "--expand", str(n))
        assert code == 0
        assert max(map(len, out.split())) <= cap
        code, out, err = run(capsys, "poincare", text, "--expand", str(n + 1))
        assert (code, out) == (2, "")
        assert err == (
            f"error: poincare --expand {n + 1} would print a coefficient of about {cap + 1} digits, "
            f"above Python's limit of {cap} digits for one integer\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_poincare_expand_far_above_the_limit_exit_2_at_once(self, capsys, fmt):
        for n in (10**6, 10**200):  # 10^200 squared would overflow a float
            t0 = time.perf_counter()
            code, out, err = run(capsys, "poincare", "x2y,xy2", "--expand", str(n), "--format", fmt)
            assert time.perf_counter() - t0 < 0.5
            assert (code, out) == (2, "")
            assert f"poincare --expand {n} would print about" in err
            assert f"above the limit of {stairstep.cli.POINCARE_MAX_DIGITS}" in err

    @pytest.mark.parametrize("svg", [False, True], ids=["text", "svg"])
    def test_staircase_at_cell_limit(self, capsys, monkeypatch, tmp_path, svg):
        # (x^2y, xy^2) is drawn on (2 + 3)(2 + 3) = 25 cells
        path = tmp_path / "stairs.svg"
        argv = ("staircase", "x2y,xy2") + (("--svg", str(path)) if svg else ())
        monkeypatch.setattr(stairstep.cli, "STAIRCASE_MAX_CELLS", 25)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        ideal = parse_ideal("x2y,xy2")
        assert (path.read_text() == render_svg(ideal)) if svg else (out == render_ascii(ideal) + "\n")
        path.unlink(missing_ok=True)
        monkeypatch.setattr(stairstep.cli, "STAIRCASE_MAX_CELLS", 24)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: staircase would draw 25 cells, above the limit of 24\n")
        assert not path.exists()

    @pytest.mark.parametrize("svg", [False, True], ids=["text", "svg"])
    def test_staircase_too_large_exit_2_at_once(self, capsys, tmp_path, svg):
        path = tmp_path / "stairs.svg"
        t0 = time.perf_counter()
        code, out, err = run(capsys, "staircase", "x^20000,y^20000", *(("--svg", str(path)) if svg else ()))
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: staircase would draw 400120009 cells, above the limit of {stairstep.cli.STAIRCASE_MAX_CELLS}\n"
        assert not path.exists()

    def test_staircase_cell_limit_admits_the_largest_square(self, capsys):
        # (x^(s-3), y^(s-3)) with s^2 <= STAIRCASE_MAX_CELLS is drawn
        side = math.isqrt(stairstep.cli.STAIRCASE_MAX_CELLS)
        code, out, _ = run(capsys, "staircase", f"x^{side - 3},y^{side - 3}")
        assert code == 0 and len(out.splitlines()) == side + 2  # and the axis and M

    def test_large_prime_field_accepted_quickly(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "xy2,y4", "--stages", "3", "--field", "p:1000000000000000003")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out.strip()) == (0, "verdict: pass")

    def test_large_composite_field_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "xy2,y4", "--field", "p:1000000016000000063")
        assert code == 2
        assert "not prime" in err

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_x_exponent_beyond_the_stair_exit_2(self, capsys, command):
        # a_1 = sys.maxsize: no tuple can index the staircase's x-exponents
        code, out, err = run(capsys, command, "x^9223372036854775807,y", "--stages", "1")
        assert (code, out) == (2, "")
        assert err == "error: the x-exponent a_1 = 9223372036854775807 is too large to tabulate the staircase of M\n"
