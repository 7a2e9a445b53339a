from __future__ import annotations

import json
import time

import pytest

import stairstep.cli
from stairstep import (
    ExactRationals,
    PrimeField,
    check_complex,
    check_exactness,
    check_minimality,
    minimal_resolution_bruteforce,
    resolution_from_json,
)
from stairstep.cli import main


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
        assert lines[0] == "      0 1 2 3 4 5 6"
        assert lines[1] == "total: 1 2 3 5 8 13 21"
        assert lines[3] == "1: . . 2 5 4 1 ."

    def test_graded_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "x,y", "--graded", "--format", "csv")
        assert code == 0
        assert out.strip() == "i,d,beta\n0,0,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "betti", "xy2,y4", "--format", "json")
        assert json.loads(out)["totals"] == [1, 2, 3, 5, 8, 13, 21]


class TestPoincare:
    def test_display(self, capsys):
        code, out, _ = run(capsys, "poincare", "x2y,xy2")
        assert (code, out.strip()) == (0, "(1+z)/(1-z-z^2)")

    def test_expand(self, capsys):
        code, out, _ = run(capsys, "poincare", "x2y,xy2", "--expand", "6")
        assert out.strip() == "1 2 3 5 8 13 21"


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
        kinds = {c["kind"] for c in data["checks"]}
        assert kinds == {"complex", "minimality", "exactness"}


class TestOracle:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "xy2,y4", "--stages", "5")
        assert code == 0
        assert "engine agreement: pass" in out

    def test_prime_field_flag(self, capsys):
        code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4", "--field", "p:101")
        assert code == 0


class TestResolve:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "resolve", "x2y,xy2", "--stages", "4")
        assert code == 0
        assert "ranks: 1 2 3 5 8" in out

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


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "betti", "x^")
        assert code == 2
        assert "error" in err

    def test_unit_ideal_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "1")
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(capsys, "frobnicate", "x")[0] == 2

    def test_bad_field_exit_2(self, capsys):
        assert run(capsys, "oracle", "x2,y2", "--field", "p:6")[0] == 2

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
        ],
        ids=lambda argv: f"{argv[0]}{argv[2]}",
    )
    def test_flag_on_other_subcommand_exit_2(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2


def oracle_fields(capsys, monkeypatch):
    """Run `oracle x2y,xy2 --stages 4` and return the fields the oracle got."""
    seen = []

    def spy(ideal, max_stage, max_degree, fld):
        seen.append(fld)
        return minimal_resolution_bruteforce(ideal, max_stage, max_degree, fld)

    monkeypatch.setattr(stairstep.cli, "minimal_resolution_bruteforce", spy)
    code, out, _ = run(capsys, "oracle", "x2y,xy2", "--stages", "4")
    assert code == 0
    assert "engine agreement: pass" in out
    return seen


class TestFieldEnv:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("STAIRSTEP_FIELD", "p:7")
        assert oracle_fields(capsys, monkeypatch) == [PrimeField(7)]

    def test_default_is_exact_rationals(self, capsys, monkeypatch):
        monkeypatch.delenv("STAIRSTEP_FIELD", raising=False)
        assert oracle_fields(capsys, monkeypatch) == [ExactRationals()]

    def test_env_invalid_prime_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("STAIRSTEP_FIELD", "p:9")
        assert run(capsys, "oracle", "x2y,xy2", "--stages", "3")[0] == 2


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

    def test_large_prime_field_accepted_quickly(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "xy2,y4", "--stages", "3", "--field", "p:1000000000000000003")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out.strip()) == (0, "verdict: pass")

    def test_large_composite_field_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "xy2,y4", "--field", "p:1000000016000000063")
        assert code == 2
        assert "not prime" in err
