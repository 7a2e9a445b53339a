"""What a fresh interpreter loads: ``import stairstep.cli`` loads neither the
builder nor the verifier, each command loads only the modules it runs, a
valid command line is read without argparse, and every exported name still
reads as the object its module defines.

The test process has imported every module already, so each check runs in
a fresh interpreter."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stairstep

PACKAGE = Path(stairstep.__file__).resolve().parent
HEAVY = {"stairstep.resolution", "stairstep.betti", "stairstep.oracle", "stairstep.staircase"}


def fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's package;
    its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """The package's modules, and argparse if it is, loaded once ``code``
    has run."""
    listing = "import sys\nprint(*(m for m in sys.modules if m.startswith('stairstep') or m == 'argparse'))"
    return set(fresh(f"{code}\n{listing}").split())


def running(argv: list[str]) -> str:
    """Code that runs the CLI on ``argv`` silently and checks it exits 0."""
    return (
        "import contextlib, io, stairstep.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert stairstep.cli.main({argv!r}) == 0"
    )


def defining_modules() -> dict[str, str]:
    """Each name of ``__all__`` -> the module whose top level defines it."""
    homes = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            homes.update((name, f"stairstep.{path.stem}") for name in names if name in stairstep.__all__)
    return homes


def test_importing_the_cli_loads_neither_builder_nor_verifier():
    assert loaded_after("import stairstep.cli") & (HEAVY | {"argparse"}) == set()


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["classify", "x2y,xy2"], HEAVY),
        (["staircase", "x2y,xy2"], HEAVY - {"stairstep.staircase"}),
        (["betti", "x2y,xy2", "--graded"], {"stairstep.oracle", "stairstep.staircase"}),
        (["poincare", "x2y,xy2", "--format", "json"], HEAVY - {"stairstep.betti"}),
        (["resolve", "x2y,xy2", "--format", "json"], HEAVY - {"stairstep.resolution"}),
    ],
    ids=["classify", "staircase", "betti", "poincare", "resolve"],
)
def test_a_command_loads_only_what_it_runs(argv, unloaded):
    # argparse only prints help, usage and errors
    assert loaded_after(running(argv)) & (unloaded | {"argparse"}) == set()


def test_verify_loads_the_verifier():
    assert {"stairstep.resolution", "stairstep.oracle"} <= loaded_after(running(["verify", "x2y,xy2"]))


def test_every_export_is_its_defining_modules_object():
    homes = defining_modules()
    assert sorted(homes) == sorted(stairstep.__all__)
    code = (
        "import importlib, json, sys, stairstep\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(*(n for n, home in homes.items()\n"
        "        if getattr(stairstep, n) is not getattr(importlib.import_module(home), n)))"
    )
    assert fresh(code, json.dumps(homes)).split() == []


def test_a_bare_import_reads_every_submodule():
    names = sorted(HEAVY)
    code = "import sys, stairstep\nprint(*(getattr(stairstep, n.partition('.')[2]).__name__ for n in sys.argv[1:]))"
    assert fresh(code, *names).split() == names


def test_dir_lists_every_export():
    code = "import stairstep\nprint(*(n for n in stairstep.__all__ if n not in dir(stairstep)))"
    assert fresh(code).split() == []


def test_star_import_binds_every_export():
    code = "import stairstep\nfrom stairstep import *\nprint(*(n for n in stairstep.__all__ if n not in globals()))"
    assert fresh(code).split() == []


def test_a_misspelt_name_raises_attribute_error_naming_it():
    code = (
        "import stairstep\n"
        "try:\n    stairstep.build_resolutoin\n"
        "except AttributeError as exc:\n    print(exc)"
    )
    assert "build_resolutoin" in fresh(code)
