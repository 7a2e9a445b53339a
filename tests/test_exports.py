"""Every name the package exports has a reader: a module of the package
other than ``__init__.py`` loads it, or the README names it in code."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import stairstep

PACKAGE = Path(stairstep.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def names_loaded_in_modules() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def names_in_readme_code_spans() -> set[str]:
    """Identifiers inside the README's inline code spans: a run of
    backticks, then text up to a run of the same length."""
    text = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = re.findall(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", text, flags=re.S)
    return {name for _ticks, span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_is_read_or_documented():
    read = names_loaded_in_modules() | names_in_readme_code_spans()
    assert [name for name in stairstep.__all__ if name not in read] == []

