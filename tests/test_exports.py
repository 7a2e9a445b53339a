"""Every name the package exports has a reader: a module of the package
other than ``__init__.py`` loads it, or the README names it in code.

Every public member of an exported class has a reader too: each name its
class body defines that does not start with an underscore (a method, a
property, a dataclass field or an enum member) is loaded as an attribute
by a module of the package or a script of ``bench/``, or the README names
it, in a code span or in its python example.  A member only tests read is
API nobody runs.  Dunders, such as an operator's ``__mul__``, and
attributes set in ``__init__`` are out of the scan's sight; they keep the
same rule."""
from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import stairstep

PACKAGE = Path(stairstep.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def attributes_loaded(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def attributes_read_at_runtime() -> set[str]:
    """Attribute loads in the package, in ``bench/`` and in the README's
    python example, which CI runs."""
    sources = [path.read_text(encoding="utf-8") for path in (*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"))]
    sources += re.findall(r"^```python$\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    return set().union(*map(attributes_loaded, sources))


def public_members(cls: type) -> set[str]:
    """The names a class body defines, annotated fields included."""
    names = {*vars(cls), *vars(cls).get("__annotations__", {})}
    return {name for name in names if not name.startswith("_")}


def test_every_export_is_read_or_documented():
    read = names_loaded_in_modules() | names_in_readme_code_spans()
    assert [name for name in stairstep.__all__ if name not in read] == []


def test_every_member_of_an_exported_class_is_read_or_documented():
    read = attributes_read_at_runtime() | names_in_readme_code_spans()
    classes = [obj for name in stairstep.__all__ if inspect.isclass(obj := getattr(stairstep, name))]
    unread = [f"{cls.__name__}.{name}" for cls in classes for name in sorted(public_members(cls) - read)]
    assert unread == []
