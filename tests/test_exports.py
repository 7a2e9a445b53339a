"""Every name the package exports has a reader: a module of the package
other than ``__init__.py`` loads it, or the README names it in code.

Every public member of an exported class has a reader too: each name its
class body defines that does not start with an underscore (a method, a
property, a dataclass field or an enum member) is loaded as an attribute
by a module of the package or a script of ``bench/``, or the README names
it, in a code span or in its python example.  A member only tests read is
API nobody runs.  Dunders, such as an operator's ``__mul__``, and
attributes set in ``__init__`` are out of the scan's sight; they keep the
same rule.

Every private module-level name, a function, class or assignment whose
name starts with one underscore, is read somewhere in the package
outside its own definition, so no helper outlives its last caller.

Every name a module of the package or a file of ``tests/`` imports is
loaded in that file, in its code or in an unquoted annotation, which
``from __future__ import annotations`` keeps in the syntax tree.  No test
module imports another: what several of them share lives in
``tests/conftest.py``, and every public name conftest defines is imported
and loaded by another file of ``tests/``."""
from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import stairstep

PACKAGE = Path(stairstep.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TESTS = ROOT / "tests"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def names_loaded(tree: ast.AST) -> set[str]:
    """Names tree loads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def names_loaded_in_modules() -> set[str]:
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    return set().union(*(names_loaded(parse(path)) for path in paths))


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


def names_defined(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def private_names_and_readers() -> tuple[set[tuple[str, str]], set[str]]:
    """(the package's private module-level names, each tagged with its
    module, and the names each top-level statement of the package reads
    outside the statement that defines them)."""
    statements = [(path.stem, node) for path in PACKAGE.glob("*.py") for node in parse(path).body]
    private, read = set(), set()
    for module, node in statements:
        defined = names_defined(node)
        private.update((module, name) for name in defined if name.startswith("_") and not name.startswith("__"))
        imported = {alias.name for sub in ast.walk(node) if isinstance(sub, ast.ImportFrom) for alias in sub.names}
        read.update(name for name in names_loaded(node) | imported if name not in defined)
    return private, read


def imported_names(tree: ast.AST) -> set[str]:
    """The names tree's imports bind, ``__future__``'s aside."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


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


def test_every_private_name_is_read():
    private, read = private_names_and_readers()
    assert private
    assert sorted(f"{module}.{name}" for module, name in private if name not in read) == []


def test_every_import_is_read():
    paths = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    unread = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for tree in [parse(path)]
        for name in sorted(imported_names(tree) - names_loaded(tree))
    ]
    assert unread == []


def test_no_test_module_imports_another():
    imports = []
    for path in TESTS.glob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for module in modules if module.startswith("test_")]
    assert imports == []


def test_every_conftest_helper_has_a_reader():
    helpers = {name for node in parse(TESTS / "conftest.py").body for name in names_defined(node) if not name.startswith("_")}
    read = set()
    for path in TESTS.glob("*.py"):
        tree = parse(path)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "conftest"
            for alias in node.names
        }
        read |= imported & names_loaded(tree)
    assert helpers and sorted(helpers - read) == []
