import ast
from pathlib import Path

import lcsampler

SRC = Path(lcsampler.__file__).parent


def _library_references() -> set[str]:
    """Names the library reads (as a name or an attribute), outside the definition that binds them.

    ``__init__.py`` is skipped: re-exporting a name is not a use of it.
    """
    refs = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return refs


def test_every_exported_name_resolves():
    missing = [name for name in lcsampler.__all__ if not hasattr(lcsampler, name)]
    assert missing == []


def test_every_exported_name_is_used_by_the_library():
    # a name only tests call belongs in tests/helpers.py, not in the package
    unused = sorted(set(lcsampler.__all__) - _library_references())
    assert unused == []


def _unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports are not names."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    assert _unread_imports("from operator import add, mul\nimport numpy as np\nnp.zeros(add(1, 2))") == ["mul"]


def test_every_import_is_read():
    # __init__.py's imports are its re-exports, read by importers
    unread = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}
