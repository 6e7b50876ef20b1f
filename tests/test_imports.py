"""No module in ``src/`` or ``tests/`` imports a name it never uses.

The repository runs no linter, so this gate reads each file's syntax
tree: a name bound by an import must be read somewhere in the same
file.  A name listed in ``__all__`` counts as read (the package's
re-exports), and so does a parameter of the same name (a pytest fixture
imported from another module is used by naming it as an argument).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.asname or alias.name.partition(".")[0])
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in imported if name not in read)


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_catches_an_unused_import():
    source = (
        "import json\nfrom os import path, sep\nfrom x import fixture\n"
        "__all__ = ['sep']\n"
        "def test(fixture):\n    return path\n"
    )
    assert unused_imports(source) == [(1, "json")]
