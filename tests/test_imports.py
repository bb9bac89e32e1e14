"""No module of the package imports a name it never reads.

No linter ships with the package, so this stands in for pyflakes' F401: it
parses each module and fails on an imported name that the module never
reads. A name imported on a ``# noqa: F401`` line, one that stays for the
profilers to wrap, and a name in the package's ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

import aggdelay

MODULES = sorted(Path(aggdelay.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"  # a switch
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= set(aggdelay.__all__)
    return [name for name, line in imported.items()
            if name not in read and "# noqa: F401" not in lines[line - 1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path) == []
