from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ttr

MODULES = sorted(p for p in Path(ttr.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_export_resolves():
    # A name deleted from the package but left in __all__ fails here, not at a caller's import.
    assert [name for name in ttr.__all__ if not hasattr(ttr, name)] == []
    assert len(set(ttr.__all__)) == len(ttr.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os, sys\nfrom typing import Any, Sequence\nx: Sequence = os.sep\n") == [
        "sys", "Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    # No linter ships with the project; this catches an import an edit leaves behind.
    assert unused_imports(path.read_text()) == []
