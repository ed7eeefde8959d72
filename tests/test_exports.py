from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ttr

MODULES = sorted(p for p in Path(ttr.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))

# Every exported name, by the module that defines it.
HOMES = {
    "grid": ("Orientation", "ORIENTATIONS", "Rect", "Tile", "Tiling", "ValidityReport", "cut_cornerless_ok",
             "is_tileable", "read_tiling", "tile_cells", "validate", "write_tiling"),
    "enumerator": ("count_tilings", "enumerate_tilings", "has_tiling"),
    "aps": ("APWitness", "dxdy_class", "enumerate_aps", "longest_ap", "mod4_class"),
    "boundary": ("BoundaryCovering", "boundary_forces", "enumerate_boundary_coverings"),
    "width4": ("ab_map", "coloring_to_tiling", "d1_equiv_check", "decompose", "enumerate_units", "stack_rows",
               "tiling_to_coloring"),
    "chains": ("ChainGraph", "ShadedArrow", "antiblock_coloring", "arrow_for_tile", "build_chain_graph",
               "chain_to_tiling", "hv_enumerate", "shaded_arrow_aps", "tile_for_arrow"),
    "cnf": ("CNF", "add_ap_blocking", "add_rot180_symmetry", "build_cnf"),
    "solver": ("DecideResult", "ScanResult", "SearchConfig", "SolverStatus", "solve"),
    "decide": ("compute_L", "compute_T", "decide_forces"),
    "vdw": ("GridAP", "GridColoring", "compute_Lvdw", "extremal_coloring", "grid_mono_ap", "vdw_number"),
    "render": ("render_ascii", "render_svg"),
}


def in_child(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          timeout=60).stdout


def added_modules(statement: str) -> set[str]:
    """The modules ``statement`` adds to ``sys.modules`` in a fresh interpreter.

    Taken as a difference inside the child, since ``site`` may already have
    imported some standard modules before the statement runs.
    """
    return set(in_child(f"import sys\nbefore = set(sys.modules)\n{statement}\n"
                        "print(*sorted(set(sys.modules) - before))").split())


@pytest.mark.parametrize("statement, loaded", [
    ("import ttr", {"ttr"}),
    ("import ttr.cli; ttr.cli.build_parser()", {"ttr", "ttr.cli", "ttr.errors", "ttr.grid", "ttr.cnf"}),
    ("import ttr.dimacs", {"ttr", "ttr.dimacs", "ttr.cdcl", "ttr.cnf", "ttr.grid", "ttr.errors"}),
], ids=["package", "cli", "dimacs"])
def test_entry_point_loads_only_what_it_runs(statement, loaded):
    added = added_modules(statement)
    assert {m for m in added if m.partition(".")[0] == "ttr"} == loaded
    assert "subprocess" not in added


def test_solver_loads_subprocess_only_to_run_an_external_command():
    assert "subprocess" not in added_modules("import ttr.solver")


def test_exports_are_pinned_to_their_home_modules():
    assert ttr.__all__ == [*sorted(name for names in HOMES.values() for name in names), "__version__"]
    for module, names in HOMES.items():
        home = importlib.import_module(f"ttr.{module}")
        assert [name for name in names if getattr(ttr, name) is not getattr(home, name)] == []
    assert vars(ttr)["__version__"] == "0.1.0"  # a plain attribute, not resolved lazily


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from ttr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ttr.__all__)


def test_bare_import_resolves_names_and_submodules_on_first_use():
    stems = [p.stem for p in MODULES]
    code = ("import ttr\n"
            "print(set(ttr.__all__) <= set(dir(ttr)))\n"
            "print(len(ttr.grid.WALKUP_CLASSES), ttr.cdcl.solve_clauses.__name__)\n"
            f"print(*[getattr(ttr, stem).__name__ for stem in {stems!r}])\n")
    assert in_child(code).splitlines() == [
        "True", f"{len(ttr.grid.WALKUP_CLASSES)} solve_clauses", " ".join(f"ttr.{stem}" for stem in stems)]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ttr' has no attribute 'nope'$"):
        ttr.nope
    assert not hasattr(ttr, "nope")


def test_every_export_resolves():
    # A name deleted from the package but left in __all__ fails here, not at a caller's import.
    assert [name for name in ttr.__all__ if not hasattr(ttr, name)] == []
    assert len(set(ttr.__all__)) == len(ttr.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os, sys\nfrom typing import Any, Sequence\nx: Sequence = os.sep\n") == [
        "sys", "Any"]
    assert unused_imports("def f():\n    import shlex\n    import signal\n    return shlex.quote\n") == ["signal"]
    assert unused_imports("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from os import PathLike\n") == [
        "PathLike"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    # No linter ships with the project; this catches an import an edit leaves behind.
    assert unused_imports(path.read_text()) == []


# bench/tracing.py wraps these two by name; ROADMAP items 9 and 13 move them out of
# the package at the next benchmark change.
UNREAD_PRIVATE_ALLOWED = ["decide._decide_by_enumeration", "vdw._forced_brute"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private function or class, and each private
    method, that no source reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defined.append((module, d.name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_unread_private_check_sees_an_unread_name():
    sources = {
        "a": "def _f():\n    return _G\n\nclass _G:\n    def _m(self):\n        pass\n\n"
             "    def _n(self):\n        return self._m()\n\n    def __init__(self):\n        pass\n",
        "b": "from .a import _h\n\ndef _k():\n    pass\n",
    }
    assert unread_private_names(sources) == ["a._f", "a._n", "b._k"]


def test_package_reads_every_private_name():
    # No linter ships with the project; this catches a helper an edit leaves behind.
    assert unread_private_names({p.stem: p.read_text() for p in MODULES}) == UNREAD_PRIVATE_ALLOWED
