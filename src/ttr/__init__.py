"""Arithmetic progressions of T-tetrominoes in rectangle tilings.

Core objects live in :mod:`ttr.grid`; exhaustive enumeration in
:mod:`ttr.enumerator`; AP detection and arithmetic lemmas in :mod:`ttr.aps`
and :mod:`ttr.boundary`; the width-4 unit calculus in :mod:`ttr.width4`;
chain graphs in :mod:`ttr.chains`; the CNF/SAT pipeline in :mod:`ttr.cnf`,
:mod:`ttr.cdcl`, :mod:`ttr.solver` and :mod:`ttr.decide`; van der Waerden
computations in :mod:`ttr.vdw`; rendering and the CLI in :mod:`ttr.render`
and :mod:`ttr.cli`.

The namespace is lazy: ``import ttr`` loads no submodule.  An exported name
or a submodule name loads its module on first use, and an exported name is
then kept here, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cdcl", "cli", "dimacs", "errors"})

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:  # importing binds the submodule here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
