"""Arithmetic progressions of T-tetrominoes in rectangle tilings.

Core objects live in :mod:`ttr.grid`; exhaustive enumeration in
:mod:`ttr.enumerator`; AP detection and arithmetic lemmas in :mod:`ttr.aps`
and :mod:`ttr.boundary`; the width-4 unit calculus in :mod:`ttr.width4`;
chain graphs in :mod:`ttr.chains`; the CNF/SAT pipeline in :mod:`ttr.cnf`,
:mod:`ttr.cdcl`, :mod:`ttr.solver` and :mod:`ttr.decide`; van der Waerden
computations in :mod:`ttr.vdw`; rendering and the CLI in :mod:`ttr.render`
and :mod:`ttr.cli`.
"""

from .grid import (
    Orientation,
    ORIENTATIONS,
    Rect,
    Tile,
    Tiling,
    ValidityReport,
    cut_cornerless_ok,
    is_tileable,
    read_tiling,
    tile_cells,
    validate,
    write_tiling,
)
from .enumerator import count_tilings, enumerate_tilings, has_tiling, placements
from .aps import APWitness, dxdy_class, enumerate_aps, longest_ap, mod4_class
from .boundary import BoundaryCovering, boundary_forces, enumerate_boundary_coverings
from .width4 import (
    ab_map,
    coloring_to_tiling,
    d1_equiv_check,
    decompose,
    enumerate_units,
    stack_rows,
    tiling_to_coloring,
)
from .chains import (
    ChainGraph,
    ShadedArrow,
    antiblock_coloring,
    arrow_for_tile,
    build_chain_graph,
    chain_to_tiling,
    hv_enumerate,
    shaded_arrow_aps,
    tile_for_arrow,
)
from .cnf import CNF, PlacementIndex, add_ap_blocking, add_rot180_symmetry, build_cnf
from .solver import DecideResult, ScanResult, SearchConfig, SolverStatus, solve
from .decide import compute_L, compute_T, decide_forces
from .vdw import (
    GridAP,
    GridColoring,
    compute_Lvdw,
    extremal_coloring,
    grid_mono_ap,
    vdw_number,
)
from .render import render_ascii, render_svg

__version__ = "0.1.0"

__all__ = [
    "APWitness",
    "BoundaryCovering",
    "CNF",
    "ChainGraph",
    "DecideResult",
    "GridAP",
    "GridColoring",
    "ORIENTATIONS",
    "Orientation",
    "PlacementIndex",
    "Rect",
    "ScanResult",
    "SearchConfig",
    "ShadedArrow",
    "SolverStatus",
    "Tile",
    "Tiling",
    "ValidityReport",
    "ab_map",
    "add_ap_blocking",
    "add_rot180_symmetry",
    "antiblock_coloring",
    "arrow_for_tile",
    "boundary_forces",
    "build_chain_graph",
    "build_cnf",
    "chain_to_tiling",
    "coloring_to_tiling",
    "compute_L",
    "compute_Lvdw",
    "compute_T",
    "count_tilings",
    "cut_cornerless_ok",
    "d1_equiv_check",
    "decide_forces",
    "decompose",
    "dxdy_class",
    "enumerate_aps",
    "enumerate_boundary_coverings",
    "enumerate_tilings",
    "enumerate_units",
    "extremal_coloring",
    "grid_mono_ap",
    "has_tiling",
    "hv_enumerate",
    "is_tileable",
    "longest_ap",
    "mod4_class",
    "placements",
    "read_tiling",
    "render_ascii",
    "render_svg",
    "shaded_arrow_aps",
    "solve",
    "stack_rows",
    "tile_cells",
    "tile_for_arrow",
    "tiling_to_coloring",
    "validate",
    "vdw_number",
    "write_tiling",
    "__version__",
]
