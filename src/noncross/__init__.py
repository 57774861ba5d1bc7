"""Non-crossing structures of planar integer point sets.

Enumerates, counts, constructs and estimates the four structure classes of
a finite planar point set with exact integer coordinates: non-crossing
paths, non-crossing Hamiltonian paths, surrounding polygons and
polygonalizations.  All geometric decisions are exact; enumeration output
is deterministic; brute-force oracles certify every enumerator.

The public names below are loaded on first use (PEP 562): ``import
noncross`` runs no submodule, and ``noncross.enumerate_paths`` imports
``noncross.paths`` the first time it is looked up.  Every command-line call
is a fresh process, so ``noncross count`` and ``noncross enumerate`` load
only ``cli``, ``geom`` and ``paths``, and ``polygons`` for the polygon
kinds.  The submodules that define public names resolve as attributes too
(``noncross.oracle``).
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "geom": (
        "HullInfo",
        "InternalInvariantError",
        "Orientation",
        "Placement",
        "Point",
        "PointSet",
        "SegmentRelation",
        "convex_hull",
        "hull_classify",
        "orient",
        "point_vs_polygon",
        "polygon_is_simple",
        "radial_order",
        "segment_relation",
    ),
    "params": ("MaxCollinear", "ParamReport", "inhull", "max_collinear", "offline",
               "param_report"),
    "paths": (
        "EnumerationOutcome",
        "PathSeq",
        "enumerate_ham_paths",
        "enumerate_paths",
        "is_noncrossing_path",
        "path_children",
    ),
    "polygons": (
        "PolygonSeq",
        "canonical_cycle",
        "canonical_parent",
        "enumerate_polygonalizations",
        "enumerate_surrounding",
        "hull_cycle",
        "is_surrounding_polygon",
        "polygon_children",
    ),
    "construct": (
        "Signature",
        "enumerate_vv_paths",
        "ham_path_between",
        "realize_signature",
        "steinhaus_complete",
        "visible_vertices",
    ),
    "counting": (
        "CountReport",
        "EstimateReport",
        "convex_ham_count",
        "convex_path_count",
        "count_010_avoiding",
        "estimate",
        "log_binom",
        "proven_ham_lower",
        "pseudotriangle_poly_count",
        "pseudotriangle_surround_count",
        "surround_series",
    ),
    "oracle": (
        "CrossCheckReport",
        "brute_ham",
        "brute_paths",
        "brute_poly",
        "brute_surround",
        "cross_check",
        "dp_010_avoiding",
    ),
    "families": (
        "FamilySpec",
        "gen_collinear",
        "gen_convex",
        "gen_grid",
        "gen_one_sided",
        "gen_pseudotriangle",
        "gen_random",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value  # later lookups do not come back here
        return value
    if name in _EXPORTS:
        # Importing a submodule binds it as an attribute of this package.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN) | set(_EXPORTS))
