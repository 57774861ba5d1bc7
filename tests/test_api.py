"""The package's public names: each resolves, on first use, to its defining module's object."""

import importlib
import subprocess
import sys

import pytest

import noncross

from test_cli import module_env

PUBLIC = {
    "geom": ["HullInfo", "InternalInvariantError", "Orientation", "Placement", "Point",
             "PointSet", "SegmentRelation", "convex_hull", "hull_classify", "orient",
             "point_vs_polygon", "polygon_is_simple", "radial_order", "segment_relation"],
    "params": ["MaxCollinear", "ParamReport", "inhull", "max_collinear", "offline",
               "param_report"],
    "paths": ["EnumerationOutcome", "PathSeq", "enumerate_ham_paths", "enumerate_paths",
              "is_noncrossing_path", "path_children"],
    "polygons": ["PolygonSeq", "canonical_cycle", "canonical_parent",
                 "enumerate_polygonalizations", "enumerate_surrounding", "hull_cycle",
                 "is_surrounding_polygon", "polygon_children"],
    "construct": ["Signature", "enumerate_vv_paths", "ham_path_between",
                  "realize_signature", "steinhaus_complete", "visible_vertices"],
    "counting": ["CountReport", "EstimateReport", "convex_ham_count", "convex_path_count",
                 "count_010_avoiding", "estimate", "log_binom", "proven_ham_lower",
                 "pseudotriangle_poly_count", "pseudotriangle_surround_count",
                 "surround_series"],
    "oracle": ["CrossCheckReport", "brute_ham", "brute_paths", "brute_poly",
               "brute_surround", "cross_check", "dp_010_avoiding"],
    "families": ["FamilySpec", "gen_collinear", "gen_convex", "gen_grid", "gen_one_sided",
                 "gen_pseudotriangle", "gen_random"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_sixty_five_public_names_and_a_version():
    assert len(NAMES) == len(set(NAMES)) == 65
    assert sorted(noncross.__all__) == NAMES
    assert set(NAMES) <= set(dir(noncross))
    assert noncross.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"noncross.{module}")
    for name in PUBLIC[module]:
        assert getattr(noncross, name) is getattr(defining, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from noncross import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(noncross, name), name


def test_submodules_resolve_and_unknown_names_raise():
    # A fresh process, so that no earlier test has imported the submodules.
    code = ("import noncross, sys\n"
            "assert 'noncross.oracle' not in sys.modules\n"
            "assert noncross.oracle is sys.modules['noncross.oracle']\n"
            "try:\n"
            "    noncross.nope\n"
            "except AttributeError as e:\n"
            "    print(e)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=module_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'noncross' has no attribute 'nope'\n"
    with pytest.raises(AttributeError):
        noncross.nope
    assert not hasattr(noncross, "nope")
