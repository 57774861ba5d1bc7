import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import (
    PointSet,
    cross_check,
    gen_collinear,
    gen_convex,
    gen_pseudotriangle,
    gen_random,
)
from noncross.oracle import brute_ham, brute_paths, brute_poly, brute_surround

SQUARE_CENTER = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
FIXTURE_FILE = pathlib.Path(__file__).parent / "fixtures" / "derived_counts.json"


def test_brute_paths_examples():
    count, paths = brute_paths(gen_convex(4))
    assert count == 30
    assert all(len(p) == 1 or p[0] < p[-1] for p in paths)
    assert paths == sorted(paths)
    assert brute_paths(gen_collinear(3)) == (
        6, [(0,), (0, 1), (0, 1, 2), (1,), (1, 2), (2,)])
    assert brute_paths(PointSet([(0, 0)]))[0] == 1


def test_brute_ham_examples():
    assert brute_ham(gen_convex(5))[0] == 20
    assert brute_ham(gen_collinear(4))[0] == 1
    assert brute_ham(SQUARE_CENTER)[0] == 24


def test_brute_surround_examples():
    assert brute_surround(SQUARE_CENTER)[0] == 5
    assert brute_surround(gen_convex(6))[0] == 1
    assert brute_surround(gen_pseudotriangle(5))[0] == 13
    assert brute_surround(gen_collinear(4))[0] == 0


def test_brute_poly_examples():
    assert brute_poly(gen_pseudotriangle(5))[0] == 8
    assert brute_poly(gen_collinear(5))[0] == 0
    assert brute_poly(SQUARE_CENTER)[0] == 4


def test_limits_enforced():
    big = gen_convex(10)
    with pytest.raises(ValueError):
        brute_paths(big)
    with pytest.raises(ValueError):
        brute_surround(gen_convex(9))
    assert brute_surround(gen_convex(9), limit=9)[0] == 1


def test_cross_check_families(family_instances):
    for name, s in family_instances.items():
        if s.n > 7:
            continue  # the full n <= 8 sweep runs in the acceptance suite
        report = cross_check(s)
        assert report.all_match, (name, report.to_json_dict())


def test_cross_check_seeded_random():
    for seed in range(8):
        s = gen_random(5 + seed % 3, seed, 16)
        assert cross_check(s).all_match


def test_cross_check_negative_control(monkeypatch):
    # A corrupted enumerator must be flagged with a witness.
    import noncross.paths as paths_mod

    real = paths_mod.enumerate_ham_paths

    def dropping(s, sink=None, budget=None, **kw):
        seen = {"dropped": False}

        def filtered(seq):
            if not seen["dropped"]:
                seen["dropped"] = True
                return  # swallow the first structure
            if sink is not None:
                sink(seq)

        return real(s, filtered, budget, **kw)

    monkeypatch.setattr(paths_mod, "enumerate_ham_paths", dropping)
    report = cross_check(gen_convex(5))
    assert not report.all_match
    ham = report.classes["ham"]
    assert not ham.match
    assert ham.witness is not None
    assert ham.oracle_count == ham.enum_count + 1


def test_cross_check_detects_duplicates(monkeypatch):
    import noncross.polygons as polygons_mod

    real = polygons_mod.enumerate_surrounding

    def duplicating(s, sink=None, budget=None, **kw):
        def doubled(seq):
            if sink is not None:
                sink(seq)
                sink(seq)

        return real(s, doubled, budget, **kw)

    monkeypatch.setattr(polygons_mod, "enumerate_surrounding", duplicating)
    report = cross_check(SQUARE_CENTER)
    assert not report.classes["surround"].match
    assert report.classes["surround"].witness is not None


def test_cross_check_report_json():
    report = cross_check(gen_convex(4))
    d = report.to_json_dict()
    assert d["all_match"] is True
    assert set(d["classes"]) == {"path", "ham", "surround", "poly"}


def test_committed_fixture_counts_still_hold():
    data = json.loads(FIXTURE_FILE.read_text())
    limit = data["oracle_limit"]
    for name, entry in data["instances"].items():
        s = PointSet(entry["points"])
        want = entry["counts"]
        if s.n <= 6:  # recompute the cheap ones from scratch
            assert brute_paths(s, limit)[0] == want["path"], name
            assert brute_ham(s, limit)[0] == want["ham"], name
            assert brute_surround(s, limit)[0] == want["surround"], name
            assert brute_poly(s, limit)[0] == want["poly"], name


def test_fixture_file_matches_fast_enumerators():
    from noncross import (
        enumerate_ham_paths,
        enumerate_paths,
        enumerate_polygonalizations,
        enumerate_surrounding,
    )

    data = json.loads(FIXTURE_FILE.read_text())
    for name, entry in data["instances"].items():
        s = PointSet(entry["points"])
        want = entry["counts"]
        assert enumerate_paths(s).count == want["path"], name
        assert enumerate_ham_paths(s).count == want["ham"], name
        assert enumerate_surrounding(s).count == want["surround"], name
        assert enumerate_polygonalizations(s).count == want["poly"], name


box = st.integers(min_value=0, max_value=3)


@given(st.lists(st.tuples(box, box), min_size=1, max_size=7, unique=True))
@settings(max_examples=80, deadline=None)
def test_enumerators_match_oracles_in_a_small_box(pts):
    # Collinear runs and points on segments are common in a 4x4 box and
    # rare in the random pool of the acceptance suite.
    report = cross_check(PointSet(pts), oracle_limit=7)
    assert report.all_match, report.to_json_dict()
