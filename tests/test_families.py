import pytest

from noncross import (
    FamilySpec,
    gen_collinear,
    gen_convex,
    gen_grid,
    gen_one_sided,
    gen_pseudotriangle,
    gen_random,
)
from noncross.geom import convex_hull
from noncross.params import inhull, max_collinear, offline


def test_convex_profile():
    for n in (1, 2, 3, 5, 9):
        s = gen_convex(n)
        assert s.n == n
        if n >= 3:
            assert offline(s) == n - 2
            assert inhull(s) == 0
            assert len(convex_hull(s).vertices) == n
    with pytest.raises(ValueError):
        gen_convex(0)


def test_pseudotriangle_profile():
    for n in range(3, 10):
        s = gen_pseudotriangle(n)
        hull = convex_hull(s)
        assert set(hull.vertices) == {0, n - 2, n - 1}
        assert not hull.on_edge
        assert inhull(s) == n - 3
        if n > 3:
            assert max_collinear(s).size == 2
    with pytest.raises(ValueError):
        gen_pseudotriangle(2)


def test_grid_profile():
    s = gen_grid(3, 3)
    assert s.n == 9 and offline(s) == 6 and inhull(s) == 1
    assert gen_grid(2, 4).n == 8
    with pytest.raises(ValueError):
        gen_grid(0, 3)


def test_collinear_profile():
    s = gen_collinear(5)
    assert offline(s) == 0 and inhull(s) == 0
    assert convex_hull(s).degenerate


def test_one_sided_profile():
    s = gen_one_sided(4, 3)
    assert s.n == 7
    assert max_collinear(s).size == 4
    assert offline(s) == 3
    on_line = [p for p in s.points if p.y == 0]
    off_line = [p for p in s.points if p.y > 0]
    assert len(on_line) == 4 and len(off_line) == 3
    assert all(p.y > 0 for p in off_line)
    assert gen_one_sided(2, 0).n == 2
    with pytest.raises(ValueError):
        gen_one_sided(0, 3)


def test_random_profile():
    s = gen_random(7, 42, 16)
    assert s.n == 7
    assert all(0 <= p.x <= 16 and 0 <= p.y <= 16 for p in s.points)
    assert gen_random(7, 42, 16) == s  # deterministic
    assert gen_random(7, 43, 16) != s
    with pytest.raises(ValueError):
        gen_random(100, 1, 5)  # cannot fit distinct points


def test_generators_deterministic_across_runs():
    specs = ["convex:6", "pseudotriangle:5", "grid:3x3", "collinear:4",
             "one_sided:3,2", "random:6,9", "random:6,9,50"]
    for text in specs:
        a = FamilySpec.from_string(text).build()
        b = FamilySpec.from_string(text).build()
        assert a == b, text


def test_family_spec_parsing():
    assert FamilySpec.from_string("grid:3x4").args == (3, 4)
    assert FamilySpec.from_string("random:8,17,64").args == (8, 17, 64)
    assert FamilySpec.from_string("one_sided:4,3").build().n == 7
    for bad in ("convex", "convex:x", "blah:3", "grid:3", "random:5", "grid:3x4x5", "grid:3,4",
                "one_sided:4", "random:5,1,2,3", "convex:4,", "convex:3:4"):
        with pytest.raises(ValueError):
            FamilySpec.from_string(bad)

