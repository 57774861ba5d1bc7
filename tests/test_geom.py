import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross.geom import (
    HullInfo,
    Orientation,
    Placement,
    Point,
    PointSet,
    SegmentRelation,
    convex_hull,
    hull_classify,
    on_open_segment,
    orient,
    point_vs_polygon,
    polygon_is_simple,
    radial_order,
    segment_relation,
)

coord = st.integers(min_value=-6, max_value=6)
points = st.tuples(coord, coord).map(lambda t: Point(*t))


def test_orient_examples():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.COUNTERCLOCKWISE
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) is Orientation.COLLINEAR
    assert orient(Point(0, 0), Point(1, 1), Point(2, 0)) is Orientation.CLOCKWISE


def test_orient_antisymmetry_exhaustive():
    # Swapping any two arguments flips the sign, checked on a small grid.
    grid = [Point(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for p, q, r in itertools.product(grid, repeat=3):
        v = orient(p, q, r)
        assert orient(q, p, r) == -v
        assert orient(p, r, q) == -v
        assert (v is Orientation.COLLINEAR) == (
            (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)
        )


def test_pointset_rejects_duplicates_and_floats():
    with pytest.raises(ValueError, match="duplicate"):
        PointSet([(0, 0), (1, 1), (0, 0)])
    with pytest.raises(ValueError, match="exact integers"):
        PointSet([(0.5, 1)])


def test_pointset_basics():
    s = PointSet([(0, 0), (3, 1)])
    assert s.n == 2 and len(s) == 2
    assert s[1] == Point(3, 1)
    assert s == PointSet([(0, 0), (3, 1)])
    assert hash(s) == hash(PointSet([(0, 0), (3, 1)]))
    with pytest.raises(ValueError):
        s.check_index(2)


def test_segment_relation_examples():
    rel = segment_relation
    assert rel(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)) is SegmentRelation.PROPER_CROSS
    assert rel(Point(0, 0), Point(1, 0), Point(1, 0), Point(2, 1)) is SegmentRelation.SHARE_ENDPOINT_ONLY
    assert rel(Point(0, 0), Point(2, 0), Point(1, 0), Point(3, 0)) is SegmentRelation.COLLINEAR_OVERLAP
    assert rel(Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 5)) is SegmentRelation.IMPROPER_TOUCH
    assert rel(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)) is SegmentRelation.DISJOINT
    # Collinear but touching at one point: still a shared endpoint.
    assert rel(Point(0, 0), Point(1, 0), Point(1, 0), Point(3, 0)) is SegmentRelation.SHARE_ENDPOINT_ONLY
    with pytest.raises(ValueError):
        rel(Point(0, 0), Point(0, 0), Point(1, 0), Point(2, 0))


@given(points, points, points, points)
@settings(max_examples=300, deadline=None)
def test_segment_relation_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    rel = segment_relation(a, b, c, d)
    assert segment_relation(c, d, a, b) is rel
    assert segment_relation(b, a, d, c) is rel


@given(points, points, points, points)
@settings(max_examples=300, deadline=None)
def test_segment_relation_matches_interiors(a, b, c, d):
    # PROPER_CROSS must mean a crossing point exists strictly inside both;
    # verify by a rational intersection computed independently.
    if a == b or c == d:
        return
    rel = segment_relation(a, b, c, d)
    from fractions import Fraction

    r = (b.x - a.x, b.y - a.y)
    q = (d.x - c.x, d.y - c.y)
    denom = r[0] * q[1] - r[1] * q[0]
    if denom != 0:
        t = Fraction((c.x - a.x) * q[1] - (c.y - a.y) * q[0], denom)
        u = Fraction((c.x - a.x) * r[1] - (c.y - a.y) * r[0], denom)
        crossing_inside = 0 < t < 1 and 0 < u < 1
        assert crossing_inside == (rel is SegmentRelation.PROPER_CROSS)


def _reference_relation(a, b, c, d):
    # Independent classifier: intersect the closed segments exactly with
    # rational parametric arithmetic, then name the resulting set.
    from fractions import Fraction

    r = (b.x - a.x, b.y - a.y)
    q = (d.x - c.x, d.y - c.y)
    denom = r[0] * q[1] - r[1] * q[0]
    if denom != 0:
        t = Fraction((c.x - a.x) * q[1] - (c.y - a.y) * q[0], denom)
        u = Fraction((c.x - a.x) * r[1] - (c.y - a.y) * r[0], denom)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return SegmentRelation.DISJOINT
        if 0 < t < 1 and 0 < u < 1:
            return SegmentRelation.PROPER_CROSS
        if t in (0, 1) and u in (0, 1):
            return SegmentRelation.SHARE_ENDPOINT_ONLY
        return SegmentRelation.IMPROPER_TOUCH
    # Parallel.  Either different lines (disjoint) or the same line.
    if (c.x - a.x) * r[1] - (c.y - a.y) * r[0] != 0:
        return SegmentRelation.DISJOINT
    axis = 0 if r[0] != 0 else 1
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return SegmentRelation.DISJOINT
    if lo == hi:
        return SegmentRelation.SHARE_ENDPOINT_ONLY
    return SegmentRelation.COLLINEAR_OVERLAP


@given(points, points, points, points)
@settings(max_examples=500, deadline=None)
def test_segment_relation_matches_reference(a, b, c, d):
    if a == b or c == d:
        return
    assert segment_relation(a, b, c, d) is _reference_relation(a, b, c, d)


@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=9, unique=True),
       points)
@settings(max_examples=300, deadline=None)
def test_placement_matches_convex_reference(pts, p):
    # On convex polygons, placement has an independent orientation-sign
    # characterization: boundary iff on some edge, inside iff strictly left
    # of every directed edge.
    s = PointSet(pts)
    hull = convex_hull(s)
    if hull.degenerate:
        return
    poly = [s[i] for i in hull.vertices]
    got = point_vs_polygon(poly, p)
    m = len(poly)
    if any(on_open_segment(p, poly[i], poly[(i + 1) % m]) or p == poly[i]
           for i in range(m)):
        expected = Placement.BOUNDARY
    elif all(orient(poly[i], poly[(i + 1) % m], p) is Orientation.COUNTERCLOCKWISE
             for i in range(m)):
        expected = Placement.INSIDE
    else:
        expected = Placement.OUTSIDE
    assert got is expected


def test_convex_hull_grid():
    s = PointSet([(x, y) for y in range(3) for x in range(3)])
    hull = convex_hull(s)
    assert not hull.degenerate
    corner_pts = {(0, 0), (2, 0), (2, 2), (0, 2)}
    assert {tuple(s[i]) for i in hull.vertices} == corner_pts
    assert {tuple(s[i]) for i in hull.on_edge} == {(1, 0), (0, 1), (2, 1), (1, 2)}


def test_convex_hull_parabola_and_collinear():
    s = PointSet([(i, i * i) for i in range(5)])
    hull = convex_hull(s)
    assert len(hull.vertices) == 5 and not hull.on_edge and not hull.degenerate
    c = PointSet([(0, 0), (1, 0), (2, 0)])
    hull = convex_hull(c)
    assert hull.degenerate
    assert {tuple(c[i]) for i in hull.vertices} == {(0, 0), (2, 0)}
    assert hull.on_edge == (1,)
    single = convex_hull(PointSet([(5, 5)]))
    assert single == HullInfo((0,), (), True)


def test_convex_hull_ccw_and_strict():
    s = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (1, 1)])
    hull = convex_hull(s)
    verts = hull.vertices
    assert 4 not in verts and 4 in hull.on_edge  # (2,0) inside an edge
    for k in range(len(verts)):
        a, b, c = (s[verts[k - 1]], s[verts[k]], s[verts[(k + 1) % len(verts)]])
        assert orient(a, b, c) is Orientation.COUNTERCLOCKWISE


@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=10, unique=True))
@settings(max_examples=200, deadline=None)
def test_convex_hull_partition(pts):
    s = PointSet(pts)
    hull = convex_hull(s)
    groups = set(hull.vertices) | set(hull.on_edge)
    assert len(hull.vertices) + len(hull.on_edge) == len(groups)
    interior = set(range(s.n)) - groups
    if not hull.degenerate:
        hull_pts = [s[i] for i in hull.vertices]
        for i in interior:
            assert point_vs_polygon(hull_pts, s[i]) is Placement.INSIDE
        for i in hull.on_edge:
            assert point_vs_polygon(hull_pts, s[i]) is Placement.BOUNDARY
    else:
        assert not interior


def test_radial_order_examples():
    c = PointSet([(0, 0), (1, 0), (2, 0)])
    assert radial_order(c, 0) == [[1, 2]]
    sq = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert radial_order(sq, 0) == [[1], [2], [3]]
    g = PointSet([(0, 0), (1, 1), (2, 2), (2, 0)])
    assert radial_order(g, 0) == [[3], [1, 2]]


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=9, unique=True))
@settings(max_examples=200, deadline=None)
def test_radial_order_partition_and_rays(pts):
    s = PointSet(pts)
    groups = radial_order(s, 0)
    flat = [i for g in groups for i in g]
    assert sorted(flat) == list(range(1, s.n))
    origin = s[0]
    for g in groups:
        dists = []
        for i in g:
            assert orient(origin, s[g[0]], s[i]) is Orientation.COLLINEAR
            d = (s[i].x - origin.x) ** 2 + (s[i].y - origin.y) ** 2
            dists.append(d)
        assert dists == sorted(dists)
    # Different groups are genuinely different rays.
    for g1, g2 in zip(groups, groups[1:]):
        a, b = s[g1[0]], s[g2[0]]
        same_dir = orient(origin, a, b) is Orientation.COLLINEAR and (
            (a.x - origin.x) * (b.x - origin.x) + (a.y - origin.y) * (b.y - origin.y) > 0
        )
        assert not same_dir


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=9, unique=True))
@settings(max_examples=150, deadline=None)
def test_radial_order_is_angularly_sorted(pts):
    # Independent float check: small coordinates keep distinct exact angles
    # well separated, so atan2 ordering is a safe reference here.
    import math

    s = PointSet(pts)
    groups = radial_order(s, 0)
    ox, oy = s[0]
    keys = []
    for g in groups:
        for i in g:
            theta = math.atan2(s[i].y - oy, s[i].x - ox) % (2 * math.pi)
            d = (s[i].x - ox) ** 2 + (s[i].y - oy) ** 2
            keys.append((theta, d))
    assert keys == sorted(keys)


def test_point_vs_polygon_examples():
    square = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert point_vs_polygon(square, Point(1, 1)) is Placement.INSIDE
    assert point_vs_polygon(square, Point(1, 0)) is Placement.BOUNDARY
    assert point_vs_polygon(square, Point(3, 3)) is Placement.OUTSIDE
    bowtie = [Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)]
    with pytest.raises(ValueError):
        point_vs_polygon(bowtie, Point(1, 1))


def test_polygon_is_simple():
    assert polygon_is_simple([Point(0, 0), Point(2, 0), Point(0, 2)])
    # Straight angle at a vertex is allowed.
    assert polygon_is_simple([Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 2)])
    # Immediate reversal is not.
    assert not polygon_is_simple([Point(0, 0), Point(2, 0), Point(1, 0)])
    assert not polygon_is_simple([Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)])
    assert not polygon_is_simple([Point(0, 0), Point(1, 0)])
    # The closing edge (2,0)-(0,0) runs back over the first edge (0,0)-(1,0),
    # though the open chain of the other three edges is simple.
    assert not polygon_is_simple([Point(0, 0), Point(1, 0), Point(1, 1), Point(2, 0)])


def test_on_open_segment():
    assert on_open_segment(Point(1, 0), Point(0, 0), Point(2, 0))
    assert not on_open_segment(Point(0, 0), Point(0, 0), Point(2, 0))
    assert not on_open_segment(Point(3, 0), Point(0, 0), Point(2, 0))
    assert not on_open_segment(Point(1, 1), Point(0, 0), Point(2, 0))
    assert on_open_segment(Point(0, 1), Point(0, 0), Point(0, 2))


def test_hull_classify_positions_are_local():
    info = hull_classify([Point(10, 10), Point(0, 0), Point(4, 0), Point(2, 1)])
    assert set(info.vertices) == {0, 1, 2}
    assert info.on_edge == ()
