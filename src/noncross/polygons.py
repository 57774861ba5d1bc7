"""Reverse-search enumeration of surrounding polygons and polygonalizations.

A polygon is a cyclic sequence of at least three distinct point indices kept
in canonical form: the counterclockwise orientation (fixed by the exact
signed area) rotated so the smallest index comes first.  Canonical form is
unique per geometric polygon, invariant under rotation and reflection of the
input sequence, and is what enumeration, deduplication and the oracle all
compare.

A surrounding polygon is simple and contains every point of the ground set
in its closed region.  The polygons of a set form a tree: the root is the
convex hull, and the parent of any other polygon deletes its removable
vertex of smallest index, where a vertex is removable when it is not a hull
vertex and the polygon obtained by bridging its two edges is still simple
and still surrounds everything.  ``polygon_children`` inverts that rule, so
a depth-first walk from the hull visits every surrounding polygon exactly
once; ``enumerate_surrounding`` and ``enumerate_polygonalizations`` run
that walk with ``tree_search``, the search driver shared by every
enumerator in the package.  Straight angles at polygon vertices are
allowed, and two polygons with the same outline but different vertex
sequences count as different.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from .geom import (
    InternalInvariantError,
    Placement,
    PointSet,
    SegmentRelation,
    convex_hull,
    point_in_triangle,
    polygon_is_simple,
    segment_relation,
    _placement_unchecked,
)
from .paths import EnumerationOutcome, Sink, tree_search

PolygonSeq = tuple[int, ...]


def _checked_cycle(s: PointSet, cycle: Sequence[int]) -> PolygonSeq:
    seen = set()
    for i in cycle:
        s.check_index(i, "polygon vertex")
        if i in seen:
            raise ValueError(f"repeated vertex {i} in polygon {tuple(cycle)}")
        seen.add(i)
    if len(cycle) < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    return tuple(cycle)


def _signed_area2(s: PointSet, cycle: PolygonSeq) -> int:
    pts = s.points
    total = 0
    for i, v in enumerate(cycle):
        x0, y0 = pts[v]
        x1, y1 = pts[cycle[(i + 1) % len(cycle)]]
        total += x0 * y1 - x1 * y0
    return total


def canonical_cycle(s: PointSet, cycle: Sequence[int]) -> PolygonSeq:
    """Canonical form of a vertex cycle: CCW, smallest index first."""
    cycle = _checked_cycle(s, cycle)
    area2 = _signed_area2(s, cycle)
    if area2 == 0:
        raise ValueError(f"polygon {cycle} has zero area and no orientation")
    if area2 < 0:
        cycle = cycle[::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def polygon_points(s: PointSet, cycle: Sequence[int]) -> list:
    return [s.points[i] for i in cycle]


def is_surrounding_polygon(s: PointSet, cycle: Sequence[int]) -> bool:
    """Simple polygon on a vertex subset whose closed region covers all of s."""
    cycle = _checked_cycle(s, cycle)
    pts = polygon_points(s, cycle)
    if not polygon_is_simple(pts):
        return False
    members = set(cycle)
    for i in range(s.n):
        if i in members:
            continue
        if _placement_unchecked(pts, s.points[i]) is Placement.OUTSIDE:
            return False
    return True


def hull_cycle(s: PointSet) -> PolygonSeq:
    """Canonical cycle of the convex hull vertices, the reverse-search root."""
    hull = convex_hull(s)
    if hull.degenerate:
        raise ValueError("a collinear point set has no surrounding polygons")
    return canonical_cycle(s, hull.vertices)


def _deleted(cycle: PolygonSeq, v: int) -> PolygonSeq:
    return tuple(i for i in cycle if i != v)


def _removable(s: PointSet, cycle: PolygonSeq, v: int) -> bool:
    reduced = _deleted(cycle, v)
    return len(reduced) >= 3 and is_surrounding_polygon(s, reduced)


def canonical_parent(s: PointSet, poly: Sequence[int]) -> PolygonSeq:
    """Parent of a surrounding polygon: delete the smallest removable vertex.

    The root (the convex hull) has no parent and is rejected.  Every other
    surrounding polygon must have a removable vertex; if none is found the
    tree structure itself is broken and an InternalInvariantError is raised
    rather than skipping the polygon.
    """
    poly = canonical_cycle(s, poly)
    root = hull_cycle(s)
    if poly == root:
        raise ValueError("the convex hull is the root and has no parent")
    hull_verts = set(root)
    for v in sorted(set(poly) - hull_verts):
        if _removable(s, poly, v):
            return canonical_cycle(s, _deleted(poly, v))
    raise InternalInvariantError(
        f"surrounding polygon {poly} has no removable vertex"
    )


def _insertion_valid(s: PointSet, child: PolygonSeq, pos: int) -> bool:
    """Validity of a polygon built by inserting the vertex at ``pos``.

    The host polygon (child without that vertex) is already known to be a
    surrounding polygon, so only the two new edges can break simplicity and
    only points inside the triangle swept by the replaced edge can change
    containment.
    """
    pts = s.points
    m = len(child)
    pu = pts[child[pos - 1]]
    pv = pts[child[pos]]
    pw = pts[child[(pos + 1) % m]]
    share = SegmentRelation.SHARE_ENDPOINT_ONLY
    disjoint = SegmentRelation.DISJOINT
    if segment_relation(pu, pv, pv, pw) is not share:
        return False
    new_edges = ((pos - 1) % m, pos)
    for e in new_edges:
        a, b = pts[child[e]], pts[child[(e + 1) % m]]
        for j in range(m):
            if j == new_edges[0] or j == new_edges[1]:
                continue
            c, d = pts[child[j]], pts[child[(j + 1) % m]]
            adjacent = (j + 1) % m == e or (e + 1) % m == j
            rel = segment_relation(a, b, c, d)
            if adjacent:
                if rel is not share:
                    return False
            elif rel is not disjoint:
                return False
    # Containment can only change for points inside triangle (u, v, w).
    members = set(child)
    poly_pts = polygon_points(s, child)
    for i in range(s.n):
        if i in members:
            continue
        z = pts[i]
        if point_in_triangle(z, pu, pv, pw):
            if _placement_unchecked(poly_pts, z) is Placement.OUTSIDE:
                return False
    return True


def polygon_children(s: PointSet, poly: Sequence[int]) -> list[PolygonSeq]:
    """Children of a surrounding polygon in the reverse-search tree.

    Every insertion of one absent point into one edge is tried; a candidate
    survives when it is itself a surrounding polygon and its canonical
    parent is the given polygon (no removable vertex with a smaller index
    than the inserted one).
    """
    poly = canonical_cycle(s, poly)
    m = len(poly)
    hull_verts = set(hull_cycle(s))
    absent = [v for v in range(s.n) if v not in set(poly)]
    kids: set[PolygonSeq] = set()
    for v in absent:
        for pos in range(m):
            child = poly[: pos + 1] + (v,) + poly[pos + 1 :]
            if not _insertion_valid(s, child, pos + 1):
                continue
            smaller = [u for u in child if u < v and u not in hull_verts]
            if any(_removable(s, child, u) for u in sorted(smaller)):
                continue
            kids.add(canonical_cycle(s, child))
    return sorted(kids)


def polygon_tree(s: PointSet, full_only: bool) -> tuple[list[PolygonSeq], Callable, Callable]:
    """Roots, children and emit filter of the reverse-search tree, for ``tree_search``.

    The one root is the hull; a collinear set (or n < 3) has no root.  With
    ``full_only`` only polygons using every point are emitted.  The emit
    filter also keeps every polygon it has seen and raises
    InternalInvariantError on a revisit, so a broken parent rule stops the
    search loudly instead of listing a polygon twice.
    """
    seen: set[PolygonSeq] = set()

    def children(poly: PolygonSeq) -> list[PolygonSeq]:
        return polygon_children(s, poly)

    def emit(poly: PolygonSeq) -> bool:
        if poly in seen:
            raise InternalInvariantError(f"reverse search revisited polygon {poly}")
        seen.add(poly)
        return not full_only or len(poly) == s.n

    degenerate = s.n < 3 or convex_hull(s).degenerate
    return ([] if degenerate else [hull_cycle(s)]), children, emit


def enumerate_surrounding(s: PointSet, sink: Sink | None = None,
                          budget: int | None = None) -> EnumerationOutcome:
    """Emit every surrounding polygon of s exactly once, in canonical form.

    Collinear inputs (or n < 3) have none; the outcome is flagged
    degenerate with count 0.
    """
    roots, children, emit = polygon_tree(s, full_only=False)
    return replace(tree_search(roots, children, emit, sink, budget), degenerate=not roots)


def enumerate_polygonalizations(s: PointSet, sink: Sink | None = None,
                                budget: int | None = None) -> EnumerationOutcome:
    """Emit every polygonalization of s: surrounding polygons using all points."""
    roots, children, emit = polygon_tree(s, full_only=True)
    return replace(tree_search(roots, children, emit, sink, budget), degenerate=not roots)
