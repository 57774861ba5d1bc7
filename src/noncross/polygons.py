"""Reverse-search enumeration of surrounding polygons and polygonalizations.

A polygon is a cyclic sequence of at least three distinct point indices kept
in canonical form: the counterclockwise orientation (fixed by the exact
signed area) rotated so the smallest index comes first.  Canonical form is
unique per geometric polygon, invariant under rotation and reflection of the
input sequence, and is what enumeration and the oracle compare.

A surrounding polygon is simple and contains every point of the ground set
in its closed region.  The polygons of a set form a tree: the root is the
convex hull, and the parent of any other polygon deletes its removable
vertex of smallest index, where a vertex is removable when it is not a hull
vertex and the polygon obtained by bridging its two edges is still simple
and still surrounds everything.  ``_parent_vertex`` is that rule, written
once; a polygon's children are the insertions of a point v for which it
picks v, so a depth-first walk from the hull visits every surrounding
polygon exactly once and holds only its path to the root (pure reverse
search).  ``enumerate_surrounding`` and ``enumerate_polygonalizations`` run
that walk with ``tree_search``, which every enumerator shares.  Straight angles
at polygon vertices are allowed, and two polygons with the same outline but
different vertex sequences count as different.

Both removal and insertion change one corner u, v, w of a polygon already
known to surround the set, so the search decides them locally, on the
``ConflictKernel`` of ``paths`` plus a cached bitmask of the points in each
closed triangle, and with no point-in-polygon test.  The new edges are
tested against the others through their conflict bits.  A removal keeps
the set covered exactly when v is not a convex corner, one ``cross`` sign;
an insertion exactly when every point of the closed triangle uvw lies on
uv or vw, one mask test.  ``is_surrounding_polygon``, which the oracles
use, stays on the raw predicates.

A tree node carries its canonical polygon with the bitmasks of its
vertices and of its edges, and a child gets both from its parent by
adding the inserted point and swapping one edge for two.  The node also
carries its own parent vertex p, the point it was made by inserting, and
the parent rule settles most candidates before they are tested: below
the hull a child inserts a point below p into any edge, or a point above
p into one of the two edges at p.  An insertion into a counterclockwise
surrounding polygon leaves it counterclockwise, so a child is put in
canonical form by a rotation alone; the signed area is computed only
when ``canonical_cycle`` is called on a polygon from outside the search.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .geom import (
    InternalInvariantError,
    Placement,
    Point,
    PointSet,
    convex_hull,
    cross,
    point_in_triangle,
    polygon_is_simple,
    _placement_unchecked,
)
from .paths import ConflictKernel, EnumerationOutcome, Sink, _checked_sequence, tree_search

PolygonSeq = tuple[int, ...]
# (cycle, members, edges, parent vertex or None at the hull); see _children.
PolygonNode = tuple[PolygonSeq, int, int, int | None]


def _checked_cycle(s: PointSet, cycle: Sequence[int]) -> PolygonSeq:
    cycle = _checked_sequence(s, cycle, "polygon vertex", "polygon")
    if len(cycle) < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    return cycle


def _signed_area2(points: Sequence[Point], cycle: PolygonSeq) -> int:
    total = 0
    for i, v in enumerate(cycle):
        x0, y0 = points[v]
        x1, y1 = points[cycle[(i + 1) % len(cycle)]]
        total += x0 * y1 - x1 * y0
    return total


def _canonical(points: Sequence[Point], cycle: PolygonSeq) -> PolygonSeq:
    area2 = _signed_area2(points, cycle)
    if area2 == 0:
        raise ValueError(f"polygon {cycle} has zero area and no orientation")
    if area2 < 0:
        cycle = cycle[::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def canonical_cycle(s: PointSet, cycle: Sequence[int]) -> PolygonSeq:
    """Canonical form of a vertex cycle: CCW, smallest index first."""
    return _canonical(s.points, _checked_cycle(s, cycle))


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


class _PolygonKernel(ConflictKernel):
    """The segment tables of one point set plus what the polygon tests read.

    ``hull`` is the bitmask of the hull vertices, and ``triangle(u, v, w)``
    the bitmask of the points in the closed triangle uvw, filled on first
    use from the exact predicate.  The predicate takes a degenerate
    triangle as its segment hull, so a repeated vertex, as in
    ``triangle(u, v, v)``, gives the points of the closed segment uv.
    """

    __slots__ = ("hull", "_triangles")

    def __init__(self, s: PointSet) -> None:
        super().__init__(s)
        self.hull = 0
        for v in convex_hull(s).vertices:
            self.hull |= 1 << v
        self._triangles: dict[int, int] = {}

    def triangle(self, u: int, v: int, w: int) -> int:
        key = 1 << u | 1 << v | 1 << w
        mask = self._triangles.get(key)
        if mask is None:
            pts = self.points
            a, b, c = pts[u], pts[v], pts[w]
            mask = 0
            for z, p in enumerate(pts):
                if point_in_triangle(p, a, b, c):
                    mask |= 1 << z
            self._triangles[key] = mask
        return mask


def _masks(kernel: _PolygonKernel, cycle: PolygonSeq) -> tuple[int, int]:
    """Bitmasks of the vertices and of the edges of a cycle."""
    edge = kernel.edge
    members = edges = 0
    for i, v in enumerate(cycle):
        members |= 1 << v
        edges |= 1 << edge[cycle[i - 1]][v]
    return members, edges


def _removable(kernel: _PolygonKernel, cycle: PolygonSeq, edges: int, j: int) -> bool:
    """Whether deleting ``cycle[j]``, not a hull vertex, from a surrounding polygon leaves one.

    ``cycle`` must be counterclockwise, and ``edges`` is its edge mask.
    Deleting v between u and w replaces its two edges by the bridge uw, and
    the two regions differ only by the closed triangle uvw.  At a convex
    corner (a left turn at v) the triangle is cut away, and v itself, which
    is off the line uw, is left outside.  At a reflex corner the triangle
    is added, and at a straight angle v lies inside the bridge and the
    region does not change; either way nothing is left outside, so the
    sign of the corner settles coverage.  The result is simple exactly when the bridge
    is disjoint from every edge but its neighbours xu and wy.  Those need no
    test: uw doubles back along xu only when x lies inside uw (w cannot lie
    inside an edge of a simple polygon), and then the other edge at x meets
    the bridge, unless it is wy itself; but then the polygon is triangle uvw
    with x on a side, and v is a hull vertex.
    """
    m = len(cycle)
    if m < 4:
        return False
    x, u, v = cycle[j - 2], cycle[j - 1], cycle[j]
    w, y = cycle[(j + 1) % m], cycle[(j + 2) % m]
    pts = kernel.points
    if cross(pts[u], pts[v], pts[w]) > 0:
        return False
    edge = kernel.edge
    near = 1 << edge[x][u] | 1 << edge[u][v] | 1 << edge[v][w] | 1 << edge[w][y]
    return not kernel.row(edge[u][w]) & edges & ~near


def _insertion_valid(kernel: _PolygonKernel, host: PolygonSeq, members: int, edges: int,
                     pos: int, v: int) -> bool:
    """Whether inserting v after ``host[pos]`` into a surrounding polygon gives one.

    ``members`` and ``edges`` are the masks of ``host``.  The edge uw is
    replaced by uv and vw, and the result is simple exactly when each new
    edge is disjoint from every host edge it is not adjacent to (on a host
    triangle, uv is still tested against the edge opposite u).  Two
    adjacent edges that overlap need no test of their own: the far end of
    the shorter one lies inside the longer one, and the other edge at that
    end is among those tested against it.  v lies in the host's region, so
    a simple result cuts the closed triangle uvw out of it and keeps only
    the new edges uv and vw: the points left outside are exactly those of
    the triangle that are off both new edges.
    """
    m = len(host)
    x, u, w, y = host[pos - 1], host[pos], host[(pos + 1) % m], host[(pos + 2) % m]
    edge = kernel.edge
    kept = edges & ~(1 << edge[u][w])
    if kernel.row(edge[u][v]) & kept & ~(1 << edge[x][u]):
        return False
    if kernel.row(edge[v][w]) & kept & ~(1 << edge[w][y]):
        return False
    triangle = kernel.triangle
    return not (triangle(u, v, w) & ~(members | 1 << v)
                & ~(triangle(u, v, v) | triangle(v, w, w)))


def _parent_vertex(kernel: _PolygonKernel, cycle: PolygonSeq, members: int,
                   edges: int) -> int | None:
    """The parent rule: the smallest removable non-hull vertex of a CCW surrounding cycle."""
    candidates = members & ~kernel.hull
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        if _removable(kernel, cycle, edges, cycle.index(v)):
            return v
        candidates &= candidates - 1
    return None


def _children(kernel: _PolygonKernel, node: PolygonNode) -> list[PolygonNode]:
    """Children of a surrounding polygon node, in canonical form, in stack order.

    The children are sorted in descending order, so the last in sorted
    order comes first, as ``tree_search`` takes them.

    A node is ``(cycle, members, edges, p)``: a canonical surrounding
    polygon P, its vertex and edge masks, and its own parent vertex p, the
    point whose insertion made it (None at the hull).  A candidate inserts
    one absent point v into one edge; it is a child when it is a
    surrounding polygon and the parent rule picks v.  v leaves a reflex or
    straight corner bridged by the old edge, so a rule picking neither v
    nor a smaller vertex means the insertion and removal tests disagree.
    A point inserted into a counterclockwise surrounding polygon keeps it
    counterclockwise, so a child only needs its smallest index, the old
    first vertex or v, moved to the front.

    At the hull every candidate is tried.  Below it, a point v < p is tried
    in every edge, and a point v > p only in the two edges at p, (l, p) and
    (p, r), because no other insertion of v > p is a child.  p is removable
    from P: a reflex or straight corner at l, p, r whose bridge lr meets no
    edge of P but the four around it, (x, l), (l, p), (p, r) and (r, y).
    A valid insertion of v into another edge uw leaves p's neighbours, and
    so its corner, as they are, and swaps uw for two new edges uv and vw
    inside P's closed region.  Neither new edge meets lr unless it is
    (v, l) after an insertion into (x, l), or (r, v) after one into
    (r, y), and those take the places of (x, l) and (r, y) among the four
    edges the bridge test leaves out:
    - at a reflex corner the open segment lr runs through the pocket
      outside P, so a new edge can meet lr only at l or r;
    - at a straight angle p lies inside lr, which is the union of the
      edges (l, p) and (p, r), so a new edge meeting lr meets one of them;
    - either way the child is simple, so a new edge that meets l, r,
      (l, p) or (p, r) has l or r as an endpoint: it shares no endpoint
      with p, and a vertex lying inside a non-adjacent edge, or two
      collinear edges overlapping, is a crossing.
    So p stays removable, the parent rule picks at most p < v, and the
    candidate is not a child; a skipped candidate is thus either invalid or
    one the rule gives a smaller parent, and could never have reached the
    InternalInvariantError guard, which needs a pick above v.
    """
    poly, members, edges, p = node
    m = len(poly)
    first = poly[0]
    edge = kernel.edge
    n = len(kernel.points)
    if p is None:
        below, near = n, range(m)
    else:
        j = poly.index(p)
        below, near = p, ((j - 1) % m, j)
    kids = []
    for v in range(n):
        if members >> v & 1:
            continue
        child_members = members | 1 << v
        for pos in range(m) if v < below else near:
            if not _insertion_valid(kernel, poly, members, edges, pos, v):
                continue
            u, w = poly[pos], poly[(pos + 1) % m]
            if v < first:
                child = (v,) + poly[pos + 1:] + poly[:pos + 1]
            else:
                child = poly[:pos + 1] + (v,) + poly[pos + 1:]
            child_edges = edges & ~(1 << edge[u][w]) | 1 << edge[u][v] | 1 << edge[v][w]
            parent = _parent_vertex(kernel, child, child_members, child_edges)
            if parent == v:
                kids.append((child, child_members, child_edges, v))
            elif parent is None or parent > v:
                raise InternalInvariantError(
                    f"parent rule of {child} picks {parent}, not the inserted {v}")
    kids.sort(reverse=True)
    return kids


def canonical_parent(s: PointSet, poly: Sequence[int]) -> PolygonSeq:
    """Parent of a surrounding polygon: delete the vertex the parent rule picks.

    A cycle that is not a surrounding polygon, and the root (the convex
    hull), have no parent and are rejected with a ValueError.  Any other
    surrounding polygon without a removable vertex means the tree is
    broken, and InternalInvariantError is raised.
    """
    poly = canonical_cycle(s, poly)
    if not is_surrounding_polygon(s, poly):
        raise ValueError(f"{poly} is not a surrounding polygon and has no parent")
    if poly == hull_cycle(s):
        raise ValueError("the convex hull is the root and has no parent")
    kernel = _PolygonKernel(s)
    v = _parent_vertex(kernel, poly, *_masks(kernel, poly))
    if v is None:
        raise InternalInvariantError(f"surrounding polygon {poly} has no removable vertex")
    j = poly.index(v)
    return _canonical(s.points, poly[:j] + poly[j + 1:])


def polygon_children(s: PointSet, poly: Sequence[int]) -> list[PolygonSeq]:
    """Children of a surrounding polygon in the reverse-search tree.

    A child inserts one absent point into one edge, is itself a
    surrounding polygon, and has the inserted point as the vertex the
    parent rule picks.  The rule is first applied to the polygon itself:
    below its own parent vertex p a point may go into any edge, above p
    only into the two edges at p.  The tests are local, so a cycle that is
    not a surrounding polygon is rejected with a ValueError.
    """
    poly = canonical_cycle(s, poly)
    if not is_surrounding_polygon(s, poly):
        raise ValueError(f"{poly} is not a surrounding polygon")
    kernel = _PolygonKernel(s)
    members, edges = _masks(kernel, poly)
    node = (poly, members, edges, _parent_vertex(kernel, poly, members, edges))
    return [kid[0] for kid in reversed(_children(kernel, node))]


def polygon_tree(s: PointSet, full_only: bool, lines: bool = False
                 ) -> tuple[list[PolygonNode] | None, Callable | None, Callable | None]:
    """Roots, children and emit function of the reverse-search tree, for ``tree_search``.

    A node carries its polygon, the vertex and edge masks ``_children``
    reads, and its parent vertex, so a child gets them from its parent with
    a few mask operations.  The one root is the hull, with no parent
    vertex, and the children come in stack order, the last first.  With
    ``full_only`` only polygons using every point are emitted; with
    ``lines`` a polygon is emitted as its text line, its indices joined by
    commas, in place of its cycle.  A collinear set, or one of fewer than
    3 points, has no polygons; this is the one place that decides so, and
    it gets ``(None, None, None)``, which ``tree_search`` reports as a
    degenerate outcome.  No polygon is recorded: a child's parent is the
    node that made it, so only a child list that is not strictly decreasing
    could list one twice, and the children function raises
    InternalInvariantError on it.  It reads one kernel, whose tables fill as the search first needs
    them, and takes the polygons the tree hands it as valid and canonical.
    """
    if s.n < 3 or convex_hull(s).degenerate:
        return None, None, None
    kernel = _PolygonKernel(s)
    hull = hull_cycle(s)
    roots = [(hull, *_masks(kernel, hull), None)]

    def children(node: PolygonNode) -> list[PolygonNode]:
        kids = _children(kernel, node)
        if any(a[0] <= b[0] for a, b in zip(kids, kids[1:])):
            raise InternalInvariantError(f"children of {node[0]} are not strictly decreasing")
        return kids

    def emit(node: PolygonNode) -> PolygonSeq | str | None:
        poly = node[0]
        if full_only and len(poly) < s.n:
            return None
        return ",".join(map(str, poly)) if lines else poly

    return roots, children, emit


def enumerate_surrounding(s: PointSet, sink: Sink | None = None,
                          budget: int | None = None) -> EnumerationOutcome:
    """Emit every surrounding polygon of s exactly once, in canonical form.

    Collinear inputs (or n < 3) have none; the outcome is flagged
    degenerate with count 0.
    """
    return tree_search(*polygon_tree(s, full_only=False), sink, budget)


def enumerate_polygonalizations(s: PointSet, sink: Sink | None = None,
                                budget: int | None = None) -> EnumerationOutcome:
    """Emit every polygonalization of s: surrounding polygons using all points."""
    return tree_search(*polygon_tree(s, full_only=True), sink, budget)
