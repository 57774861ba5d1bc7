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
and still surrounds everything.  A polygon's children are the insertions of
a point v for which that rule picks v, so a depth-first walk from the hull
visits every surrounding polygon exactly once and holds only its path to
the root (pure reverse search).  ``_polygon_rules`` writes the parent rule
and the children once, for ``polygon_tree``, ``canonical_parent`` and
``polygon_children``, and ``enumerate_surrounding`` and
``enumerate_polygonalizations`` run the walk with ``tree_search``, which
every enumerator shares.  Straight angles at polygon vertices are allowed,
and two polygons with the same outline but different vertex sequences
count as different.

Removal and insertion change one corner u, v, w of a polygon already known
to surround the set, so the rules decide them locally, on the
``ConflictKernel`` of ``paths`` plus cached bitmasks of the points in
closed triangles, with no point-in-polygon test: the conflict bits of the
new edges, and one corner sign for a removal or one pocket mask for an
insertion.  A node carries its canonical polygon, its vertex and edge masks
and its own parent vertex, and a child gets them from its parent with a few
mask operations and a rotation; the signed area is computed only when
``canonical_cycle`` is called on a polygon from outside the search.
``is_surrounding_polygon``, which the oracles use, stays on the raw
predicates.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .geom import (
    InternalInvariantError,
    Placement,
    Point,
    PointSet,
    convex_hull,
    point_in_triangle,
    polygon_is_simple,
    _placement_unchecked,
)
from .paths import ConflictKernel, EnumerationOutcome, Sink, _checked_sequence, tree_search

PolygonSeq = tuple[int, ...]
# (cycle, members, edges, parent vertex or None at the hull); see _polygon_rules.
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

    ``hull`` is the bitmask of the hull vertices.  ``pocket(u, v, w)``, the
    points of the closed triangle uvw off the closed segments uv and vw, is
    what inserting v into the edge uw cuts out of a polygon; u and w may
    swap, so it is kept under ``bit[u][w] << n | 1 << v``, one key for the
    pair {u, w} and v.  The pockets, and the ``triangle(u, v, w)`` masks of
    closed triangles they are made of, are filled on first use, because a
    search reads only part of them.  The exact predicate behind
    ``triangle`` takes a degenerate triangle as its segment hull, so
    ``triangle(u, v, v)`` gives the points of the closed segment uv.
    """

    __slots__ = ("hull", "_triangles", "_pockets")

    def __init__(self, s: PointSet) -> None:
        super().__init__(s)
        self.hull = sum(1 << v for v in convex_hull(s).vertices)
        self._triangles: dict[int, int] = {}
        self._pockets: dict[int, int] = {}

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

    def pocket(self, u: int, v: int, w: int) -> int:
        key = self.bit[u][w] << len(self.points) | 1 << v
        mask = self._pockets.get(key)
        if mask is None:
            t = self.triangle
            mask = self._pockets[key] = t(u, v, w) & ~t(u, v, v) & ~t(v, w, w)
        return mask


def _masks(kernel: _PolygonKernel, cycle: PolygonSeq) -> tuple[int, int]:
    """The point mask of a cycle's vertices and the segment set of its edges."""
    bit = kernel.bit
    members = edges = 0
    for i, v in enumerate(cycle):
        members |= 1 << v
        edges |= bit[cycle[i - 1]][v]
    return members, edges


def _polygon_rules(kernel: _PolygonKernel) -> tuple[Callable, Callable]:
    """The children function of the polygon tree and its parent rule, on one kernel.

    ``parent(cycle, members, edges)`` is the smallest removable vertex
    among the non-hull vertices of ``members`` (the vertex mask, or one bit
    to ask about one vertex), or None, on a counterclockwise surrounding
    polygon with edge mask ``edges``, a segment set of the kernel, as
    ``_masks`` makes it.  Deleting v between u and w replaces its two edges
    by the bridge uw, and the two regions differ only by the closed
    triangle uvw.  At a convex corner (a left turn at v) the triangle is
    cut away, with v outside; at a reflex corner it is added,
    and at a straight angle v lies inside the bridge and the region does
    not change.  So the sign of the corner settles coverage.  The result is
    simple exactly when the bridge is disjoint from every edge but its
    neighbours xu and wy.  Those need no test: uw doubles back along xu
    only when x lies inside uw (w cannot lie inside an edge of a simple
    polygon), and then the other edge at x meets the bridge, unless it is
    wy itself; but then the polygon is triangle uvw with x on a side, and v
    is a hull vertex.

    ``children(node)`` gives a node's children, canonical, in descending
    order: the last first, as ``tree_search`` takes them.  A node is
    ``(cycle, members, edges, p)``: a canonical surrounding polygon P, its
    vertex and edge masks, and its parent vertex p, the point whose
    insertion made it (None at the hull).  A candidate inserts an absent
    point v into an edge uw, and is a child when it surrounds the set and
    ``parent`` picks v.  v lies in P's closed region, so a simple result
    cuts the closed triangle uvw out of it, keeping the new edges uv and
    vw: the points it leaves outside are the pocket's points that are not
    vertices, one mask test, made first.  It is simple exactly when each
    new edge is disjoint from every host edge it is not adjacent to (on a
    host triangle, uv is still tested against the edge opposite u).  Two
    adjacent edges that overlap need no test: the far end of the shorter
    lies inside the longer, and the other edge at that end is tested
    against it.  v is left at a reflex or straight corner bridged by the
    old edge, so a rule picking neither v nor a smaller vertex means the
    insertion and removal tests disagree, and InternalInvariantError is
    raised.  An insertion keeps the polygon counterclockwise, so a child
    only needs its smallest index, the old first vertex or v, moved to the
    front.

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

    The kernel's pockets, the one table the search fills as it goes, are
    read from their dict and filled through ``pocket`` on a miss.
    ``children`` checks each accepted insertion with the rule in its second
    argument, ``parent`` by default.
    """
    pts, bit, rows, pockets = kernel.points, kernel.bit, kernel.rows, kernel._pockets
    pocket, hull = kernel.pocket, kernel.hull
    n = len(pts)
    everyone = (1 << n) - 1

    def parent(cycle: PolygonSeq, members: int, edges: int) -> int | None:
        m = len(cycle)
        if m < 4:
            return None
        candidates = members & ~hull
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            j = cycle.index(v)
            u, w = cycle[j - 1], cycle[j + 1 - m]
            (ux, uy), (vx, vy), (wx, wy) = pts[u], pts[v], pts[w]
            if (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux) > 0:
                continue
            near = bit[cycle[j - 2]][u] | bit[u][v] | bit[v][w] | bit[w][cycle[j + 2 - m]]
            if not rows[u][w] & edges & ~near:
                return v
        return None

    def children(node: PolygonNode, parent: Callable = parent) -> list[PolygonNode]:
        poly, members, edges, p = node
        m = len(poly)
        if p is None:
            below, near = n, range(m)
        else:
            j = poly.index(p)
            below, near = p, ((j - 1) % m, j)
        kids = []
        absent = rest = ~members & everyone
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            child_members = members | low
            at_v, rows_v = bit[v], rows[v]
            for pos in range(m) if v < below else near:
                u, w = poly[pos], poly[pos + 1 - m]
                uw = bit[u][w]
                gap = pockets.get(uw << n | low)
                if gap is None:
                    gap = pocket(u, v, w)
                if gap & absent:
                    continue
                kept = edges & ~uw
                if rows_v[u] & kept & ~bit[poly[pos - 1]][u]:
                    continue
                if rows_v[w] & kept & ~bit[w][poly[pos + 2 - m]]:
                    continue
                if v < poly[0]:
                    child = (v,) + poly[pos + 1:] + poly[:pos + 1]
                else:
                    child = poly[:pos + 1] + (v,) + poly[pos + 1:]
                child_edges = kept | at_v[u] | at_v[w]
                pick = parent(child, child_members, child_edges)
                if pick == v:
                    kids.append((child, child_members, child_edges, v))
                elif pick is None or pick > v:
                    raise InternalInvariantError(
                        f"parent rule of {child} picks {pick}, not the inserted {v}")
        kids.sort(reverse=True)
        return kids

    return children, parent


def canonical_parent(s: PointSet, poly: Sequence[int]) -> PolygonSeq:
    """Parent of a surrounding polygon: delete the vertex the parent rule picks.

    The rule is the search's, from ``_polygon_rules``.  A cycle that is not
    a surrounding polygon, and the root (the convex hull), have no parent
    and are rejected with a ValueError.  Any other surrounding polygon
    without a removable vertex means the tree is broken, and
    InternalInvariantError is raised.
    """
    poly = canonical_cycle(s, poly)
    if not is_surrounding_polygon(s, poly):
        raise ValueError(f"{poly} is not a surrounding polygon and has no parent")
    if poly == hull_cycle(s):
        raise ValueError("the convex hull is the root and has no parent")
    kernel = _PolygonKernel(s)
    v = _polygon_rules(kernel)[1](poly, *_masks(kernel, poly))
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
    children, parent = _polygon_rules(kernel)
    members, edges = _masks(kernel, poly)
    node = (poly, members, edges, parent(poly, members, edges))
    return [kid[0] for kid in reversed(children(node))]


def polygon_tree(s: PointSet, full_only: bool, lines: bool = False
                 ) -> tuple[list[PolygonNode] | None, Callable | None, Callable | None]:
    """Roots, children and emit function of the reverse-search tree, for ``tree_search``.

    The nodes and children are those of ``_polygon_rules``, over one kernel
    whose pockets fill as the search first needs them.  The one root is the
    hull, with no parent vertex.  With ``full_only`` only polygons using
    every point are emitted; with ``lines`` a polygon is emitted as its
    text line, its indices joined by commas, in place of its cycle.  A
    collinear set, or one of fewer than 3 points, has no polygons; this is
    the one place that decides so, and it gets ``(None, None, None)``,
    which ``tree_search`` reports as a degenerate outcome.  No polygon is
    recorded: a child's parent is the node that made it, so only a child
    list that is not strictly decreasing could list one twice, and the
    children function raises InternalInvariantError on it.
    """
    if s.n < 3 or convex_hull(s).degenerate:
        return None, None, None
    kernel = _PolygonKernel(s)
    rule_children = _polygon_rules(kernel)[0]
    hull = hull_cycle(s)
    roots = [(hull, *_masks(kernel, hull), None)]

    def children(node: PolygonNode) -> list[PolygonNode]:
        kids = rule_children(node)
        if len(kids) > 1 and any(a[0] <= b[0] for a, b in zip(kids, kids[1:])):
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
