"""Constructions that certify lower bounds on structure counts.

Four builders live here, all driven by the visible-vertex idea: from a point
outside a convex hull, the hull vertices reachable by a segment missing the
hull entirely are safe next steps for a growing non-crossing path.

* ``enumerate_vv_paths`` walks the whole tree of greedy visible-vertex
  paths with ``tree_search``, the search driver shared by every enumerator
  in the package; its leaves are non-crossing Hamiltonian paths.
* ``ham_path_between`` produces one Hamiltonian path between two prescribed
  hull vertices by always preferring a visible vertex other than the target.
* ``realize_signature`` turns a 010-avoiding bit sequence into a Hamiltonian
  path of a one-sided instance (all points on a line or strictly on one side
  of it) whose on-line/off-line pattern is exactly that sequence, in one
  left-to-right pass over the sequence's runs: a run of ones walks along
  the line, and a run of zeros detours through a convex group of off-line
  points carved where the run stands.
* ``steinhaus_complete`` grows a polygon missing some hull vertices into one
  containing them all, inserting each into the first edge that it lies
  strictly right of and whose replacement keeps the polygon simple.

None of these is trusted blindly: the test suite validates every output
with the same validators the enumerators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import groupby
from typing import Callable, Sequence

from .geom import (
    InternalInvariantError,
    Placement,
    Point,
    PointSet,
    convex_hull,
    cross,
    hull_classify,
    on_closed_segment,
    polygon_is_simple,
    _placement_unchecked,
)
from .paths import EnumerationOutcome, PathSeq, Sink, tree_search
from .polygons import PolygonSeq, canonical_cycle, polygon_points


def visible_vertices(s: PointSet, subset: Sequence[int], viewpoint: Point) -> list[int]:
    """Hull vertices of ``subset`` visible from an external viewpoint.

    A hull vertex q is visible when the open segment from the viewpoint to q
    misses the subset's convex hull entirely; points interior to hull edges
    are never vertices and never visible.  The viewpoint must lie strictly
    outside the hull (for a collinear subset, off its closed spanning
    segment).  Returned indices are ascending.
    """
    subset = list(subset)
    if not subset:
        raise ValueError("visible_vertices needs a nonempty subset")
    for i in subset:
        s.check_index(i, "subset index")
    viewpoint = Point(*viewpoint)
    pts = [s.points[i] for i in subset]
    info = hull_classify(pts)
    if info.degenerate:
        if len(pts) == 1:
            if viewpoint == pts[0]:
                raise ValueError("viewpoint coincides with the subset point")
            return [subset[0]]
        e1 = pts[info.vertices[0]]
        e2 = pts[info.vertices[1]]
        if on_closed_segment(viewpoint, e1, e2):
            raise ValueError("viewpoint lies on the subset's hull segment")
        if cross(e1, e2, viewpoint) != 0:
            return sorted(subset[k] for k in info.vertices)
        # Viewpoint on the same line, beyond one end: only the near extreme.
        d1 = (viewpoint[0] - e1[0]) ** 2 + (viewpoint[1] - e1[1]) ** 2
        d2 = (viewpoint[0] - e2[0]) ** 2 + (viewpoint[1] - e2[1]) ** 2
        near = info.vertices[0] if d1 < d2 else info.vertices[1]
        return [subset[near]]
    hull_pts = [pts[k] for k in info.vertices]
    if _placement_unchecked(hull_pts, viewpoint) is not Placement.OUTSIDE:
        raise ValueError("viewpoint must be strictly outside the subset's hull")
    h = len(hull_pts)
    visible = []
    for k in range(h):
        q = hull_pts[k]
        a = hull_pts[(k - 1) % h]  # previous vertex, CCW order
        b = hull_pts[(k + 1) % h]
        ux, uy = viewpoint[0] - q[0], viewpoint[1] - q[1]
        ax, ay = a[0] - q[0], a[1] - q[1]
        bx, by = b[0] - q[0], b[1] - q[1]
        # u inside the closed hull cone at q blocks the open segment.
        if (bx * uy - by * ux) >= 0 and (ux * ay - uy * ax) >= 0:
            continue
        visible.append(subset[info.vertices[k]])
    return sorted(visible)


def vv_tree(s: PointSet) -> tuple[list[tuple], Callable]:
    """Roots and children of the visible-vertex path tree, for ``tree_search``.

    A node is ``(seq, out, unused)``: the path, itself when it uses every
    point (a leaf, emitted) or else None, and the mask of its unused points.
    The roots are the hull vertices; a path's children append each unused
    point visible from its endpoint, in stack order, the largest first.
    """
    n = s.n

    def node(seq: PathSeq, unused: int) -> tuple:
        return seq, None if unused else seq, unused

    def children(parent: tuple) -> list[tuple]:
        seq, _, unused = parent
        if not unused:
            return []
        rest = [v for v in range(n) if unused >> v & 1]
        return [node(seq + (v,), unused ^ 1 << v)
                for v in reversed(visible_vertices(s, rest, s.points[seq[-1]]))]

    hull = sorted(convex_hull(s).vertices) if n else []
    return [node((v,), (1 << n) - 1 ^ 1 << v) for v in hull], children


def enumerate_vv_paths(s: PointSet, sink: Sink | None = None) -> EnumerationOutcome:
    """Depth-first walk of the visible-vertex path tree; emits its leaves.

    The walk is ``tree_search`` over ``vv_tree``.  Every leaf uses all
    points and is a non-crossing Hamiltonian path; ``count`` is the leaf
    total.
    """
    return tree_search(*vv_tree(s), sink)


def _greedy_path(s: PointSet, members: Sequence[int], start: int,
                 end: int) -> list[int]:
    """Visible-vertex path over ``members`` from start to end.

    Both must be hull vertices of the member set.  At every step a visible
    vertex other than ``end`` is preferred (smallest index for
    determinism); the target can only become available as the final point,
    anything else breaks the construction's guarantee and aborts.
    """
    order = [start]
    remaining = set(members)
    remaining.remove(start)
    while remaining:
        vis = visible_vertices(s, sorted(remaining), s.points[order[-1]])
        choices = [v for v in vis if v != end]
        if choices:
            nxt = choices[0]
        else:
            if remaining != {end}:
                raise InternalInvariantError(
                    f"endpoint {end} became the only visible vertex with "
                    f"{sorted(remaining)} still unused"
                )
            nxt = end
        order.append(nxt)
        remaining.remove(nxt)
    return order


def ham_path_between(s: PointSet, p: int, q: int) -> PathSeq:
    """A non-crossing Hamiltonian path from hull vertex p to hull vertex q."""
    s.check_index(p, "endpoint")
    s.check_index(q, "endpoint")
    if p == q:
        raise ValueError("endpoints must differ")
    hull_verts = set(convex_hull(s).vertices)
    for v in (p, q):
        if v not in hull_verts:
            raise ValueError(f"point {v} is not a convex hull vertex")
    return tuple(_greedy_path(s, range(s.n), p, q))


@dataclass(frozen=True)
class Signature:
    """Binary pattern of a Hamiltonian path in a one-sided instance.

    Bit 1 marks a point on the distinguished line, bit 0 a point off it.
    The consecutive pattern 0,1,0 is forbidden (an on-line point may not
    have off-line neighbours on both sides).
    """

    bits: tuple[int, ...]
    ones: int = field(init=False)

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("signature bits must be 0 or 1")
        for i in range(len(bits) - 2):
            if bits[i : i + 3] == (0, 1, 0):
                raise ValueError(f"signature {bits} contains the pattern 010")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "ones", sum(bits))

    def __len__(self) -> int:
        return len(self.bits)


def _find_base_line(s: PointSet, ones: int) -> tuple[list[int], list[int]]:
    """Locate the distinguished line of a one-sided instance.

    Returns (on_line, off_line): the points on a hull edge line A->B,
    sorted along the A->B direction, len(on_line) == ones, and the other
    points in index order, all strictly left of A->B.
    """
    hull = convex_hull(s)
    pts = s.points
    if hull.degenerate:
        if ones != s.n:
            raise ValueError(
                f"signature has {ones} on-line bits but all {s.n} points are collinear"
            )
        a, b = hull.vertices[0], hull.vertices[-1]
        return _sorted_along(s, list(range(s.n)), a, b), []
    verts = hull.vertices
    h = len(verts)
    for k in range(h):
        a, b = verts[k], verts[(k + 1) % h]
        on = [i for i in range(s.n) if cross(pts[a], pts[b], pts[i]) == 0]
        if len(on) == ones:
            return _sorted_along(s, on, a, b), sorted(set(range(s.n)).difference(on))
    raise ValueError(
        f"no hull edge line carries exactly {ones} points; "
        "not a one-sided instance for this signature"
    )


def _sorted_along(s: PointSet, indices: list[int], a: int, b: int) -> list[int]:
    pa = s.points[a]
    dx = s.points[b][0] - pa[0]
    dy = s.points[b][1] - pa[1]
    return sorted(indices, key=lambda i: (s.points[i][0] - pa[0]) * dx
                  + (s.points[i][1] - pa[1]) * dy)


def realize_signature(s: PointSet, sig: Signature) -> PathSeq:
    """Hamiltonian path of a one-sided instance with the given signature.

    One left-to-right pass over the signature's runs builds the path.  A
    run of ones appends the next on-line points in their order along the
    line.  A run of zeros is served by a convex group of off-line points,
    carved where the run stands: the last zero run takes every remaining
    off point; any other sorts the remaining off points radially (left to
    right, ties to the nearer point) around its anchor, the on-line point
    that follows the run, and takes the run-size prefix of that order.  A
    Hamiltonian detour through the group then joins the path's last point
    to the anchor, which it places on the path.
    """
    if len(sig) != s.n:
        raise ValueError(f"signature length {len(sig)} != point count {s.n}")
    if sig.ones < 2:
        raise ValueError("need at least two points on the line")
    on_line, remaining = _find_base_line(s, sig.ones)
    pts = s.points
    path: list[int] = []
    # ``ones`` counts the 1-bits read so far; a run of ones starts at
    # on_line[taken], just past the anchor the previous detour placed.
    ones = taken = 0
    for bit, run in groupby(sig.bits):
        size = len(list(run))
        if bit:
            ones += size
            path.extend(on_line[taken:ones])
            continue
        anchor = on_line[ones] if ones < sig.ones else None
        if size < len(remaining):  # not the last zero run, so anchored
            pa = pts[anchor]

            def key_cmp(i: int, j: int) -> int:
                u, v = pts[i], pts[j]
                c = (u[0] - pa[0]) * (v[1] - pa[1]) - (u[1] - pa[1]) * (v[0] - pa[0])
                if c:
                    return -1 if c < 0 else 1
                du = (u[0] - pa[0]) ** 2 + (u[1] - pa[1]) ** 2
                dv = (v[0] - pa[0]) ** 2 + (v[1] - pa[1]) ** 2
                return -1 if du < dv else (1 if du > dv else 0)

            remaining.sort(key=cmp_to_key(key_cmp))
        group, remaining = remaining[:size], remaining[size:]
        detour = _block_detour(s, group, path[-1] if path else None, anchor)
        path.extend(detour[1:] if path else detour)
        if anchor is not None:
            taken = ones + 1
    return tuple(path)


def _block_detour(s: PointSet, group: list[int], left: int | None,
                  right: int | None) -> list[int]:
    """Path through one off-line group from its left to its right neighbour.

    A missing neighbour (None: the run opens or closes the signature) is
    replaced by the smallest-index hull vertex of the members other than
    the neighbour that is present, so that end of the detour is free.
    """
    members = group + [v for v in (left, right) if v is not None]
    if left is None or right is None:
        info = hull_classify([s.points[i] for i in members])
        free = min(members[k] for k in info.vertices if members[k] not in (left, right))
        left, right = (free, right) if left is None else (left, free)
    return _greedy_path(s, members, left, right)


def steinhaus_complete(s: PointSet, poly: Sequence[int]) -> PolygonSeq:
    """Grow a polygon to take in the hull vertices it is missing.

    Precondition: the polygon is simple and every point of the set is a
    polygon vertex, is covered by the closed polygon, or is a hull vertex
    absent from it.  Missing hull vertices are processed in increasing
    index order; each, q, goes after the first cycle position (in cyclic
    order from the canonical start) whose edge u->w has q strictly on its
    right and whose replacement by u->q->w keeps the polygon simple.
    Absence of such an edge would break the completion guarantee and
    aborts loudly.

    This is the edge that q sees in full: the first edge whose closed
    triangle quw meets the closed polygon P only along uw.  P is simple and
    counterclockwise: canonical at the start, and each insertion glues a
    triangle on from outside.  q lies strictly outside P, since a hull
    vertex lies in the convex hull of no set of other points.

    (<=) If the closed triangle quw meets P only along uw, the new edges uq
    and qw meet the rest of P only at u and w, so the grown cycle is simple.
    P's interior lies left of u->w, next to uw, so q lies right of it.

    (=>) Let q lie right of u->w and let the grown cycle be simple.  The
    rest of P's boundary, a path from w to u, cannot cross uq or qw, cannot
    pass through q, and cannot meet uw beyond its ends.  So it lies wholly
    inside or wholly outside the closed triangle quw.  Wholly inside would
    put P's region on q's side of uw, which contradicts P being
    counterclockwise.  So the triangle meets P only along uw.
    """
    cycle = canonical_cycle(s, poly)
    pts = s.points
    hull_verts = set(convex_hull(s).vertices)
    members = set(cycle)
    poly_pts = polygon_points(s, cycle)
    if not polygon_is_simple(poly_pts):
        raise ValueError("steinhaus_complete needs a simple polygon")
    missing = sorted(v for v in hull_verts if v not in members)
    for i in range(s.n):
        if i in members or i in missing:
            continue
        if _placement_unchecked(poly_pts, pts[i]) is Placement.OUTSIDE:
            raise ValueError(
                f"point {i} is outside the polygon and not a missing hull vertex"
            )
    for q in missing:
        m = len(cycle)
        for e in range(m):
            grown = cycle[: e + 1] + (q,) + cycle[e + 1 :]
            if (cross(pts[cycle[e]], pts[cycle[(e + 1) % m]], pts[q]) < 0
                    and polygon_is_simple(polygon_points(s, grown))):
                cycle = grown
                break
        else:
            raise InternalInvariantError(
                f"no edge of {cycle} is fully visible from hull vertex {q}"
            )
    return canonical_cycle(s, cycle)
