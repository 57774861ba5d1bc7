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
  of it) whose on-line/off-line pattern is exactly that sequence.
* ``steinhaus_complete`` grows a polygon missing some hull vertices into one
  containing them all, gluing each onto a fully visible edge.

None of these is trusted blindly: the test suite validates every output
with the same validators the enumerators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable, Sequence

from .geom import (
    InternalInvariantError,
    Placement,
    Point,
    PointSet,
    SegmentRelation,
    convex_hull,
    cross,
    hull_classify,
    on_closed_segment,
    point_in_triangle,
    polygon_is_simple,
    segment_relation,
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


def _start_vertices(s: PointSet) -> list[int]:
    return sorted(convex_hull(s).vertices)


def vv_tree(s: PointSet) -> tuple[list[PathSeq], Callable, Callable]:
    """Roots, children and emit function of the visible-vertex path tree.

    The roots are the hull vertices, and the children of a path append any
    vertex of the remaining points visible from the current endpoint.  The
    leaves, which use every point, are emitted.
    """
    n = s.n

    def children(seq: PathSeq) -> list[PathSeq]:
        rest = [v for v in range(n) if v not in seq]
        if not rest:
            return []
        return [seq + (v,) for v in visible_vertices(s, rest, s.points[seq[-1]])]

    def emit(seq: PathSeq) -> PathSeq | None:
        return seq if len(seq) == n else None

    return ([(v,) for v in _start_vertices(s)] if n else []), children, emit


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


def _find_base_line(s: PointSet, ones: int) -> tuple[int, int, list[int], list[int]]:
    """Locate the distinguished line of a one-sided instance.

    Returns (A, B, on_line, off_line) where A, B are hull vertices spanning
    the line, every off point lies strictly left of A->B, on_line is sorted
    along the A->B direction, and len(on_line) == ones.
    """
    hull = convex_hull(s)
    pts = s.points
    if hull.degenerate:
        if ones != s.n:
            raise ValueError(
                f"signature has {ones} on-line bits but all {s.n} points are collinear"
            )
        a, b = hull.vertices[0], hull.vertices[-1]
        on = _sorted_along(s, list(range(s.n)), a, b)
        return a, b, on, []
    verts = hull.vertices
    h = len(verts)
    for k in range(h):
        a, b = verts[k], verts[(k + 1) % h]
        on = [i for i in range(s.n) if cross(pts[a], pts[b], pts[i]) == 0]
        if len(on) == ones:
            off = [i for i in range(s.n) if i not in set(on)]
            return a, b, _sorted_along(s, on, a, b), off
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


def _blocks(bits: tuple[int, ...]) -> list[tuple[str, int]]:
    runs = []
    i = 0
    while i < len(bits):
        j = i
        while j < len(bits) and bits[j] == bits[i]:
            j += 1
        runs.append(("one" if bits[i] == 1 else "zero", j - i))
        i = j
    return runs


def realize_signature(s: PointSet, sig: Signature) -> PathSeq:
    """Hamiltonian path of a one-sided instance with the given signature.

    On-line points appear in left-to-right order along the line; each block
    of off-line bits is served by a convex group of off-line points, carved
    off greedily: the remaining off points are sorted radially (left to
    right, ties to the nearer point) around the on-line point that follows
    the block, and the block-size prefix of that order forms the group.
    A Hamiltonian detour through each group connects its neighbouring
    on-line points.
    """
    if len(sig) != s.n:
        raise ValueError(f"signature length {len(sig)} != point count {s.n}")
    if sig.ones < 2:
        raise ValueError("need at least two points on the line")
    _, _, on_line, off_line = _find_base_line(s, sig.ones)
    pts = s.points
    if not off_line:
        return tuple(on_line)

    runs = _blocks(sig.bits)
    # Assign off points to zero-blocks, in block order.
    remaining = list(off_line)
    zero_sizes = [size for kind, size in runs if kind == "zero"]
    anchors: list[int | None] = []
    consumed_ones = 0
    for kind, size in runs:
        if kind == "one":
            consumed_ones += size
        else:
            anchors.append(on_line[consumed_ones] if consumed_ones < sig.ones else None)
    groups: list[list[int]] = []
    for bi, size in enumerate(zero_sizes):
        if bi == len(zero_sizes) - 1:
            groups.append(list(remaining))
            remaining = []
            continue
        anchor = anchors[bi]
        assert anchor is not None  # only the final block can trail the last 1
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
        groups.append(remaining[:size])
        remaining = remaining[size:]

    # Stitch the path following the runs.  A detour ending at an on-line
    # anchor consumes the first 1-bit of the following run.
    path: list[int] = []
    ones_used = 0
    block_index = 0
    anchor_pending = False
    for r, (kind, size) in enumerate(runs):
        if kind == "one":
            take = size - 1 if anchor_pending else size
            anchor_pending = False
            path.extend(on_line[ones_used : ones_used + take])
            ones_used += take
            continue
        group = groups[block_index]
        block_index += 1
        left = path[-1] if path else None
        right = anchors[block_index - 1] if r < len(runs) - 1 else None
        detour = _block_detour(s, group, left, right)
        if left is not None:
            detour = detour[1:]
        path.extend(detour)
        if right is not None:
            ones_used += 1  # the anchoring 1 was appended by the detour
            anchor_pending = True
    return tuple(path)


def _block_detour(s: PointSet, group: list[int], left: int | None,
                  right: int | None) -> list[int]:
    """Path through one off-line group, attached to its on-line neighbours."""
    members = list(group)
    if left is not None:
        members.append(left)
    if right is not None:
        members.append(right)
    if left is not None and right is not None:
        return _greedy_path(s, members, left, right)
    info = hull_classify([s.points[i] for i in members])
    hull_members = sorted(members[k] for k in info.vertices)
    if right is not None:
        start = min(v for v in hull_members if v != right)
        return _greedy_path(s, members, start, right)
    end = min(v for v in hull_members if v != left)
    return _greedy_path(s, members, left, end)


def steinhaus_complete(s: PointSet, poly: Sequence[int]) -> PolygonSeq:
    """Grow a polygon to take in the hull vertices it is missing.

    Precondition: the polygon is simple and every point of the set is a
    polygon vertex, is covered by the closed polygon, or is a hull vertex
    absent from it.  Missing hull vertices are processed in increasing
    index order; each is glued onto the first edge (in cyclic order from
    the canonical start) that it sees in full.  Absence of such an edge
    would break the completion guarantee and aborts loudly.
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
        edge = _first_fully_visible_edge(s, cycle, q)
        if edge is None:
            raise InternalInvariantError(
                f"no edge of {cycle} is fully visible from hull vertex {q}"
            )
        cycle = cycle[: edge + 1] + (q,) + cycle[edge + 1 :]
    return canonical_cycle(s, cycle)


def _first_fully_visible_edge(s: PointSet, cycle: PolygonSeq, q: int) -> int | None:
    pts = s.points
    pq = pts[q]
    m = len(cycle)
    for e in range(m):
        if _edge_fully_visible(s, cycle, e, pq):
            return e
    return None


def _edge_fully_visible(s: PointSet, cycle: PolygonSeq, e: int, pq: Point) -> bool:
    """Whether every point of edge ``e`` sees ``pq`` past the polygon.

    Equivalent to: the triangle on the edge and pq meets the polygon only
    along that edge, so the triangle can be glued on without breaking
    simplicity.
    """
    pts = s.points
    m = len(cycle)
    pu = pts[cycle[e]]
    pw = pts[cycle[(e + 1) % m]]
    if cross(pq, pu, pw) == 0:
        return False
    for j in range(m):
        if j == e:
            continue
        a = pts[cycle[j]]
        b = pts[cycle[(j + 1) % m]]
        for z in (a, b):
            if z != pu and z != pw and point_in_triangle(z, pq, pu, pw):
                return False
        for s1, s2 in ((pq, pu), (pu, pw), (pw, pq)):
            rel = segment_relation(a, b, s1, s2)
            if rel is SegmentRelation.DISJOINT:
                continue
            if rel is SegmentRelation.SHARE_ENDPOINT_ONLY:
                shared = {a, b} & {s1, s2}
                if shared <= {pu, pw}:
                    continue
            return False
    return True
