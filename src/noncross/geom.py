"""Exact planar geometry over integer coordinates.

Every decision in this module is made with arbitrary-precision integer
arithmetic: orientation signs, segment intersection classes, hull membership
and point-in-polygon placement are all exact.  No floating point value ever
enters a comparison, so there are no tolerance knobs anywhere in the package.

Coordinates are Python ints (unbounded), accepted through ``__index__`` so
that numpy integer scalars and similar exact integer types also work.  Floats
are rejected at construction.

The validators and the oracles call these predicates directly.  The
searches call them to fill the tables of their per-search kernels
(``paths.ConflictKernel`` and the triangle masks in ``polygons``), so one
predicate call answers the same question at every node of a search; the
only predicate they call per node is one ``cross`` sign per polygon
removal test, which no table would make cheaper.
"""

from __future__ import annotations

import enum
import operator
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence


class InternalInvariantError(AssertionError):
    """A structural guarantee the search algorithms rely on was violated.

    Raised loudly instead of silently skipping: reverse-search parents must
    exist for every non-root polygon, hull completion must always find a
    fully visible edge, and the solution tree must never revisit a node.
    The CLI maps this to its own exit code (4).
    """


class Point(NamedTuple):
    x: int
    y: int


class Orientation(enum.IntEnum):
    """Sign of the cross product (q - p) x (r - p)."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


class SegmentRelation(enum.Enum):
    """Exact classification of how two closed segments meet."""

    DISJOINT = "disjoint"
    SHARE_ENDPOINT_ONLY = "share_endpoint_only"
    PROPER_CROSS = "proper_cross"
    IMPROPER_TOUCH = "improper_touch"
    COLLINEAR_OVERLAP = "collinear_overlap"


class Placement(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _coerce_point(raw) -> Point:
    try:
        x, y = raw
    except (TypeError, ValueError):
        raise ValueError(f"a point must be an (x, y) pair, got {raw!r}") from None
    try:
        return Point(operator.index(x), operator.index(y))
    except TypeError:
        raise ValueError(
            f"coordinates must be exact integers, got ({x!r}, {y!r})"
        ) from None


class PointSet:
    """Immutable indexed sequence of pairwise-distinct integer points.

    Indices 0..n-1 are stable for the lifetime of the set and are how every
    other module refers to points.  The convex hull is computed lazily and
    cached on the instance; all public behaviour is a pure function of the
    points, so instances are safe to share between threads (a lost cache
    race only costs a recomputation).
    """

    __slots__ = ("points", "_hull")

    def __init__(self, points: Iterable) -> None:
        pts = tuple(_coerce_point(raw) for raw in points)
        seen: dict[Point, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                raise ValueError(
                    f"duplicate point {tuple(p)} at indices {seen[p]} and {i}"
                )
            seen[p] = i
        self.points = pts
        self._hull: HullInfo | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        if self.n <= 8:
            body = ", ".join(f"({p.x},{p.y})" for p in self.points)
        else:
            head = ", ".join(f"({p.x},{p.y})" for p in self.points[:4])
            body = f"{head}, ... {self.n} points"
        return f"PointSet([{body}])"

    def check_index(self, i: int, what: str = "point index") -> int:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n:
            raise ValueError(f"invalid {what} {i!r} for a set of {self.n} points")
        return i


def orient(p: Point, q: Point, r: Point) -> Orientation:
    """Orientation of the ordered triple (p, q, r), decided exactly."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if d > 0:
        return Orientation.COUNTERCLOCKWISE
    if d < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def cross(o: Point, a: Point, b: Point) -> int:
    """Raw cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_open_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies strictly inside segment ab (collinear and between)."""
    if cross(a, b, p) != 0:
        return False
    if a[0] != b[0]:
        lo, hi = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
        return lo < p[0] < hi
    lo, hi = (a[1], b[1]) if a[1] < b[1] else (b[1], a[1])
    return lo < p[1] < hi


def on_closed_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segment_relation(a: Point, b: Point, c: Point, d: Point) -> SegmentRelation:
    """Classify how closed segments ab and cd meet.

    Requires a != b and c != d.  The five cases are mutually exclusive:
    properly crossing interiors, touching at a shared endpoint only,
    an endpoint of one in the interior of the other (improper touch),
    collinear overlap in more than one point, or fully disjoint.
    """
    if a == b or c == d:
        raise ValueError("segments must have two distinct endpoints")
    d1 = cross(a, b, c)
    d2 = cross(a, b, d)
    if d1 == 0 and d2 == 0:
        # All four points on one line; compare as intervals along it.
        s1 = (min(a, b), max(a, b))
        s2 = (min(c, d), max(c, d))
        lo = max(s1[0], s2[0])
        hi = min(s1[1], s2[1])
        if lo > hi:
            return SegmentRelation.DISJOINT
        if lo == hi:
            # A single shared point is necessarily an endpoint of both.
            return SegmentRelation.SHARE_ENDPOINT_ONLY
        return SegmentRelation.COLLINEAR_OVERLAP
    d3 = cross(c, d, a)
    d4 = cross(c, d, b)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and (
        (d3 > 0) != (d4 > 0)
    ) and d3 != 0 and d4 != 0:
        return SegmentRelation.PROPER_CROSS
    if a == c or a == d or b == c or b == d:
        # Lines are distinct here, so the shared endpoint is the only
        # intersection point.
        return SegmentRelation.SHARE_ENDPOINT_ONLY
    if d1 == 0 and on_closed_segment(c, a, b):
        return SegmentRelation.IMPROPER_TOUCH
    if d2 == 0 and on_closed_segment(d, a, b):
        return SegmentRelation.IMPROPER_TOUCH
    if d3 == 0 and on_closed_segment(a, c, d):
        return SegmentRelation.IMPROPER_TOUCH
    if d4 == 0 and on_closed_segment(b, c, d):
        return SegmentRelation.IMPROPER_TOUCH
    return SegmentRelation.DISJOINT


class HullInfo(NamedTuple):
    """Convex hull of an indexed point collection.

    ``vertices`` lists exactly the extreme points, counterclockwise, starting
    at the lexicographically smallest point.  Boundary points interior to a
    hull edge are never vertices; they are reported in ``on_edge``.  For an
    all-collinear input ``degenerate`` is set and ``vertices`` holds the two
    extreme points (one point for a singleton input).
    """

    vertices: tuple[int, ...]
    on_edge: tuple[int, ...]
    degenerate: bool


def hull_classify(points: Sequence[Point]) -> HullInfo:
    """HullInfo for an arbitrary point sequence; entries index into it."""
    m = len(points)
    if m == 0:
        raise ValueError("convex hull of an empty collection")
    if m == 1:
        return HullInfo((0,), (), True)
    order = sorted(range(m), key=lambda i: points[i])

    def build(idx_iter):
        chain: list[int] = []
        for i in idx_iter:
            while len(chain) >= 2 and cross(
                points[chain[-2]], points[chain[-1]], points[i]
            ) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    verts = tuple(lower[:-1] + upper[:-1])
    if len(verts) < 3:
        # All points collinear: extremes are the sort ends.
        verts = (order[0], order[-1])
        on_edge = tuple(i for i in order[1:-1])
        return HullInfo(verts, on_edge, True)
    vset = set(verts)
    hull_pts = [points[i] for i in verts]
    on_edge = []
    for i in range(m):
        if i in vset:
            continue
        for k in range(len(hull_pts)):
            if on_open_segment(points[i], hull_pts[k], hull_pts[(k + 1) % len(hull_pts)]):
                on_edge.append(i)
                break
    return HullInfo(verts, tuple(on_edge), False)


def convex_hull(s: PointSet) -> HullInfo:
    """Convex hull of a PointSet, cached on the set."""
    if s.n == 0:
        raise ValueError("convex hull of an empty point set")
    if s._hull is None:
        s._hull = hull_classify(s.points)
    return s._hull


def _angular_cmp_factory(pts: Sequence[Point], origin: Point):
    ox, oy = origin

    def cmp(i: int, j: int) -> int:
        ux, uy = pts[i][0] - ox, pts[i][1] - oy
        vx, vy = pts[j][0] - ox, pts[j][1] - oy
        hu = 0 if (uy > 0 or (uy == 0 and ux > 0)) else 1
        hv = 0 if (vy > 0 or (vy == 0 and vx > 0)) else 1
        if hu != hv:
            return hu - hv
        c = ux * vy - uy * vx
        if c > 0:
            return -1
        if c < 0:
            return 1
        du = ux * ux + uy * uy
        dv = vx * vx + vy * vy
        return -1 if du < dv else (1 if du > dv else 0)

    return cmp


def radial_order(s: PointSet, origin: int) -> list[list[int]]:
    """Indices sorted by exact angle around ``origin``, grouped by ray.

    Sweep starts at the positive x direction and runs counterclockwise.
    Each inner list is one maximal group of points on a common ray from the
    origin, ordered by increasing distance.
    """
    s.check_index(origin, "radial-order origin")
    pts = s.points
    ox, oy = pts[origin]
    others = [i for i in range(s.n) if i != origin]
    cmp = _angular_cmp_factory(pts, pts[origin])
    others.sort(key=cmp_to_key(cmp))

    def same_ray(i: int, j: int) -> bool:
        ux, uy = pts[i][0] - ox, pts[i][1] - oy
        vx, vy = pts[j][0] - ox, pts[j][1] - oy
        return ux * vy - uy * vx == 0 and ux * vx + uy * vy > 0

    groups: list[list[int]] = []
    for i in others:
        if groups and same_ray(groups[-1][-1], i):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def polygon_is_simple(points: Sequence[Point]) -> bool:
    """Whether a cyclic vertex sequence bounds a simple closed polygon.

    Adjacent edges must meet exactly at their shared vertex (a straight
    angle at a vertex is fine, an immediate reversal is not), non-adjacent
    edges must be disjoint, and vertices must be distinct.
    """
    m = len(points)
    if m < 3 or len(set(points)) != m:
        return False
    for i in range(m):
        a, b = points[i], points[(i + 1) % m]
        for j in range(i + 1, m):
            c, d = points[j], points[(j + 1) % m]
            rel = segment_relation(a, b, c, d)
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent:
                if rel is not SegmentRelation.SHARE_ENDPOINT_ONLY:
                    return False
            elif rel is not SegmentRelation.DISJOINT:
                return False
    return True


def _placement_unchecked(points: Sequence[Point], p: Point) -> Placement:
    m = len(points)
    for i in range(m):
        if on_closed_segment(p, points[i], points[(i + 1) % m]):
            return Placement.BOUNDARY
    px, py = p
    inside = False
    for i in range(m):
        a = points[i]
        b = points[(i + 1) % m]
        if (a[1] > py) != (b[1] > py):
            num = (a[0] - px) * (b[1] - a[1]) - (a[1] - py) * (b[0] - a[0])
            if (num > 0) == (b[1] - a[1] > 0):
                inside = not inside
    return Placement.INSIDE if inside else Placement.OUTSIDE


def point_vs_polygon(polygon: Sequence[Point], p: Point) -> Placement:
    """Exact placement of p relative to a simple polygon (closed boundary).

    Rejects non-simple polygons.  Points interior to a polygon edge count
    as BOUNDARY.
    """
    if not polygon_is_simple(polygon):
        raise ValueError("point_vs_polygon requires a simple polygon")
    return _placement_unchecked(polygon, p)


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Closed containment of p in triangle abc (degenerate triangles allowed)."""
    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    if d1 == 0 and d2 == 0 and d3 == 0:
        # Degenerate triangle: fall back to the segment hull of a, b, c.
        lo = min(a, b, c)
        hi = max(a, b, c)
        return on_closed_segment(p, lo, hi)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)
