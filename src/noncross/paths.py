"""Backtracking enumeration of non-crossing paths and Hamiltonian paths.

A path is stored as its vertex sequence: a tuple of distinct point indices.
Valid sequences satisfy two conditions.  First, no point of the ground set
may sit in the open interior of a segment between consecutive vertices (a
point the curve passes straight through is a vertex and must appear in the
sequence at that position).  Second, the polygonal curve is simple: segments
meet only where consecutive segments share their common vertex.

All valid sequences form a tree rooted at the empty sequence, where the
parent of a sequence drops its last vertex.  ``enumerate_paths`` walks this
tree depth first with ``tree_search``, the search driver that every
enumerator in the package shares.  The geometric work of a search is done
once, by a ``ConflictKernel`` built for that search: for each point, the
bitmask of the points it sees along a clear segment, and for each segment,
the bitmask of the segments it is not disjoint from.  Children of a node
ending at p are then the unused points q that p sees clearly and whose
segment pq has no conflict bit with the path's segments other than the
last one.  A path with at least two vertices is reported only when its
start index is below its end index, so each geometric path is reported
exactly once; single-vertex paths are reported once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence, TypeVar

from .geom import (
    PointSet,
    SegmentRelation,
    on_open_segment,
    segment_relation,
)

PathSeq = tuple[int, ...]

Sink = Callable[[PathSeq], None]

T = TypeVar("T")


@dataclass
class EnumerationOutcome:
    """Summary of one enumeration run.

    ``count`` equals the number of structures handed to the sink.
    ``nodes_visited`` counts search-tree nodes actually expanded, which is
    the quantity budgets are charged against.  ``degenerate`` marks inputs
    for which the structure class is empty by definition (collinear sets
    for polygon enumeration).
    """

    count: int
    nodes_visited: int
    truncated: bool = False
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "nodes_visited": self.nodes_visited,
            "truncated": self.truncated,
            "degenerate": self.degenerate,
        }


def tree_search(roots: Sequence[T], children: Callable[[T], Sequence[T]],
                emit: Callable[[T], bool], sink: Callable[[T], None] | None = None,
                budget: int | None = None) -> EnumerationOutcome:
    """Depth-first walk of the trees below ``roots``; the one search driver.

    Every enumerator is a caller of this function: it supplies the roots in
    order, a ``children`` function giving a node's children in order, and
    an ``emit`` filter choosing the nodes that are structures.  Emitted
    nodes go to ``sink`` in depth-first preorder.  At most ``budget`` nodes
    are visited; when another node remains, the outcome is truncated.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    count = nodes = 0
    stack = list(reversed(roots))
    while stack:
        if nodes == budget:
            return EnumerationOutcome(count, nodes, truncated=True)
        node = stack.pop()
        nodes += 1
        if emit(node):
            count += 1
            if sink is not None:
                sink(node)
        stack.extend(reversed(children(node)))
    return EnumerationOutcome(count, nodes)


def _checked_sequence(s: PointSet, seq: Sequence[int]) -> PathSeq:
    seen = set()
    for i in seq:
        s.check_index(i, "path vertex")
        if i in seen:
            raise ValueError(f"repeated vertex {i} in path sequence {tuple(seq)}")
        seen.add(i)
    return tuple(seq)


def is_noncrossing_path(s: PointSet, seq: Sequence[int]) -> bool:
    """Validate a vertex sequence as a non-crossing path sequence.

    Empty and single-vertex sequences are valid.  Invalid or repeated
    indices are rejected with a ValueError; geometric violations (a skipped
    pass-through point, or any two segments meeting where they should not)
    return False.
    """
    seq = _checked_sequence(s, seq)
    k = len(seq)
    if k <= 1:
        return True
    pts = s.points
    seg = [(pts[seq[i]], pts[seq[i + 1]]) for i in range(k - 1)]
    for a, b in seg:
        for w in pts:
            if w != a and w != b and on_open_segment(w, a, b):
                return False
    for i in range(k - 1):
        a, b = seg[i]
        for j in range(i + 1, k - 1):
            c, d = seg[j]
            rel = segment_relation(a, b, c, d)
            if j == i + 1:
                if rel is not SegmentRelation.SHARE_ENDPOINT_ONLY:
                    return False
            elif rel is not SegmentRelation.DISJOINT:
                return False
    return True


class ConflictKernel:
    """Exact segment tables of one point set, built for one search.

    ``edge[i][j]`` is the id of the segment between points i and j; a set
    of segments is an int bitmask of their ids.  ``clear(i)`` is the
    bitmask of the points j such that no point of the set lies in the open
    segment ij, and ``row(e)`` is the bitmask of the segments that are not
    DISJOINT from segment e, which includes every segment sharing an
    endpoint with it.  Both are filled on first use from the exact
    predicates and never change, so every node of a search gets the same
    answer the predicates would give.  The kernel is not kept on the
    ``PointSet``: its tables live as long as the search that filled them.
    """

    __slots__ = ("points", "edge", "_ends", "_clear", "_rows")

    def __init__(self, s: PointSet) -> None:
        n = s.n
        self.points = s.points
        self.edge = [[-1] * n for _ in range(n)]
        self._ends: list[tuple[int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                self.edge[i][j] = self.edge[j][i] = len(self._ends)
                self._ends.append((i, j))
        self._clear: list[int | None] = [None] * n
        self._rows: list[int | None] = [None] * len(self._ends)

    def clear(self, i: int) -> int:
        mask = self._clear[i]
        if mask is None:
            # The points on one ray from i share the primitive direction
            # (dx/g, dy/g); only the nearest one, with the smallest g, is clear.
            xi, yi = self.points[i]
            nearest: dict[tuple[int, int], tuple[int, int]] = {}
            for j, (x, y) in enumerate(self.points):
                if j != i:
                    dx, dy = x - xi, y - yi
                    g = gcd(dx, dy)
                    ray = (dx // g, dy // g)
                    if ray not in nearest or g < nearest[ray][0]:
                        nearest[ray] = (g, j)
            mask = 0
            for _, j in nearest.values():
                mask |= 1 << j
            self._clear[i] = mask
        return mask

    def row(self, e: int) -> int:
        mask = self._rows[e]
        if mask is None:
            pts = self.points
            i, j = self._ends[e]
            a, b = pts[i], pts[j]
            disjoint = SegmentRelation.DISJOINT
            mask = 0
            for f, (k, l) in enumerate(self._ends):
                # Segments with a common endpoint are never disjoint.
                if (k == i or k == j or l == i or l == j
                        or segment_relation(a, b, pts[k], pts[l]) is not disjoint):
                    mask |= 1 << f
            self._rows[e] = mask
        return mask


def _extensions(kernel: ConflictKernel, seq: PathSeq) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order.

    seq + (u,) is valid when u is unused, the segment from the last vertex
    to u is clear, and it meets none of the path's segments but the last.
    That last segment needs no test: the two meet beyond their shared
    vertex only when one lies along the other, and then the far end of the
    shorter one lies inside the longer one, so the longer one is not clear.
    """
    if not seq:
        return [(i,) for i in range(len(kernel.points))]
    edge = kernel.edge
    used = 0
    for v in seq:
        used |= 1 << v
    earlier = 0
    for i in range(len(seq) - 2):
        earlier |= 1 << edge[seq[i]][seq[i + 1]]
    last = seq[-1]
    edges_from_last = edge[last]
    candidates = kernel.clear(last) & ~used
    children = []
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        u = low.bit_length() - 1
        if not kernel.row(edges_from_last[u]) & earlier:
            children.append(seq + (u,))
    return children


def path_children(s: PointSet, seq: Sequence[int]) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order.

    The empty sequence has every single-vertex sequence as a child.  An
    invalid input sequence is rejected.
    """
    seq = _checked_sequence(s, seq)
    if not is_noncrossing_path(s, seq):
        raise ValueError(f"{seq} is not a valid non-crossing path sequence")
    return _extensions(ConflictKernel(s), seq)


def path_tree(s: PointSet, ham: bool) -> tuple[list[PathSeq], Callable, Callable]:
    """Roots, children and emit filter of the path tree, for ``tree_search``.

    The roots are the single-vertex sequences in index order.  A path is
    emitted in the orientation whose start index is smaller; with ``ham``
    only the sequences using every point are emitted.  The children
    function reads one ``ConflictKernel``, whose tables fill as the search
    first needs them.
    """
    n = s.n
    kernel = ConflictKernel(s)

    def children(seq: PathSeq) -> list[PathSeq]:
        return _extensions(kernel, seq)

    def emit(seq: PathSeq) -> bool:
        if ham:
            return len(seq) == n and (n == 1 or seq[0] < seq[-1])
        return len(seq) == 1 or seq[0] < seq[-1]

    return [(i,) for i in range(n)], children, emit


def enumerate_paths(s: PointSet, sink: Sink | None = None,
                    budget: int | None = None) -> EnumerationOutcome:
    """Emit every non-crossing path of s exactly once.

    Single-vertex paths count (a path of length zero); longer paths are
    emitted in the orientation whose start index is smaller.  ``budget``
    bounds the number of tree nodes expanded; exceeding it yields a
    truncated outcome with a partial count.
    """
    return tree_search(*path_tree(s, ham=False), sink, budget)


def enumerate_ham_paths(s: PointSet, sink: Sink | None = None,
                        budget: int | None = None) -> EnumerationOutcome:
    """Emit every non-crossing Hamiltonian path of s exactly once.

    Walks the same tree as ``enumerate_paths`` and reports only the
    sequences using all points.
    """
    return tree_search(*path_tree(s, ham=True), sink, budget)
