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
enumerator in the package shares.  Children of a node ending at p are generated from the
cached radial order of the remaining points around p: on each ray only the
nearest unused point can possibly extend the path (anything behind it would
pass straight through it), and each surviving candidate segment is then
checked exactly against the existing path.  A path with at least two
vertices is reported only when its start index is below its end index, so
each geometric path is reported exactly once; single-vertex paths are
reported once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .geom import (
    PointSet,
    SegmentRelation,
    on_open_segment,
    radial_order,
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


def _child_indices(s: PointSet, seq: PathSeq) -> list[int]:
    """Indices u such that seq + (u,) is a valid path sequence, ascending."""
    if not seq:
        return list(range(s.n))
    pts = s.points
    last = seq[-1]
    p_last = pts[last]
    candidates = []
    for group in radial_order(s, last):
        for u in group:
            if u not in seq:
                # Nearest unused point on this ray; any unused point behind
                # it would lie inside the candidate segment.  A *used*
                # blocker ahead of it is caught by the segment checks below.
                candidates.append(u)
                break
    if len(seq) == 1:
        candidates.sort()
        return candidates
    valid = []
    share = SegmentRelation.SHARE_ENDPOINT_ONLY
    disjoint = SegmentRelation.DISJOINT
    for u in candidates:
        pu = pts[u]
        ok = segment_relation(pts[seq[-2]], p_last, p_last, pu) is share
        if ok:
            for i in range(len(seq) - 2):
                if segment_relation(pts[seq[i]], pts[seq[i + 1]], p_last, pu) is not disjoint:
                    ok = False
                    break
        if ok:
            valid.append(u)
    valid.sort()
    return valid


def path_children(s: PointSet, seq: Sequence[int]) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order.

    The empty sequence has every single-vertex sequence as a child.  An
    invalid input sequence is rejected.
    """
    seq = _checked_sequence(s, seq)
    if not is_noncrossing_path(s, seq):
        raise ValueError(f"{seq} is not a valid non-crossing path sequence")
    return [seq + (u,) for u in _child_indices(s, seq)]


def path_tree(s: PointSet, ham: bool) -> tuple[list[PathSeq], Callable, Callable]:
    """Roots, children and emit filter of the path tree, for ``tree_search``.

    The roots are the single-vertex sequences in index order.  A path is
    emitted in the orientation whose start index is smaller; with ``ham``
    only the sequences using every point are emitted.
    """
    n = s.n

    def children(seq: PathSeq) -> list[PathSeq]:
        return [seq + (u,) for u in _child_indices(s, seq)]

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
