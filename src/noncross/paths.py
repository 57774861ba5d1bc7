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
last one.  Each tree node carries those masks beside its sequence: the
points used, the segments before the last one, the last segment, and the
OR of the conflict rows of all segments.  A child gets its own from its
parent's with a few mask operations, so no node rebuilds them from its
sequence.  A path with at least two vertices is reported only when its
start index is below its end index, so each geometric path is reported
exactly once; single-vertex paths are reported once each.

The Hamiltonian search walks a pruned subtree of the same tree: a child is
kept only when every unused point still has a usable segment to the rest of
a completion, and at most one of them (the future terminal) has just one.
A segment is usable only when it has no bit in the node's OR of conflict
rows.  A child is also dropped when every completion of it would end below
its start, and so be reported from the other end: when no unused point lies
above the start, or when the one point with a single usable segment, which
must be the end, lies below it.  Both tests are necessary conditions for an
emitted descendant, so a dropped child has none, and the emitted paths are
exactly those of the unpruned tree, in the same order; only the number of
nodes visited falls.  Every full-length node of the pruned tree is emitted.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from typing import Callable, Sequence, TypeVar

from .geom import (
    PointSet,
    SegmentRelation,
    on_open_segment,
    segment_relation,
)

PathSeq = tuple[int, ...]
# (seq, used, earlier, last_edge, blocked); see _path_node.
PathNode = tuple[PathSeq, int, int, int, int]

Sink = Callable[[PathSeq], None]

T = TypeVar("T")
S = TypeVar("S")


class EnumerationOutcome:
    """Summary of one enumeration run.

    ``count`` equals the number of structures handed to the sink.
    ``nodes_visited`` counts search-tree nodes actually expanded, which is
    the quantity budgets are charged against.  ``degenerate`` marks inputs
    for which the structure class is empty by definition (collinear sets
    for polygon enumeration).

    A plain class with value equality, not a dataclass: ``dataclasses``
    imports ``inspect``, which would add to the start-up of every
    ``count`` and ``enumerate`` process.  Mutable, hence unhashable.
    """

    __hash__ = None

    def __init__(self, count: int, nodes_visited: int, truncated: bool = False,
                 degenerate: bool = False) -> None:
        self.count = count
        self.nodes_visited = nodes_visited
        self.truncated = truncated
        self.degenerate = degenerate

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(count={self.count!r}, "
                f"nodes_visited={self.nodes_visited!r}, truncated={self.truncated!r}, "
                f"degenerate={self.degenerate!r})")

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "nodes_visited": self.nodes_visited,
            "truncated": self.truncated,
            "degenerate": self.degenerate,
        }


def tree_search(roots: Sequence[T], children: Callable[[T], Sequence[T]],
                emit: Callable[[T], S | None], sink: Callable[[S], None] | None = None,
                budget: int | None = None) -> EnumerationOutcome:
    """Depth-first walk of the trees below ``roots``; the one search driver.

    Every enumerator is a caller of this function: it supplies the roots in
    order, a ``children`` function giving a node's children in order, and
    an ``emit`` function that returns the structure a node stands for, or
    None when the node is not one.  A node may carry whatever state its
    children function reads; only the structures reach ``sink``, in
    depth-first preorder.  At most ``budget`` nodes are visited; when
    another node remains, the outcome is truncated.
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
        structure = emit(node)
        if structure is not None:
            count += 1
            if sink is not None:
                sink(structure)
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
    segment ij, ``clear_segments(i)`` the bitmask of those segments ij, and
    ``row(e)`` is the bitmask of the segments that are not DISJOINT from
    segment e, which includes every segment sharing an endpoint with it.
    All are filled on first use from the exact predicates and never change,
    so every node of a search gets the same answer the predicates would
    give.  The kernel is not kept on the ``PointSet``: its tables live as
    long as the search that filled them.
    """

    __slots__ = ("points", "edge", "_ends", "_clear", "_clear_segments", "_rows")

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
        self._clear_segments: list[int | None] = [None] * n
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

    def clear_segments(self, i: int) -> int:
        mask = self._clear_segments[i]
        if mask is None:
            edges_from_i = self.edge[i]
            points = self.clear(i)
            mask = 0
            while points:
                low = points & -points
                points ^= low
                mask |= 1 << edges_from_i[low.bit_length() - 1]
            self._clear_segments[i] = mask
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


def _path_node(kernel: ConflictKernel, seq: PathSeq) -> PathNode:
    """The tree node of a valid, nonempty sequence, with its masks built from it.

    A node is ``(seq, used, earlier, last_edge, blocked)``: the bitmask of
    the points of seq, the segment mask of all its segments but the last,
    the one-bit segment mask of the last segment (0 for a single vertex),
    and the OR of the conflict rows of all its segments.
    """
    edge = kernel.edge
    used = 1 << seq[0]
    earlier = last_edge = blocked = 0
    for a, b in zip(seq, seq[1:]):
        e = edge[a][b]
        used |= 1 << b
        earlier |= last_edge
        last_edge = 1 << e
        blocked |= kernel.row(e)
    return seq, used, earlier, last_edge, blocked


def _path_children(kernel: ConflictKernel, ham: bool, node: PathNode) -> list[PathNode]:
    """The children of a path node, in index order, each with its masks.

    seq + (u,) is valid when u is unused, the segment e from the last
    vertex to u is clear, and e meets none of the path's segments but the
    last.  That last segment needs no test: the two meet beyond their
    shared vertex only when one lies along the other, and then the far end
    of the shorter one lies inside the longer one, so the longer one is not
    clear.  A child's masks are its parent's with u, the parent's last
    segment and the row of e added.  The kernel's lazily filled lists are
    read directly, and filled through its methods on a miss.

    With ``ham`` a valid child is also dropped when it fails the degree test
    of a Hamiltonian completion.  Let U be the points still unused after u.
    A point w of U can only join the rest of a completion along a usable
    segment: clear, from w to U or u, disjoint from every segment of seq,
    and disjoint from e unless it ends at u.  Each w has two neighbours in
    a completion but the one terminal, which has one, so a child is dropped
    when some w has no usable segment or two have just one.  A completion
    ends in U, and is emitted only when it ends above s = seq[0]; a w with
    just one usable segment can only be that end.  So a child is also
    dropped when no point of U lies above s, or when a w with just one
    usable segment lies below it.  The tests are sound: a dropped child has
    no emitted Hamiltonian descendant, so pruning changes no emitted path.
    The masks that do not depend on u are computed once, at the first valid
    child.
    """
    seq, used, earlier, last_edge, blocked = node
    last = seq[-1]
    edge = kernel.edge
    rows = kernel._rows
    edges_from_last = edge[last]
    child_earlier = earlier | last_edge
    prune = ham and len(seq) + 1 < len(kernel.points)
    base = None
    kids = []
    candidates = kernel._clear[last]
    if candidates is None:
        candidates = kernel.clear(last)
    candidates &= ~used
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        u = low.bit_length() - 1
        e = edges_from_last[u]
        row = rows[e]
        if row is None:
            row = kernel.row(e)
        if row & earlier:
            continue
        if prune:
            if base is None:
                base = []
                unused = ~used & (1 << len(kernel.points)) - 1
                start = seq[0]
                later = unused & -(2 << start)  # the unused points above start
                while unused:
                    bit = unused & -unused
                    unused ^= bit
                    w = bit.bit_length() - 1
                    base.append((w, kernel.clear_segments(w) & ~blocked))
            if not later & ~low:
                continue
            usable = ~row
            edges_to_u = edge[u]
            single = dead = False
            for w, links in base:
                if w != u:
                    links &= usable | 1 << edges_to_u[w]
                    if not links & (links - 1):
                        if single or not links or w < start:
                            dead = True
                            break
                        single = True
            if dead:
                continue
        kids.append((seq + (u,), used | low, child_earlier, 1 << e, blocked | row))
    return kids


def _extensions(kernel: ConflictKernel, seq: PathSeq) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order."""
    if not seq:
        return [(i,) for i in range(len(kernel.points))]
    return [kid[0] for kid in _path_children(kernel, False, _path_node(kernel, seq))]


def path_children(s: PointSet, seq: Sequence[int]) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order.

    The empty sequence has every single-vertex sequence as a child.  An
    invalid input sequence is rejected.
    """
    seq = _checked_sequence(s, seq)
    if not is_noncrossing_path(s, seq):
        raise ValueError(f"{seq} is not a valid non-crossing path sequence")
    return _extensions(ConflictKernel(s), seq)


def path_tree(s: PointSet, ham: bool) -> tuple[list[PathNode], Callable, Callable]:
    """Roots, children and emit function of the path tree, for ``tree_search``.

    A node carries its sequence and the masks ``_path_children`` reads, so
    a child gets them from its parent with a few mask operations.  The
    roots are the single-vertex sequences in index order.  A path is
    emitted in the orientation whose start index is smaller; with ``ham``
    only the sequences using every point are emitted, and the children are
    only those that pass the degree test of a Hamiltonian completion and
    can still end above their start, while every root is kept (for n >= 3
    the root n - 1 has no children).  The children function reads one
    ``ConflictKernel``, whose tables fill as the search first needs them.
    """
    n = s.n
    kernel = ConflictKernel(s)

    if ham:
        def emit(node: PathNode) -> PathSeq | None:
            seq = node[0]
            return seq if len(seq) == n and (n == 1 or seq[0] < seq[-1]) else None
    else:
        def emit(node: PathNode) -> PathSeq | None:
            seq = node[0]
            return seq if len(seq) == 1 or seq[0] < seq[-1] else None

    roots = [_path_node(kernel, (i,)) for i in range(n)]
    return roots, partial(_path_children, kernel, ham), emit


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

    Walks the tree of ``enumerate_paths`` without the children that fail
    the degree test of a Hamiltonian completion or whose every completion
    would end below its start, and reports the sequences using all points
    whose start is below their end.  The paths and their order are those of
    the unpruned tree; ``nodes_visited`` and ``budget`` count the pruned
    tree's nodes.
    """
    return tree_search(*path_tree(s, ham=True), sink, budget)
