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
bitmask of its clear segments, those with no point of the set inside, and
for each segment, the bitmask of the segments it is not disjoint from.
Each tree node carries three masks beside its sequence: the points used,
the segments it bars (its last segment and the conflict rows of the
segments before it), and the OR of the conflict rows of all its segments.
Children of a node ending at p are then the clear segments at p that it
does not bar, one mask.  A child gets its masks from its parent's with a
few mask operations, so no node rebuilds them from its sequence.  A path
with at least two vertices is reported only when its start index is below
its end index, so each geometric path is reported exactly once;
single-vertex paths are reported once each.

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

A count, a search without a sink, does not walk every node: the path tree
brings a ``SubtreeTable`` keyed by the state that fixes a node's subtree,
and the driver's one loop reads it only in a count, to add a repeated
subtree's count and node total in one step, from a table of bounded size.
The counts and node totals are those of the full walk.
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
# (seq, used, barred, blocked); see _path_node.
PathNode = tuple[PathSeq, int, int, int]

Sink = Callable[[PathSeq], None]

T = TypeVar("T")
S = TypeVar("S")

# The most subtrees a SubtreeTable holds.
_TABLE_ENTRIES = 1 << 16
# Marks, on a count's stack, the point where a keyed node's subtree is done.
_CLOSE = object()


class EnumerationOutcome:
    """Summary of one enumeration run.

    ``count`` equals the number of structures found (handed to the sink,
    when there is one).  ``nodes_visited`` counts the nodes of the search
    tree, not the nodes a run expanded, and budgets are charged against
    tree nodes: a count that adds a stored subtree whole adds all its
    nodes.  ``degenerate`` marks inputs for which the structure class is
    empty by definition (collinear sets, or fewer than 3 points, for
    polygon enumeration); ``tree_search`` sets it for a tree without roots.

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


class SubtreeTable:
    """The count and node total of stored subtrees, by key, for ``tree_search``.

    ``key`` maps a node of the tree to a value that fixes its subtree up to
    the identity of the nodes: two nodes with equal keys have as many
    descendants, and as many emitted ones.  ``entries`` maps a key to
    ``(count, total)`` of the descendants of a node with that key.  It
    holds at most ``_TABLE_ENTRIES`` subtrees, each of at least ``floor``
    descendants.  When it is full, the floor doubles and the subtrees below
    it are dropped, so the largest stay.  The floor starts at 1, so a leaf
    is never stored.  A table belongs to the one tree that brings it
    (``path_tree``): counts of that tree may share it, as a pool worker's
    counts do (the pool initializer builds a worker's tree once).
    """

    __slots__ = ("key", "entries", "floor")

    def __init__(self, key: Callable[[object], object]) -> None:
        self.key = key
        self.entries: dict = {}
        self.floor = 1


def tree_search(roots: Sequence[T] | None, children: Callable[[T], Sequence[T]],
                emit: Callable[[T], S | None], sink: Callable[[S], None] | None = None,
                budget: int | None = None, table: SubtreeTable | None = None
                ) -> EnumerationOutcome:
    """Depth-first walk of the trees below ``roots``; the one search driver.

    Every enumerator is a caller of this function: it supplies the roots in
    order, a ``children`` function giving a node's children in order, and
    an ``emit`` function that returns the structure a node stands for, or
    None when the node is not one.  A node may carry whatever state its
    children function reads; only the structures reach ``sink``, in
    depth-first preorder.  At most ``budget`` nodes are visited; when
    another node remains, the outcome is truncated.  ``roots`` None, as
    ``polygon_tree`` gives for a collinear set, marks a structure class that
    is empty by definition: no node is visited, neither function is called,
    and the outcome is degenerate.

    ``table`` is the tree's ``SubtreeTable``, if it has one.  Only a count
    reads it: with a ``sink`` every node is walked.  One loop serves both.
    Each pass pops a node and charges, emits and counts it; a count then
    looks the node's key up in the table and adds a stored subtree whole
    when it fits in what is left of the budget, or else descends and leaves
    ``_CLOSE`` under the children, whose pop stores the finished subtree's
    count and node total under the key.  A stored subtree that would
    overrun the budget is descended into, and the budget then runs out
    inside it, so the outcome is the plain walk's.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if roots is None:
        return EnumerationOutcome(0, 0, degenerate=True)
    key = entries = None
    if table is not None and sink is None:  # only a count adds stored subtrees
        key, entries = table.key, table.entries
    opened = []
    count = nodes = 0
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            k, count0, nodes0 = opened.pop()
            total = nodes - nodes0
            if total >= table.floor:
                while len(entries) >= _TABLE_ENTRIES:
                    table.floor *= 2
                    table.entries = entries = {
                        k2: hit for k2, hit in entries.items() if hit[1] >= table.floor}
                if total >= table.floor:
                    entries[k] = (count - count0, total)
            continue
        if nodes == budget:
            return EnumerationOutcome(count, nodes, truncated=True)
        nodes += 1
        structure = emit(node)
        if structure is not None:
            count += 1
            if sink is not None:
                sink(structure)
        if key is not None:
            k = key(node)
            hit = entries.get(k)
            if hit is not None and (budget is None or nodes + hit[1] <= budget):
                count += hit[0]
                nodes += hit[1]
                continue
        kids = children(node)
        if kids:
            if key is not None:
                opened.append((k, count, nodes))
                stack.append(_CLOSE)
            stack.extend(reversed(kids))
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
    of segments is an int bitmask of their ids.  Ids run row-major over
    i < j, so the ids of the segments at one point increase with their other
    endpoint.  ``clear_segments(i)`` is the bitmask of the segments ij whose
    open interior holds no point of the set, and ``row(e)`` is the bitmask
    of the segments that are not DISJOINT from segment e, which includes
    every segment sharing an endpoint with it.  Both are filled on first use
    from the exact predicates and never change, so every node of a search
    gets the same answer the predicates would give.  The kernel is not kept
    on the ``PointSet``: its tables live as long as the search that filled
    them.
    """

    __slots__ = ("points", "edge", "_ends", "_clear_segments", "_rows")

    def __init__(self, s: PointSet) -> None:
        n = s.n
        self.points = s.points
        self.edge = [[-1] * n for _ in range(n)]
        self._ends: list[tuple[int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                self.edge[i][j] = self.edge[j][i] = len(self._ends)
                self._ends.append((i, j))
        self._clear_segments: list[int | None] = [None] * n
        self._rows: list[int | None] = [None] * len(self._ends)

    def clear_segments(self, i: int) -> int:
        mask = self._clear_segments[i]
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
            edges_from_i = self.edge[i]
            mask = 0
            for _, j in nearest.values():
                mask |= 1 << edges_from_i[j]
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

    A node is ``(seq, used, barred, blocked)``: the bitmask of the points of
    seq; the segments seq bars, which are its last segment and every segment
    not disjoint from one of the segments before it (0 for a single vertex);
    and the OR of the conflict rows of all its segments.
    """
    edge = kernel.edge
    used = 1 << seq[0]
    barred = blocked = 0
    for a, b in zip(seq, seq[1:]):
        e = edge[a][b]
        used |= 1 << b
        barred = blocked | 1 << e
        blocked |= kernel.row(e)
    return seq, used, barred, blocked


def _path_children(kernel: ConflictKernel, ham: bool, node: PathNode) -> list[PathNode]:
    """The children of a path node, in index order, each with its masks.

    seq + (u,) is valid when u is unused, the segment e from the last
    vertex to u is clear, and e meets none of the path's segments but the
    last.  The children are therefore the set bits of the clear segments at
    the last vertex without the node's barred mask:
    - Symmetry.  ``row(e)`` has bit f exactly when ``row(f)`` has bit e,
      since "not DISJOINT" is symmetric, so e meets a segment before the
      last exactly when e is in the OR of their rows.
    - Used points.  In a path of three or more vertices, a segment from the
      end to a used point shares that point with a segment before the last,
      so it is barred.  In a path of two vertices the only such segment is
      the last one, whose bit is barred too.  So ``used`` picks no child.
    - Order.  The ids of the segments at one point increase with the other
      endpoint, so the bits in order give the children in index order.
    - Last segment.  e is not tested against it: the two meet beyond their
      shared vertex only when one lies along the other, and then the far end
      of the shorter one lies inside the longer one, so the longer one is
      not clear.
    A child bars its parent's blocked mask and e, and blocks that mask and
    the row of e.  The kernel's lazily filled lists are read directly, and
    filled through its methods on a miss.

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

    The subtree below a node, up to the identity of its nodes, depends only
    on the state ``(U & above(s), U, last, barred & R, blocked & R)``, where
    U is the set of unused points, ``above(s)`` the points of index above
    s, and R the segments with both ends in U + {last}:
    - Children.  A segment from the last vertex to a used point is barred
      (see Used points), so the children are ``clear_segments(last) & R &
      ~barred``, which ``barred & R`` fixes.
    - Child masks.  A child's R is inside R, and its masks are ``blocked |
      low`` and ``blocked | row(e)``; restricted to its R they depend only
      on ``blocked & R`` and e.  By induction the whole subtree is fixed.
    - Degree test.  It reads, for w in U, ``clear_segments(w) & ~blocked``
      and the row of e.  A segment from w to a used point v other than the
      last vertex shares v with a segment of seq, so it is in ``blocked``,
      and one to the last vertex is in the row of e; so only the segments
      in R are read, and ``blocked & R`` gives them.
    - Start.  Emission and the orientation rule compare s only with the
      points of U, and ``U & above(s)`` answers every such comparison.
    - Depth.  The depth is n - |U|, which the emission and ``prune`` read.
    The masks outside R are fixed by U and the last vertex, so the key may
    hold ``barred`` and ``blocked`` whole: the segments outside R are those
    at a used point v other than the last vertex.  Such a v ends a segment
    of seq, so all of them are in ``blocked``; and unless seq has just two
    vertices, v ends a segment before the last, so all of them are in
    ``barred`` too.  With two vertices ``barred`` is the one segment, from
    the used point that is not the last vertex.  So the key ``(U &
    above(s), U, last, barred, blocked)`` tells apart exactly the nodes
    that the state does, and no node carries R.
    """
    seq, used, barred, blocked = node
    last = seq[-1]
    edge = kernel.edge
    ends = kernel._ends
    rows = kernel._rows
    prune = ham and len(seq) + 1 < len(kernel.points)
    base = None
    kids = []
    candidates = kernel._clear_segments[last]
    if candidates is None:
        candidates = kernel.clear_segments(last)
    candidates &= ~barred
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        e = low.bit_length() - 1
        a, b = ends[e]
        u = a if b == last else b
        row = rows[e]
        if row is None:
            row = kernel.row(e)
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
            if not later & ~(1 << u):
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
        kids.append((seq + (u,), used | 1 << u, blocked | low, blocked | row))
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


def path_tree(s: PointSet, ham: bool
              ) -> tuple[list[PathNode], Callable, Callable, SubtreeTable]:
    """Roots, children, emit and subtree table of the path tree, for ``tree_search``.

    A node carries its sequence and the used, barred and blocked masks that
    ``_path_children`` reads, so a child gets them from its parent with a
    few mask operations, and a node's children are one mask.  The roots
    are the single-vertex sequences in index order.  A path is
    emitted in the orientation whose start index is smaller; with ``ham``
    only the sequences using every point are emitted, and the children are
    only those that pass the degree test of a Hamiltonian completion and
    can still end above their start, while every root is kept (for n >= 3
    the root n - 1 has no children).  The children function reads one
    ``ConflictKernel``, whose tables fill as the search first needs them.
    The tree brings its own ``SubtreeTable``, whose key packs into one int
    the state that fixes a node's subtree, as the ``_path_children``
    docstring shows, so a count adds repeated subtrees whole.
    """
    n = s.n
    kernel = ConflictKernel(s)
    m = len(kernel._ends)
    points = (1 << n) - 1

    if ham:
        def emit(node: PathNode) -> PathSeq | None:
            seq = node[0]
            return seq if len(seq) == n and (n == 1 or seq[0] < seq[-1]) else None
    else:
        def emit(node: PathNode) -> PathSeq | None:
            seq = node[0]
            return seq if len(seq) == 1 or seq[0] < seq[-1] else None

    def key(node: PathNode) -> int:
        seq, used, barred, blocked = node
        unused = points ^ used
        return ((((blocked << m | barred) << n | unused & -(2 << seq[0])) << n
                 | unused) << n | seq[-1])

    roots = [_path_node(kernel, (i,)) for i in range(n)]
    return roots, partial(_path_children, kernel, ham), emit, SubtreeTable(key)


def enumerate_paths(s: PointSet, sink: Sink | None = None,
                    budget: int | None = None) -> EnumerationOutcome:
    """Emit every non-crossing path of s exactly once.

    Single-vertex paths count (a path of length zero); longer paths are
    emitted in the orientation whose start index is smaller.  ``budget``
    bounds the number of tree nodes visited; exceeding it yields a
    truncated outcome with a partial count.  Without a sink the search
    counts, adding repeated subtrees whole.
    """
    roots, children, emit, table = path_tree(s, ham=False)
    return tree_search(roots, children, emit, sink, budget, table)


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
    roots, children, emit, table = path_tree(s, ham=True)
    return tree_search(roots, children, emit, sink, budget, table)
