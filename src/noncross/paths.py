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
once, by a ``ConflictKernel`` built for that search, which keeps every
set of segments as a bit matrix indexed by their endpoints: for each
point, the mask of the points it sees along a clear segment, one with no
point of the set inside, and for each segment, the set of the segments it
is not disjoint from.  Each tree node carries its sequence, as a tuple or
as its text line, what it reports, its two end points and three masks:
the points used, its candidates (the far ends of the clear segments at
its end that are not its last segment and meet no segment before it), and
the OR of the conflict rows of all its segments.  Children of a node are
then the bits of one mask.  The search starts at the single vertices,
whose candidates are the points they see; every other node is made by the
one children function, from its parent's masks with a few mask operations
and one concatenation, and ``path_children`` walks down the same tree.  A path with at least two
vertices is reported only when its start index is below its end index, so
each geometric path is reported exactly once; single-vertex paths are
reported once each.

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

from math import gcd
from operator import itemgetter
from typing import Callable, Sequence, TypeVar

from .geom import (
    PointSet,
    SegmentRelation,
    _chain_is_simple,
    on_open_segment,
    segment_relation,
)

PathSeq = tuple[int, ...]
# (text, out, last, start, used, candidates, blocked); see path_tree.
PathNode = tuple[PathSeq | str, PathSeq | str | None, int, int, int, int, int]

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
    order, a ``children`` function giving a node's children in stack order,
    the last child first, so that they go onto the stack as they come, and
    an ``emit`` function that returns the structure a node stands for, or
    None when the node is not one.  A node may carry whatever state its
    children function reads, what it emits among it; only the structures
    reach ``sink``, in depth-first preorder.  At most ``budget`` nodes are visited; when
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
    close = _CLOSE
    opened = []
    count = nodes = 0
    stack = list(reversed(roots))
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is close:
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
        if key is None:
            push(children(node))
            continue
        k = key(node)
        hit = entries.get(k)
        if hit is not None and (budget is None or nodes + hit[1] <= budget):
            count += hit[0]
            nodes += hit[1]
            continue
        kids = children(node)
        if kids:
            opened.append((k, count, nodes))
            stack.append(close)
            push(kids)
    return EnumerationOutcome(count, nodes)


def _checked_sequence(s: PointSet, seq: Sequence[int], vertex: str, whole: str) -> PathSeq:
    """seq as a tuple; a bad or repeated index is a ValueError naming ``vertex`` or ``whole``."""
    seen = set()
    for i in seq:
        s.check_index(i, vertex)
        if i in seen:
            raise ValueError(f"repeated vertex {i} in {whole} {tuple(seq)}")
        seen.add(i)
    return tuple(seq)


def is_noncrossing_path(s: PointSet, seq: Sequence[int]) -> bool:
    """Validate a vertex sequence as a non-crossing path sequence.

    Empty and single-vertex sequences are valid.  Invalid or repeated
    indices are rejected with a ValueError; geometric violations (a skipped
    pass-through point, or any two segments meeting where they should not)
    return False.
    """
    seq = _checked_sequence(s, seq, "path vertex", "path sequence")
    pts = s.points
    chain = [pts[i] for i in seq]
    for a, b in zip(chain, chain[1:]):
        for w in pts:
            if w != a and w != b and on_open_segment(w, a, b):
                return False
    return _chain_is_simple(chain, closed=False)


class ConflictKernel:
    """Exact segment tables of one point set, built whole for one search.

    A set of segments is an int bit matrix of n rows of width W = n + 1:
    segment ij is the two bits ``W*i + j`` and ``W*j + i``, so row i of a
    set is the point mask of the other ends of its segments at i, every set
    is symmetric, and column n is empty.  ``bit[i][j]`` is the set of
    segment ij alone (0 when i = j), ``clear[i]`` the point mask of the j
    for which ij holds no point of the set in its open interior, and
    ``rows[i][j]``, the same int as ``rows[j][i]``, the set of the segments
    that are not DISJOINT from ij, which includes every segment sharing an
    endpoint with it, ij itself among them.  All three are plain lists,
    filled here from the exact predicates and never changed, so every node
    of a search gets the same answer the predicates would give.  "Not
    DISJOINT" is symmetric, so each pair of segments is decided once, for
    both rows: a shared endpoint by its indices, any other pair by one
    ``segment_relation`` call.  The kernel is not kept on the ``PointSet``:
    its tables live as long as the search that built them.
    """

    __slots__ = ("points", "bit", "clear", "rows")

    def __init__(self, s: PointSet) -> None:
        pts = self.points = s.points
        n = len(pts)
        width = n + 1
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        bit = self.bit = [[0] * n for _ in range(n)]
        for i, j in pairs:
            bit[i][j] = bit[j][i] = 1 << width * i + j | 1 << width * j + i
        self.clear = []
        for i, (xi, yi) in enumerate(pts):
            # The points on one ray from i share the primitive direction
            # (dx/g, dy/g); only the nearest one, with the smallest g, is clear.
            nearest: dict[tuple[int, int], tuple[int, int]] = {}
            for j, (x, y) in enumerate(pts):
                if j != i:
                    dx, dy = x - xi, y - yi
                    g = gcd(dx, dy)
                    ray = (dx // g, dy // g)
                    if ray not in nearest or g < nearest[ray][0]:
                        nearest[ray] = (g, j)
            self.clear.append(sum(1 << j for _, j in nearest.values()))
        rows = self.rows = [row[:] for row in bit]
        disjoint = SegmentRelation.DISJOINT
        for e, (i, j) in enumerate(pairs):
            a, b, ij, row = pts[i], pts[j], bit[i][j], rows[i][j]
            for k, l in pairs[:e]:
                # Segments with a common endpoint are never disjoint.
                if (k == i or k == j or l == i or l == j
                        or segment_relation(a, b, pts[k], pts[l]) is not disjoint):
                    row |= bit[k][l]
                    rows[k][l] |= ij
            rows[i][j] = row
        for i, j in pairs:
            rows[j][i] = rows[i][j]


def _path_children(kernel: ConflictKernel, ham: bool, lines: bool
                   ) -> Callable[[PathNode], Sequence[PathNode]]:
    """The children function of the path tree: a node's children, last first.

    Segment sets use the layout of ``ConflictKernel``, W = n + 1 bits a
    row.  seq + (u,) is valid when u is unused, the segment e from the last
    vertex to u is clear, and e meets none of the path's segments but the
    last.  The children are therefore the set bits of the node's
    ``candidates``, the point mask of the ends of the clear segments at the
    last vertex that are not its last segment and not in the conflict rows
    of the segments before it:
    - Symmetry.  ``rows[i][j]`` holds segment kl exactly when ``rows[k][l]``
      holds ij, since "not DISJOINT" is symmetric, so e meets a segment
      before the last exactly when e is in the OR of their rows.
    - Used points.  A segment from the end to a used point is the last one
      or shares that point with a segment before the last, so it is no
      candidate, and ``used`` picks no child.
    - Order.  The candidates are the children's end points, so their bits
      from high to low give the children in stack order, the child with
      the largest end first.
    - Last segment.  e is not tested against it: the two meet beyond their
      shared vertex only when one lies along the other, and then the far end
      of the shorter one lies inside the longer one, so the longer one is
      not clear.
    A child's candidates are ``clear[u]`` less row u of its parent's
    blocked mask and the last vertex, the far end of e, so a leaf returns
    at once, and it blocks its parent's blocked mask and ``rows[last][u]``.
    Its text is its parent's and ``,u`` (with ``lines``) or ``(u,)``, and
    it is emitted when start < u, with ``ham`` only at full length.

    With ``ham`` a valid child is also dropped when it fails the degree test
    of a Hamiltonian completion.  Let U be the points still unused after u.
    A point w of U can only join the rest of a completion along a usable
    segment: clear, from w to U or u, disjoint from every segment of seq,
    and disjoint from e unless it ends at u.  Each w has two neighbours in
    a completion but the one terminal, which has one, so a child is dropped
    when some w has no usable segment or two have just one.  A completion
    ends in U, and is emitted only when it ends above s, the start; a w
    with just one usable segment can only be that end.  So a child is also
    dropped when no point of U lies above s, or when a w with just one
    usable segment lies below it.  The tests are sound: a dropped child has
    no emitted Hamiltonian descendant, so pruning changes no emitted path.

    The degree test reads every w of U at once, in the layout of the
    blocked mask: ``packed``, the set of all clear segments, has row w
    equal to ``clear[w]``, and column n of every row is empty, a guard.
    In ``links = packed & ~blocked`` the row of every used point but a
    root's last vertex is empty: the point ends a segment of seq, whose row
    holds every segment at it.  A child's ``x = links & keep[last][u]``
    drops the rows of the last vertex and of u, and the row of e less
    column u, which leaves the usable segments of each w.  With ``rep`` the
    lowest bit of each row, ``t = (x | guard) - rep`` keeps the guards of
    the non-empty rows, and ``(x & t) + fill`` carries into those with two
    bits.

    The subtree below a node, up to the identity of its nodes, depends only
    on the state ``(U & above(s), U, last, candidates, blocked & R)``, where
    U is the set of unused points, ``above(s)`` the points of index above
    s, and R the segments with both ends in U + {last}.  A node's children
    and both masks of each child depend on the node only through
    ``candidates`` and ``blocked``:
    - Children.  They are the bits of ``candidates``, less those the degree
      test drops.
    - Child masks.  A child's R is inside R.  Its blocked mask is ``blocked
      | rows[last][u]``, which restricted to its R depends only on
      ``blocked & R`` and e.  Its candidates are ``clear[u]`` less row u of
      ``blocked`` and the last vertex: a clear segment from u to a used
      point v other than the last vertex shares v with a segment of seq, so
      it is in ``blocked`` whatever the rest of the mask, and every other
      segment at u is in R.
    - Degree test.  It reads, for w in U, row w of ``packed & ~blocked``
      and the row of e.  A segment from w to a used point v other than the
      last vertex shares v with a segment of seq, so it is in ``blocked``,
      and one to the last vertex is in the row of e; so only the segments
      in R are read, and ``blocked & R`` gives them.
    - Start.  Emission and the orientation rule compare s only with the
      points of U, and ``U & above(s)`` answers every such comparison.
    - Depth.  The depth is n - |U|, which the emission and the pruning read.
    By induction the whole subtree is fixed.  The segments outside R are
    those at a used point v other than the last vertex; such a v ends a
    segment of seq, so all of them are in ``blocked`` (a root has no such
    v).  So the key ``(U & above(s), U, last, candidates, blocked)`` tells
    apart exactly the nodes that the state does, and no node carries R.
    """
    n = len(kernel.points)
    rows, clear = kernel.rows, kernel.clear
    width = n + 1
    points = (1 << n) - 1
    ext = [",%d" % u if lines else (u,) for u in range(n)]
    if ham:
        # The degree test's rows and guard column; see above.
        rep = sum(1 << width * w for w in range(n))
        guard = rep << n
        fill = rep * points
        packed = sum(c << width * w for w, c in enumerate(clear))
        whole = [points << width * w for w in range(n)]
        keep = [[~(rows[i][u] & ~(rep << u) | whole[i] | whole[u]) for u in range(n)]
                for i in range(n)]
        below = [guard & ((1 << width * s) - 1) for s in range(n)]

    def children(node: PathNode) -> Sequence[PathNode]:
        text, _, last, start, used, candidates, blocked = node
        if not candidates:
            return ()
        at, free, away = rows[last], ~blocked, ~(1 << last)
        emits, prune = True, False
        if ham:
            unused = points ^ used
            emits = not unused & (unused - 1)  # u is the last unused point
            if not emits:
                prune = True
                later = unused & -(2 << start)  # the unused points above start
                need = unused.bit_count() - 1  # the rows of U, u not among them
                links = packed & free
                keeps = keep[last]
        kids = []
        while candidates:
            u = candidates.bit_length() - 1
            low = 1 << u
            candidates ^= low
            if prune:
                if not later & ~low:
                    continue
                x = links & keeps[u]
                t = (x | guard) - rep
                filled = t & guard
                if filled.bit_count() != need:
                    continue
                single = filled ^ ((x & t) + fill) & guard
                if single & (single - 1) or single & below[start]:
                    continue
            child = text + ext[u]
            kids.append((child, child if emits and start < u else None, u, start, used | low,
                         clear[u] & free >> width * u & away, blocked | at[u]))
        return kids

    return children


def path_tree(s: PointSet, ham: bool, lines: bool = False
              ) -> tuple[list[PathNode], Callable, Callable, SubtreeTable]:
    """Roots, children, emit and subtree table of the path tree, for ``tree_search``.

    A node is ``(text, out, last, start, used, candidates, blocked)``:
    ``text`` is the node's sequence seq, with ``lines`` joined by commas;
    ``out`` is text if the tree emits seq, else None; ``last`` and
    ``start`` are the end points of seq; ``used`` is the bitmask of its
    points; ``candidates`` the mask of the points seq may grow to, and
    ``blocked`` the OR of the conflict rows of its segments, a segment set
    of the kernel (see ``_path_children``).  The roots are the single
    vertices in index order, whose candidates are ``clear[i]`` and whose
    blocked mask is 0; every other node is made by ``_path_children``,
    which reads one ``ConflictKernel`` and gives the children last first.
    A path is emitted in the orientation whose start index is smaller; with
    ``ham`` only at full length (a root only when n is 1), and the children
    are only those that pass the degree test of a Hamiltonian completion
    and can still end above their start, while every root is kept (for
    n >= 3 the root n - 1 has no children).  ``emit`` reads ``out``.  The
    tree's ``SubtreeTable`` key packs into one int the state that fixes a
    node's subtree (see ``_path_children``), so a count adds repeated
    subtrees whole.
    """
    n = s.n
    kernel = ConflictKernel(s)
    points = (1 << n) - 1

    def key(node: PathNode) -> int:
        _, _, last, start, used, candidates, blocked = node
        unused = points ^ used
        return ((((blocked << n | candidates) << n | unused & -(2 << start)) << n
                 | unused) << n | last)

    emitted = not ham or n == 1
    roots = []
    for i in range(n):
        text = str(i) if lines else (i,)
        roots.append((text, text if emitted else None, i, i, 1 << i,
                      kernel.clear[i], 0))
    return roots, _path_children(kernel, ham, lines), itemgetter(1), SubtreeTable(key)


def path_children(s: PointSet, seq: Sequence[int]) -> list[PathSeq]:
    """All one-vertex extensions of a valid path sequence, in index order.

    An invalid input sequence is rejected.  The empty sequence's children
    are the path tree's roots; any other sequence is reached from the root
    of ``seq[0]`` through the children that end in its next vertices.
    """
    seq = tuple(seq)
    if not is_noncrossing_path(s, seq):
        raise ValueError(f"{seq} is not a valid non-crossing path sequence")
    roots, children, _, _ = path_tree(s, ham=False)
    if not seq:
        return [root[0] for root in roots]
    node = roots[seq[0]]
    for u in seq[1:]:
        node = next(kid for kid in children(node) if kid[2] == u)
    return [kid[0] for kid in reversed(children(node))]


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
