import contextlib
import io
import itertools
import json
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import check_pockets
from test_tree_search import SHAPES, build

from noncross import (
    EnumerationOutcome,
    PointSet,
    brute_paths,
    convex_path_count,
    enumerate_ham_paths,
    enumerate_paths,
    gen_collinear,
    gen_convex,
    gen_grid,
    gen_one_sided,
    is_noncrossing_path,
    path_children,
)

coord = st.integers(min_value=-5, max_value=5)
point_lists = st.lists(st.tuples(coord, coord), min_size=1, max_size=7, unique=True)
# Sets in a 4x4 box: collinear runs, shared rays and touching segments abound.
box = st.integers(min_value=0, max_value=3)
box_point_lists = st.lists(st.tuples(box, box), min_size=1, max_size=9, unique=True)

COLLINEAR3 = PointSet([(0, 0), (1, 0), (2, 0)])
SQUARE = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])
SQUARE_CENTER = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])


def test_is_noncrossing_path_examples():
    assert is_noncrossing_path(COLLINEAR3, (0, 1, 2))
    # Skipping the middle point passes straight through it: invalid.
    assert not is_noncrossing_path(COLLINEAR3, (0, 2))
    # Bowtie: first and last segments cross.
    assert not is_noncrossing_path(SQUARE, (0, 2, 1, 3))
    assert is_noncrossing_path(SQUARE, (0, 1, 2, 3))
    assert is_noncrossing_path(SQUARE, ())
    assert is_noncrossing_path(SQUARE, (2,))


def test_is_noncrossing_path_rejects_bad_indices():
    with pytest.raises(ValueError):
        is_noncrossing_path(SQUARE, (0, 4))
    with pytest.raises(ValueError):
        is_noncrossing_path(SQUARE, (0, 1, 0))


def test_is_noncrossing_path_backtrack_and_touch():
    s = PointSet([(0, 0), (2, 0), (1, 1), (1, 0)])
    # 0 -> 1 passes straight through 3.
    assert not is_noncrossing_path(s, (0, 1))
    assert is_noncrossing_path(s, (0, 3, 1))
    # Vertex 3 of a later segment touching an earlier segment's interior.
    t = PointSet([(0, 0), (4, 0), (2, 3), (2, 0)])
    assert not is_noncrossing_path(t, (0, 1, 2, 3))


def test_path_children_examples():
    assert path_children(COLLINEAR3, (0,)) == [(0, 1)]
    assert path_children(COLLINEAR3, (1,)) == [(1, 0), (1, 2)]
    assert path_children(COLLINEAR3, ()) == [(0,), (1,), (2,)]
    convex4 = gen_convex(4)
    assert len(path_children(convex4, (0,))) == 3
    with pytest.raises(ValueError):
        path_children(COLLINEAR3, (0, 2))


def _naive_children(s, seq):
    out = []
    for u in range(s.n):
        if u not in seq and is_noncrossing_path(s, tuple(seq) + (u,)):
            out.append(tuple(seq) + (u,))
    return out


@given(point_lists, st.randoms())
@settings(max_examples=120, deadline=None)
def test_children_sound_and_complete(pts, rnd):
    # Walk a random valid sequence downward, comparing the generator with a
    # naive validity scan at every node.
    s = PointSet(pts)
    seq = ()
    for _ in range(s.n):
        fast = path_children(s, seq)
        assert fast == _naive_children(s, seq)
        for child in fast:
            assert is_noncrossing_path(s, child)
        if not fast:
            break
        seq = rnd.choice(fast)


@given(box_point_lists, st.randoms())
@settings(max_examples=150, deadline=None)
def test_kernel_children_match_naive_in_a_small_box(pts, rnd):
    # One tree, hence one kernel, serves the whole walk, as in a search.
    # The roots are the children of the empty sequence.
    from noncross.paths import path_tree

    s = PointSet(pts)
    roots, children, _, _ = path_tree(s, ham=False)
    assert [root[0] for root in roots] == _naive_children(s, ())
    node = rnd.choice(roots)
    for _ in range(s.n):
        kids = list(reversed(children(node)))
        assert [kid[0] for kid in kids] == _naive_children(s, node[0])
        if not kids:
            break
        node = rnd.choice(kids)


@given(box_point_lists)
@settings(max_examples=60, deadline=None)
def test_kernel_tables_match_predicates_in_a_small_box(pts):
    # A set that is not collinear has polygons, and its kernel pockets too.
    from noncross.geom import SegmentRelation, convex_hull, on_open_segment, segment_relation
    from noncross.paths import ConflictKernel
    from noncross.polygons import _PolygonKernel

    s = PointSet(pts)
    polygons = s.n >= 3 and not convex_hull(s).degenerate
    kernel = _PolygonKernel(s) if polygons else ConflictKernel(s)
    pts, n = s.points, s.n
    width = n + 1
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # A segment set is an n x (n + 1) bit matrix: segment ij is the bits
    # W*i + j and W*j + i, so every set is symmetric, with no bit on the
    # diagonal and none in the guard column n, which the degree test's
    # borrow and carry need empty.
    for i in range(n):
        for j in range(n):
            want = 1 << width * i + j | 1 << width * j + i if i != j else 0
            assert kernel.bit[i][j] == want

    def is_segment_set(mask):
        cells = {(i, j) for i in range(n) for j in range(width) if mask >> width * i + j & 1}
        return (mask >> width * n == 0 and all(j < n and i != j for i, j in cells)
                and cells == {(j, i) for i, j in cells})

    clear = sum(c << width * i for i, c in enumerate(kernel.clear))
    assert is_segment_set(clear)
    for i in range(n):
        assert 0 <= kernel.clear[i] < 1 << n
        for j in range(n):
            if i != j:
                blocked = any(on_open_segment(w, pts[i], pts[j]) for w in pts)
                assert (kernel.clear[i] >> j & 1) == (not blocked)
            assert kernel.rows[i][j] == kernel.rows[j][i]
            assert is_segment_set(kernel.rows[i][j])
    for i, j in pairs:
        for k, l in pairs:
            meet = segment_relation(pts[i], pts[j], pts[k], pts[l]) is not SegmentRelation.DISJOINT
            assert kernel.rows[i][j] & kernel.bit[k][l] == (kernel.bit[k][l] if meet else 0)
            # The conflict relation is symmetric; the path children rely on it.
            assert (kernel.rows[i][j] & kernel.bit[k][l] == 0) == (
                kernel.rows[k][l] & kernel.bit[i][j] == 0)
    if polygons:
        check_pockets(s, kernel)


def _check_ham_pruning(s):
    # Walk the pruned ham tree; every child it drops must have no emitted
    # Hamiltonian path, one of full length whose start is below its end,
    # anywhere in its unpruned subtree.
    from noncross.paths import path_tree, tree_search

    roots, pruned, emit, _ = path_tree(s, ham=True)
    _, unpruned, _, _ = path_tree(s, ham=False)

    def emitted(node):
        seq = node[0]
        return seq if len(seq) == s.n and (s.n == 1 or seq[0] < seq[-1]) else None

    def children(node):
        kept = pruned(node)
        kept_seqs = [c[0] for c in kept]
        dropped = [c for c in unpruned(node) if c[0] not in kept_seqs]
        assert tree_search(dropped, unpruned, emitted).count == 0, (s.points, node[0])
        return kept

    hams = []
    tree_search(roots, children, emit, hams.append)
    paths = []
    enumerate_paths(s, paths.append)
    assert hams == [p for p in paths if len(p) == s.n]
    found = []
    enumerate_ham_paths(s, found.append)
    assert found == hams


@given(st.lists(st.tuples(box, box), min_size=1, max_size=7, unique=True))
@settings(max_examples=150, deadline=None)
def test_ham_pruning_is_sound_in_a_small_box(pts):
    _check_ham_pruning(PointSet(pts))


@pytest.mark.parametrize("spec", ["collinear:5", "grid:3x3", "one_sided:4,3", "pseudotriangle:6",
                                  "square_center", "random:8,3,3"])
def test_ham_pruning_is_sound_on_families(spec):
    from noncross import FamilySpec

    s = SQUARE_CENTER if spec == "square_center" else FamilySpec.from_string(spec).build()
    _check_ham_pruning(s)


def _reference_keeps(kernel, node, u):
    # The degree test written per point, as a loop over the unused points:
    # the packed test of the ham tree must keep exactly these children.
    _, _, last, start, used, _, blocked = node
    n = len(kernel.points)
    unused = ((1 << n) - 1) ^ used
    if not unused & (unused - 1):  # u is the last unused point
        return True
    if not unused & -(2 << start) & ~(1 << u):
        return False
    row = kernel.rows[last][u]
    single = False
    for w in range(n):
        if unused >> w & 1 and w != u:
            # The usable segments wx: clear, outside blocked, and disjoint
            # from the new segment unless x is u.
            links = [x for x in range(n) if kernel.clear[w] >> x & 1
                     and not blocked & kernel.bit[w][x] and (x == u or not row & kernel.bit[w][x])]
            if len(links) < 2:
                if single or not links or w < start:
                    return False
                single = True
    return True


def _check_packed_degree_test(s):
    # At every node of the ham tree, its children are the valid children
    # that the per-point test keeps, and every used point but a root's last
    # vertex has no clear segment outside the blocked mask, so its row in
    # the packed test is empty.
    from noncross.paths import ConflictKernel, path_tree, tree_search

    kernel = ConflictKernel(s)
    roots, ham, emit, _ = path_tree(s, ham=True)
    _, valid, _, _ = path_tree(s, ham=False)

    def children(node):
        seq, _, last, start, used, _, blocked = node
        for v in range(s.n):
            if used >> v & 1 and (v != last or len(seq) > 1):
                assert not kernel.clear[v] & ~(blocked >> (s.n + 1) * v), (s.points, seq, v)
        kids = ham(node)
        kept = [kid for kid in valid(node) if _reference_keeps(kernel, node, kid[2])]
        assert [(kid[0], *kid[2:]) for kid in kids] == [(kid[0], *kid[2:]) for kid in kept]
        for kid in kids:
            full = len(kid[0]) == s.n
            assert kid[1] == (kid[0] if full and start < kid[2] else None)
        return kids

    walked = tree_search(roots, children, emit)
    assert walked == enumerate_ham_paths(s)


@given(box_point_lists)
@settings(max_examples=100, deadline=None)
def test_packed_degree_test_matches_the_per_point_test_in_a_small_box(pts):
    _check_packed_degree_test(PointSet(pts))


@pytest.mark.parametrize("spec", ["convex:9", "grid:3x3", "random:9,2,4", "random:9,4,5",
                                  "one_sided:4,3", "collinear:5", "convex:12", "grid:3x4",
                                  "random:11,7,6"])
def test_packed_degree_test_matches_the_per_point_test_on_families(spec):
    from noncross import FamilySpec

    _check_packed_degree_test(FamilySpec.from_string(spec).build())


def test_parent_of_valid_sequence_is_valid():
    for s in (SQUARE_CENTER, gen_convex(5), COLLINEAR3):
        stack = [()]
        while stack:
            seq = stack.pop()
            if seq:
                assert is_noncrossing_path(s, seq[:-1])
            if len(seq) < s.n:
                stack.extend(path_children(s, seq))


def test_enumerate_paths_counts():
    assert enumerate_paths(gen_convex(4)).count == 30
    assert enumerate_paths(COLLINEAR3).count == 6
    assert enumerate_paths(PointSet([(3, 7)])).count == 1
    assert enumerate_paths(PointSet([])).count == 0
    for n in range(1, 7):
        assert enumerate_paths(gen_convex(n)).count == convex_path_count(n)


def test_enumerate_ham_counts():
    assert enumerate_ham_paths(gen_convex(5)).count == 20
    assert enumerate_ham_paths(gen_collinear(6)).count == 1
    # Exhaustively derived reference value for the square-plus-center set.
    assert enumerate_ham_paths(SQUARE_CENTER).count == 24


def test_emission_rule():
    emitted = []
    enumerate_paths(SQUARE, emitted.append)
    singles = [p for p in emitted if len(p) == 1]
    longer = [p for p in emitted if len(p) > 1]
    assert sorted(singles) == [(0,), (1,), (2,), (3,)]
    assert all(p[0] < p[-1] for p in longer)
    assert len(set(emitted)) == len(emitted)
    hams = []
    enumerate_ham_paths(SQUARE, hams.append)
    assert hams == [p for p in emitted if len(p) == 4]


def test_budget_truncation():
    full = enumerate_paths(gen_convex(5))
    out = enumerate_paths(gen_convex(5), budget=10)
    assert out.truncated and out.nodes_visited == 10 and out.count <= full.count
    zero = enumerate_paths(gen_convex(5), budget=0)
    assert zero.truncated and zero.count == 0
    assert not full.truncated
    with pytest.raises(ValueError):
        enumerate_paths(gen_convex(4), budget=-1)


def _path_count_outcomes(s):
    """(count, nodes_visited) of a walk, a count, and the three CLI summaries of paths on s."""
    outcomes = [(out.count, out.nodes_visited)
                for out in (enumerate_paths(s, lambda seq: None), enumerate_paths(s))]
    from noncross import cli

    data = "".join(f"{x} {y}\n" for x, y in s.points).encode()
    real = sys.stdin
    try:
        for argv in (["count", "paths"], ["count", "paths", "--format", "json"],
                     ["enumerate", "paths"]):
            sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([*argv, "--input", "-"]) == 0
            last = out.getvalue().splitlines()[-1]
            if last.startswith("{"):
                summary = json.loads(last)
                outcomes.append((summary["count"], summary["nodes_visited"]))
            else:
                summary = re.search(r"count=(\d+) nodes_visited=(\d+) ", last)
                outcomes.append((int(summary[1]), int(summary[2])))
    finally:
        sys.stdin = real
    return outcomes


def _check_path_count_identity(s):
    # Every sequence of two or more vertices is a tree node in both
    # orientations and is emitted in one; each single vertex is a node
    # emitted once.  So an untruncated run has 2 count = nodes + n.
    outcomes = _path_count_outcomes(s)
    assert len(set(outcomes)) == 1, outcomes
    count, nodes = outcomes[0]
    assert 2 * count == nodes + s.n, (s.points, count, nodes)


@pytest.mark.parametrize("instance", sorted({r[1] for r in SHAPES if r[0] == "paths"}))
def test_path_count_identity(instance):
    _check_path_count_identity(build(instance))


@given(box_point_lists)
@settings(max_examples=40, deadline=None)
def test_path_count_identity_in_a_small_box(pts):
    _check_path_count_identity(PointSet(pts))


def test_deterministic_emission():
    runs = []
    for _ in range(2):
        emitted = []
        enumerate_paths(SQUARE_CENTER, emitted.append)
        runs.append(emitted)
    assert runs[0] == runs[1]


@pytest.mark.slow
def test_count_memory_is_bounded_by_the_table():
    # A count stores subtrees by key, not nodes, and at most _TABLE_ENTRIES
    # of them.  convex:13 paths has 3 454 373 tree nodes and 131 085 stored
    # subtrees without the bound (a traced peak of 18.7 MB), so the table
    # fills and its floor doubles, and the peak stays at what the bounded
    # table holds (13.0 MB).  Like the polygon search's depth bound, this
    # keeps memory independent of the output size.
    import tracemalloc

    from noncross.paths import _TABLE_ENTRIES, path_tree, tree_search

    roots, children, emit, table = path_tree(gen_convex(13), ham=False)
    tracemalloc.start()
    try:
        outcome = tree_search(roots, children, emit, None, None, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Every path of two or more vertices is a node under each of its ends.
    count = convex_path_count(13)
    assert (outcome.count, outcome.nodes_visited) == (count, 2 * count - 13)
    assert table.floor > 1
    assert 0 < len(table.entries) <= _TABLE_ENTRIES
    assert peak < 16 * 2**20, peak


def test_start_restriction_partitions_the_tree(monkeypatch):
    import noncross.paths as paths_mod
    from noncross import FamilySpec
    from noncross.paths import SubtreeTable, path_tree, tree_search

    s = gen_convex(5)
    whole = enumerate_paths(s)
    roots, children, emit, _ = path_tree(s, ham=False)
    split_count = split_nodes = 0
    for root in roots:
        out = tree_search([root], children, emit)
        split_count += out.count
        split_nodes += out.nodes_visited
    assert split_count == whole.count
    assert split_nodes == whole.nodes_visited

    # A --parallel pool worker counts its roots with the tree's key and one
    # table for all of them, so a later root adds subtrees an earlier one
    # stored.  The sums are still the whole tree's, with any table size.
    def split(s, ham, shared):
        roots, children, emit, table = path_tree(s, ham)
        expanded = []

        def counted(node):
            expanded.append(node)
            return children(node)

        outs = [tree_search([root], counted, emit,
                            table=table if shared else SubtreeTable(table.key))
                for root in roots]
        return (sum(out.count for out in outs), sum(out.nodes_visited for out in outs),
                len(expanded))

    for spec in ("convex:5", "grid:3x3"):
        s = FamilySpec.from_string(spec).build()
        for ham in (False, True):
            whole = tree_search(*path_tree(s, ham)[:3])
            for entries in (None, 64):
                with monkeypatch.context() as m:
                    if entries is not None:
                        m.setattr(paths_mod, "_TABLE_ENTRIES", entries)
                    count, nodes, _ = split(s, ham, shared=True)
                assert (count, nodes) == (whole.count, whole.nodes_visited), (spec, ham, entries)
    # The shared table is hit: with one table per root, more nodes are expanded.
    grid = FamilySpec.from_string("grid:3x3").build()
    assert split(grid, False, shared=True)[2] < split(grid, False, shared=False)[2]


def test_path_count_floor_property(family_instances):
    # Any set has all single-vertex paths plus every pair on its best line.
    from noncross.params import max_collinear

    for s in family_instances.values():
        mc = max_collinear(s).size
        count = enumerate_paths(s).count
        assert count >= s.n + mc * (mc - 1) // 2


@given(point_lists)
@settings(max_examples=50, deadline=None)
def test_paths_superset_of_hams(pts):
    s = PointSet(pts)
    paths = []
    enumerate_paths(s, paths.append)
    hams = []
    enumerate_ham_paths(s, hams.append)
    assert set(hams) <= set(paths)
    assert all(len(h) == s.n for h in hams)


def test_concurrent_use_of_shared_point_set():
    # Per-set caches (hull, radial orders) must tolerate concurrent readers.
    import concurrent.futures

    s = gen_convex(7)
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        counts = list(pool.map(lambda _: enumerate_ham_paths(s).count, range(8)))
    assert counts == [enumerate_ham_paths(s).count] * 8


def test_exhaustive_filter_agreement_tiny():
    # Definitional check on very small sets: filtering every vertex
    # sequence through the validator gives exactly the enumerator output.
    # The oracle grows paths on its own predicates, not the validator.
    for s in (PointSet([(0, 0), (1, 0), (2, 0), (1, 1)]),
              PointSet([(0, 0), (2, 1), (4, 0), (2, 2)]),
              PointSet([(0, 0), (1, 0), (2, 0), (3, 0)]),
              gen_grid(2, 3), gen_one_sided(3, 2)):
        expected = set()
        for r in range(1, s.n + 1):
            for seq in itertools.permutations(range(s.n), r):
                if (len(seq) == 1 or seq[0] < seq[-1]) and is_noncrossing_path(s, seq):
                    expected.add(seq)
        emitted = []
        enumerate_paths(s, emitted.append)
        assert set(emitted) == expected
        assert sorted(expected) == brute_paths(s)[1]


def test_enumeration_outcome_contract():
    outcome = EnumerationOutcome(3, 7)
    assert (outcome.count, outcome.nodes_visited) == (3, 7)
    assert outcome.truncated is False and outcome.degenerate is False
    assert EnumerationOutcome(count=3, nodes_visited=7, truncated=False,
                              degenerate=False) == outcome
    for changed in (EnumerationOutcome(4, 7), EnumerationOutcome(3, 8),
                    EnumerationOutcome(3, 7, truncated=True),
                    EnumerationOutcome(3, 7, degenerate=True)):
        assert changed != outcome and not changed == outcome
    assert outcome != (3, 7, False, False)
    assert outcome != {"count": 3, "nodes_visited": 7, "truncated": False,
                       "degenerate": False}
    assert repr(EnumerationOutcome(3, 7, degenerate=True)) == (
        "EnumerationOutcome(count=3, nodes_visited=7, truncated=False, degenerate=True)")
    assert list(EnumerationOutcome(3, 7, True).to_json_dict().items()) == [
        ("count", 3), ("nodes_visited", 7), ("truncated", True), ("degenerate", False)]
    # Pool workers send outcomes back through pickling.
    copy = pickle.loads(pickle.dumps(EnumerationOutcome(5, 9, True, True)))
    assert type(copy) is EnumerationOutcome and copy == EnumerationOutcome(5, 9, True, True)
    with pytest.raises(TypeError):
        hash(outcome)


@pytest.mark.parametrize("spec", ["grid:3x3", "random:9,4,5", "one_sided:4,3", "collinear:6"])
@pytest.mark.parametrize("ham", [False, True])
def test_path_key_tells_apart_the_nodes_the_state_does(spec, ham):
    # The state that fixes a subtree holds the candidates and restricts the
    # blocked mask to R, the segments with both ends among the unused points
    # and the end (see _path_children).  The key holds the masks whole, which
    # must tell apart exactly the same nodes: equal keys, equal states, and
    # back.
    from noncross import FamilySpec
    from noncross.paths import ConflictKernel, path_tree, tree_search

    s = FamilySpec.from_string(spec).build()
    roots, children, emit, table = path_tree(s, ham=ham)
    key = table.key
    bit = ConflictKernel(s).bit
    states: dict = {}
    keys: dict = {}

    def check(node):
        seq, _, last, start, used, candidates, blocked = node
        free = [v for v in range(s.n) if v not in seq[:-1]]
        live = sum(bit[a][b] for a in free for b in free if a < b)
        unused = (1 << s.n) - 1 ^ used
        state = (unused & -(2 << start), unused, last, candidates, blocked & live)
        assert states.setdefault(state, key(node)) == key(node), seq
        assert keys.setdefault(key(node), state) == state, seq
        return children(node)

    tree_search(roots, check, emit)
    assert len(states) == len(keys) > 1
