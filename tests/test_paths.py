import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import (
    EnumerationOutcome,
    PointSet,
    convex_path_count,
    enumerate_ham_paths,
    enumerate_paths,
    gen_collinear,
    gen_convex,
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
    # One kernel serves the whole walk, as in a search, so a table entry
    # filled at one node is reused at the next.
    from noncross.paths import ConflictKernel, _extensions

    s = PointSet(pts)
    kernel = ConflictKernel(s)
    seq = ()
    for _ in range(s.n + 1):
        kids = _extensions(kernel, seq)
        assert kids == _naive_children(s, seq)
        if not kids:
            break
        seq = rnd.choice(kids)


@given(box_point_lists)
@settings(max_examples=60, deadline=None)
def test_kernel_tables_match_predicates_in_a_small_box(pts):
    from noncross.geom import SegmentRelation, on_open_segment, segment_relation
    from noncross.paths import ConflictKernel

    s = PointSet(pts)
    kernel = ConflictKernel(s)
    pts = s.points
    pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
    for i in range(s.n):
        for j in range(s.n):
            if i != j:
                blocked = any(on_open_segment(w, pts[i], pts[j]) for w in pts)
                assert (kernel.clear_segments(i) >> kernel.edge[i][j] & 1) == (not blocked)
    for i, j in pairs:
        for k, l in pairs:
            meet = segment_relation(pts[i], pts[j], pts[k], pts[l]) is not SegmentRelation.DISJOINT
            assert (kernel.row(kernel.edge[i][j]) >> kernel.edge[k][l] & 1) == meet
    # The conflict relation is symmetric; the path children rely on it.
    segments = range(len(pairs))
    for a in segments:
        for b in segments:
            assert (kernel.row(a) >> b & 1) == (kernel.row(b) >> a & 1)


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
    for pts in ([(0, 0), (1, 0), (2, 0), (1, 1)],
                [(0, 0), (2, 1), (4, 0), (2, 2)],
                [(0, 0), (1, 0), (2, 0), (3, 0)]):
        s = PointSet(pts)
        expected = set()
        for r in range(1, s.n + 1):
            for seq in itertools.permutations(range(s.n), r):
                if (len(seq) == 1 or seq[0] < seq[-1]) and is_noncrossing_path(s, seq):
                    expected.add(seq)
        emitted = []
        enumerate_paths(s, emitted.append)
        assert set(emitted) == expected


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
    # The state that fixes a subtree restricts the barred and blocked masks
    # to R, the segments with both ends among the unused points and the end
    # (see _path_children).  The key holds the masks whole, which must tell
    # apart exactly the same nodes: equal keys, equal states, and back.
    from noncross import FamilySpec
    from noncross.paths import path_tree, tree_search

    s = FamilySpec.from_string(spec).build()
    roots, children, emit, table = path_tree(s, ham=ham)
    key = table.key
    edge = children.args[0].edge
    states: dict = {}
    keys: dict = {}

    def check(node):
        seq, used, barred, blocked = node
        free = [v for v in range(s.n) if v not in seq[:-1]]
        live = sum(1 << edge[a][b] for a in free for b in free if a < b)
        unused = (1 << s.n) - 1 ^ used
        state = (unused & -(2 << seq[0]), unused, seq[-1], barred & live, blocked & live)
        assert states.setdefault(state, key(node)) == key(node), seq
        assert keys.setdefault(key(node), state) == state, seq
        return children(node)

    tree_search(roots, check, emit)
    assert len(states) == len(keys) > 1
