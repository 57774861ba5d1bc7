"""The shape of every search tree, pinned: the shared driver must reproduce it exactly.

Each row gives the count, nodes_visited and SHA-256 of the emitted stream
(one comma-separated index row per structure, newline terminated) for one
enumerator on one instance, optionally under a node budget.  The rows were
recorded from the enumerators as they were before they shared
``tree_search``, so a change to child order, emission rule or budget
accounting shows up here even when the counts agree.  The ``ham`` rows are
the one deliberate exception: the ham tree drops the children that fail the
degree test of a Hamiltonian completion, and those whose every completion
would end below its start and so be reported from the other end.  Their
nodes_visited (and the count and stream of the budget-truncated row) were
recorded again with each pruning, while count and stream of every full ham
row are those of the unpruned tree.  The deeper polygon rows, on
``grid:3x4`` and ``random:10,4,5``, were recorded later from the polygon
search that tried every insertion, before it skipped any.  The rows on
``pseudotriangle:12``, ``random:12,3,6``, ``random:11,7,6`` and ``grid:3x5``
(whose hull edges run through points) were recorded from the polygon search
that tested each insertion's new edges against the conflict rows of the
host edges one candidate at a time, before it tested them one host edge at
a time from a mask of the whole polygon.
"""

import hashlib
import itertools

import pytest
from helpers import emitting, walk_made
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import (
    FamilySpec,
    PointSet,
    enumerate_ham_paths,
    enumerate_paths,
    enumerate_polygonalizations,
    enumerate_surrounding,
)
from noncross.construct import vv_tree
from noncross.paths import path_tree, tree_search

ENUMERATORS = {
    "paths": enumerate_paths,
    "ham": enumerate_ham_paths,
    "surround": enumerate_surrounding,
    "poly": enumerate_polygonalizations,
    "vv": lambda s, sink, budget: tree_search(*vv_tree(s), sink, budget),
}

# (kind, instance, budget, count, nodes_visited, sha256 of the stream)
SHAPES = [
    ('paths', 'collinear:5', None, 15, 25, 'c30a8d0fe74eeb905902b5a53422456939b33de9e32a83eae2f9238bfece65a4'),
    ('paths', 'grid:3x3', None, 9097, 18185, '83042b697573baaf8d974c67413498122f7161740d14ef10721fa794b4b56635'),
    ('paths', 'one_sided:4,3', None, 1069, 2131, '2de08ea842d7aebf4e3fc6b3a3028633cbaf4b333a520fd2d0cf78101499424e'),
    ('paths', 'pseudotriangle:6', None, 681, 1356, '30bfddcf923ebe94989b0a675871b434045829c7d5581fe1948f4e324f634106'),
    ('paths', 'square_center', None, 83, 161, '8ace28eb4472428be6ca708e0858e75b521dcf5c84591d3481893b6d09091d46'),
    ('paths', 'random:8,3,3', None, 3425, 6842, '02a5bb3c1dc3bc7b21a82094d3941e983f90dec7c8b77467b2baa7a3a10693d9'),
    ('ham', 'collinear:5', None, 1, 9, 'faa8b4f3f836f235b8c687ef5a8d0ad9f3bd3ceed96bd9e691e04aa39cc23061'),
    ('ham', 'grid:3x3', None, 464, 2400, 'f65945166dcc4e8dcec3c7489b9ede0ae3aac1249e1ff7b189b85212a30f20dd'),
    ('ham', 'one_sided:4,3', None, 130, 532, '838e47c6c367bdb0c58161a80d5be8ae7d9c60a773b87c551de51c909b3f503f'),
    ('ham', 'pseudotriangle:6', None, 180, 590, '7119528797a3c934871d40e43e48a5b213e1eb040cef001ee334a6b923203118'),
    ('ham', 'square_center', None, 24, 81, '87dc7703295ce3cc9d3ba3a0ca783c41596af83cc7bb3167c40321b8c9abae56'),
    ('ham', 'random:8,3,3', None, 268, 1352, '1dee5b9fac5e48b3ea1c576fa865c45186f7f13998fa2cc87c9dc0edcabd6441'),
    ('surround', 'collinear:5', None, 0, 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('surround', 'grid:3x3', None, 80, 80, '8124724d4acdc6f3b1419fb2444430c4fda16d07eed71d0dafd9455708160aac'),
    ('surround', 'one_sided:4,3', None, 21, 21, '647458f50aa7d2f868e743da9da33d9e8690b1558b662c08e04687d74dd7ec2a'),
    ('surround', 'pseudotriangle:6', None, 40, 40, '125a9397277019061d93efd398340c69181058a8264a8c3e2d881e6fc90f0da3'),
    ('surround', 'square_center', None, 5, 5, 'd9d222cc527b32165a8428329985928bc39b794a9b11d61c664e34adbd0f6f6d'),
    ('surround', 'random:8,3,3', None, 25, 25, '6ddb850afe70366e0de255afa0a73f9307f0ea36a2e1d56251c4af1cd4d07181'),
    ('surround', 'grid:3x4', None, 1608, 1608, '99421f0668eccb07ec112cfd070edbceac7e4af63dbd5abf00d8b722eb7cf4ae'),
    ('surround', 'random:10,4,5', None, 1000, 1000, '66a02186173f3274dd9ab28598dc4de4a56ce1907464c03cdd3b5bb3f15772c1'),
    ('poly', 'collinear:5', None, 0, 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('poly', 'grid:3x3', None, 8, 80, 'ae137149cc10bce4ff5742993fe9c8ae91c05f6a857806782405fe557d1e6d93'),
    ('poly', 'one_sided:4,3', None, 6, 21, '9bbd7cf1450a7460c3f72264d38dd3d10f3fff27be4a2acd42ea5a6646e95166'),
    ('poly', 'pseudotriangle:6', None, 20, 40, '8a17366c8add794c7a5408b7b197db137b76a352535c75653a08b1a6d4ecd04e'),
    ('poly', 'square_center', None, 4, 5, 'b07210e01cd67ed45cd08a34ed88467475e71e452bfab209c8c669198b7491f3'),
    ('poly', 'random:8,3,3', None, 7, 25, '1d4f28696eceb13743921c5b480589467eaf330f8c92a700cdc37702aea2b287'),
    ('poly', 'grid:3x4', None, 62, 1608, '0e28118d392555a196c4b891bb08e77d855e61e01ea4df3507c00000dad256f2'),
    ('poly', 'random:10,4,5', None, 355, 1000, '4deedb29390cdcbfacd5492dbdbea7546a2cde8db234c4b26666ce06ae4eef9f'),
    ('vv', 'collinear:5', None, 2, 10, '4578a81e2e2187728bee8691715463cd4bddfd75d399c38c9deb6f5d008da0d5'),
    ('vv', 'grid:3x3', None, 416, 1340, 'c0babcc703d8bde6b0d8302b01474e858e90082047f11321d8f89d10efa8c97b'),
    ('vv', 'one_sided:4,3', None, 152, 476, '226deb98bd63c0495c2e2f3e985dcde3ff70907d3e52c50363d2882674ee1cf3'),
    ('vv', 'pseudotriangle:6', None, 144, 404, '03caf3acc07b5ca5a3d57ab98e099506e21274cd8d8cd13eed5ca23f6fcacc4e'),
    ('vv', 'square_center', None, 32, 92, 'a3f816b378c9e91e794f89b853517f010b9b394cb037162af0eadf45276f7b03'),
    ('vv', 'random:8,3,3', None, 312, 984, '9a3f3a2a2f687c4170b306909d793c266c92472375e18be1a03281370409acb5'),
    ('paths', 'random:8,3,3', 4000, 2958, 4000, 'edd9479033dfee77315ade1bd3a9794dda00cbe7ef9e35dadc513f9806db5963'),
    ('ham', 'random:8,3,3', 700, 146, 700, '11b9a5877486b7f749e4e934d9c56a5b96bb75919c1f3a84795c9987ee8ac2c6'),
    ('surround', 'pseudotriangle:6', 17, 17, 17, 'e04b337693ed7ece71a929d609cd44488e8938a88f88d85d6cc1eabdc161ab11'),
    ('poly', 'grid:3x3', 60, 6, 60, 'b0848102cb096b3af5681653db09a19c3b271f04d874700e337f66ab82520245'),
    ('vv', 'one_sided:4,3', 30, 10, 30, '1c50656ef4b9ef057b4212cdc09205fe63f7f5cb6d61f470b79ff3a7e33073b7'),
    ('surround', 'pseudotriangle:12', None, 24110, 24110, 'b7c4d59b60af7be920cff986e57267587f44e032d81f9bae2940ced6e59d09ce'),
    ('poly', 'pseudotriangle:12', None, 2816, 24110, 'd0fb432b82c8716ce9539f405fd2e7c3b53a989150fbae38a8c405888c54c724'),
    ('surround', 'random:12,3,6', None, 5947, 5947, '769b29dec3d3bcd520270326155e77f28804af03c556c6cdeeb7c2c65ee8ffe6'),
    ('poly', 'random:12,3,6', None, 1611, 5947, '2b9a210d1f4fcba65389e5b2fd387f33d9dc8d7384048ebdee95dbdaefc175cf'),
    ('surround', 'random:11,7,6', None, 1133, 1133, '98809d004d5a2061d08ccc1b3dff6550adc066f08e6de99f5ee4aebef0ef1ffb'),
    ('poly', 'random:11,7,6', None, 191, 1133, '728a645695b976b15dc3891e55f36a2bef8f43cccec50c995704c7788651b242'),
    ('surround', 'grid:3x5', None, 33888, 33888, 'aea25a462e2b780c99f00cf646921674875f75c1d62950881b263bf4d0390e80'),
    ('poly', 'grid:3x5', None, 532, 33888, 'b8396963310d73d989e0e572524f00849c4b0289285adc5de5a4e58468636b74'),
    ('surround', 'pseudotriangle:12', 5000, 5000, 5000, '60a5f863cf257fc8d38e142fb12c93fcb2c80f57812040dc0295660cd1e341e3'),
]


def build(instance):
    if instance == "square_center":
        return PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
    return FamilySpec.from_string(instance).build()


@pytest.mark.parametrize("kind,instance,budget,count,nodes,sha256", SHAPES,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in SHAPES])
def test_tree_shape_is_pinned(kind, instance, budget, count, nodes, sha256):
    digest = hashlib.sha256()
    out = ENUMERATORS[kind](
        build(instance), lambda seq: digest.update((",".join(map(str, seq)) + "\n").encode()),
        budget)
    assert (out.count, out.nodes_visited, out.truncated) == (count, nodes, budget is not None)
    assert digest.hexdigest() == sha256


def _stream(kind, instance, budget=None):
    rows = []
    out = ENUMERATORS[kind](build(instance), rows.append, budget)
    return out, rows


def test_pruned_ham_tree_is_inside_the_path_tree():
    # The paths rows pin the unpruned tree; the ham tree is a subtree of it.
    for kind, instance, budget, *_ in SHAPES:
        if kind == "ham" and budget is None:
            ham, hams = _stream("ham", instance)
            paths, all_paths = _stream("paths", instance)
            assert ham.nodes_visited <= paths.nodes_visited, instance
            assert hams == [p for p in all_paths if len(p) == build(instance).n], instance


def test_truncated_ham_stream_is_a_prefix_of_the_full_stream():
    full_out, full = _stream("ham", "random:8,3,3")
    part_out, part = _stream("ham", "random:8,3,3", 700)
    assert part_out.truncated and not full_out.truncated
    assert 0 < len(part) < len(full)
    assert part == full[:len(part)]


@pytest.mark.parametrize("instance", sorted({r[1] for r in SHAPES if r[0] == "ham"}) + ["convex:3"])
def test_every_full_length_ham_node_is_emitted(instance):
    # For n >= 3 the ham tree drops every prefix whose paths would all end
    # below their start, so no full-length node is left unreported and the
    # last root, below which every path ends lower, has no children.
    from noncross.paths import path_tree

    s = build(instance)
    assert s.n >= 3
    roots, children, _ = path_tree(s, ham=True)
    full = tree_search(*emitting(roots, children,
                                 lambda node: node if len(node[0]) == s.n else None))
    assert full.count == enumerate_ham_paths(s).count
    assert children(roots[-1]) == [] and roots[-1][2] != 0


def _string_tree(leaves_only):
    # Binary tree of bit strings up to length 2 below two roots, on tuple
    # nodes (text, out, grows); children come in stack order, the last
    # first.  A string of length 2 is a leaf, which must not be expanded.
    def node(text):
        out = text if len(text) == 2 or not leaves_only else None
        return text, out, int(len(text) < 2)

    def children(parent):
        assert parent[2], parent
        return [node(parent[0] + b) for b in "10"]

    return [node("a"), node("b")], children


def test_tree_search_visits_preorder_and_stops_at_budget():
    emitted = []
    out = tree_search(*_string_tree(True), emitted.append)
    assert emitted == ["a0", "a1", "b0", "b1"]
    assert (out.count, out.nodes_visited, out.truncated) == (4, 6, False)
    emitted.clear()
    out = tree_search(*_string_tree(False), emitted.append, 4)
    assert emitted == ["a", "a0", "a1", "b"]
    assert (out.count, out.nodes_visited, out.truncated) == (4, 4, True)
    # A budget equal to the tree size is not a truncation.
    roots, children = _string_tree(False)
    assert not tree_search(roots[:1], children, None, 3).truncated
    with pytest.raises(ValueError):
        tree_search(roots[:1], children, None, -1)
    # No roots at all: an empty class by definition, still budget-checked.
    out = tree_search(None, None, None, 0)
    assert (out.count, out.nodes_visited, out.truncated, out.degenerate) == (0, 0, False, True)
    with pytest.raises(ValueError):
        tree_search(None, None, None, -1)


def _walk(roots, children, check):
    return walk_made(roots, children, check).nodes_visited


@pytest.mark.parametrize("instance", sorted({r[1] for r in SHAPES}))
def test_nodes_carry_the_masks_of_their_structure(instance):
    # Each child gets its masks from its parent by a few updates; they must
    # equal the masks rebuilt from the node's own sequence, as must a path
    # node's text, end points and what it emits, in the tuple tree and in the
    # text-line tree, which must pair with the tuple tree node for node in
    # preorder.  A polygon child's cheap rotation must
    # already be the canonical form, and the parent vertex a polygon node
    # carries must be the parent rule's pick.
    from noncross.geom import convex_hull
    from noncross.paths import path_tree
    from noncross.polygons import _polygon_rules, _PolygonKernel, canonical_cycle, polygon_tree

    s = build(instance)
    kernel = _PolygonKernel(s)
    bit = kernel.bit
    parent_rule = _polygon_rules(kernel)[1]

    def check_path(node, ham, lines):
        text, out, candidates, last, start, used, blocked = node
        if lines:
            seq = tuple(map(int, text.split(",")))
            assert text == ",".join(map(str, seq)), node
        else:
            seq = text
            assert type(seq) is tuple, node
        assert (start, last) == (seq[0], seq[-1]), node
        rule = (len(seq) == 1 or seq[0] < seq[-1]) and (not ham or len(seq) == s.n)
        assert out == (text if rule else None), node
        segments = list(zip(seq, seq[1:]))
        assert used == sum(1 << v for v in seq), node
        rows = 0
        for a, b in segments[:-1]:
            rows |= kernel.rows[a][b]
        barred = rows | sum(bit[a][b] for a, b in segments[-1:])
        assert candidates == sum(1 << v for v in range(s.n) if kernel.clear[last] >> v & 1
                                 and not barred & bit[last][v]), node
        for a, b in segments[-1:]:
            rows |= kernel.rows[a][b]
        assert blocked == rows, node
        # The barred mask holds every segment from the end to a used point,
        # so no candidate leads back to one.
        assert all(barred & bit[last][v] == bit[last][v] for v in seq[:-1]), node

    def check_polygon(node):
        cycle, out, absent, members, edges, p = node
        assert canonical_cycle(s, cycle) == cycle, node
        assert out == cycle, node
        assert members == sum(1 << v for v in cycle), node
        assert absent == (1 << s.n) - 1 ^ members, node
        assert edges == sum(bit[cycle[i - 1]][v] for i, v in enumerate(cycle)), node
        if node is roots[0]:
            assert p is None, node
        else:
            assert p is not None and p == parent_rule(cycle, members, edges), node

    # The deeper polygon-only instances have path trees too large to walk here.
    for kind, ham in (("paths", False), ("ham", True)):
        if any(r[:2] == (kind, instance) for r in SHAPES):
            walks = []
            for lines in (False, True):
                roots, children, _ = path_tree(s, ham=ham, lines=lines)
                walks.append([])

                def check(node, lines=lines):
                    check_path(node, ham, lines)
                    walks[-1].append(node)

                nodes = _walk(roots, children, check)
                assert nodes == ENUMERATORS[kind](s, None, None).nodes_visited
            # The text tree is the tuple tree written out, node for node.
            assert len(walks[0]) == len(walks[1]) == nodes
            for node, text_node in zip(*walks):
                assert text_node[0] == ",".join(map(str, node[0])), node
                assert text_node[2:] == node[2:], node
    roots, children = polygon_tree(s, full_only=False)
    nodes = _walk(roots, children, check_polygon)
    assert nodes == enumerate_surrounding(s).nodes_visited
    assert nodes > 0 or s.n < 3 or convex_hull(s).degenerate


def _protocol_trees(s, kinds):
    # (kind, lines, roots, children, rule): rule(seq) tells whether a node
    # of sequence or cycle seq emits, by the emission rule of each tree.
    from noncross.polygons import polygon_tree

    n = s.n
    rules = {
        "paths": lambda seq: len(seq) == 1 or seq[0] < seq[-1],
        "ham": lambda seq: len(seq) == n and seq[0] < seq[-1] or n == 1,
        "surround": lambda seq: True,
        "poly": lambda seq: len(seq) == n,
        "vv": lambda seq: len(seq) == n,
    }
    for kind in kinds:
        for lines in (False, True) if kind != "vv" else (False,):
            if kind in ("paths", "ham"):
                roots, children, _ = path_tree(s, kind == "ham", lines)
            elif kind == "vv":
                roots, children = vv_tree(s)
            else:
                roots, children = polygon_tree(s, kind == "poly", lines)
            yield kind, lines, roots, children, rules[kind]


def _check_node_protocol(s, kinds):
    # Every node a tree makes, roots and every child, leaves included,
    # emits by its tree's rule (its text line when ``lines`` is set), and a
    # node whose slot 2 is 0 has no children; the driver never expands one.
    for kind, lines, roots, children, rule in _protocol_trees(s, kinds):
        made = []

        def check(node, rule=rule, lines=lines, children=children):
            made.append(node)
            text = node[0]
            seq = tuple(map(int, text.split(","))) if isinstance(text, str) else text
            if lines and kind in ("paths", "ham"):
                assert text == ",".join(map(str, seq)), node
            line = ",".join(map(str, seq)) if lines else seq
            assert node[1] == (line if rule(seq) else None), (kind, lines, node)
            if not node[2]:
                assert not children(node), (kind, node)

        def expand(node, children=children):
            assert node[2], (kind, node)
            return children(node)

        out = walk_made(roots, expand, check)
        assert out.nodes_visited == len(made), (kind, lines)
        assert out.count == sum(node[1] is not None for node in made), (kind, lines)
        if kind != "vv":
            assert out.count == ENUMERATORS[kind](s, None, None).count, (kind, lines)
        assert roots is None or any(not node[2] for node in made), (kind, lines)


@pytest.mark.parametrize("instance", ["convex:6", "grid:3x3", "collinear:5", "one_sided:4,3",
                                      "random:8,3,3", "pseudotriangle:7"])
def test_nodes_say_what_they_emit_and_whether_they_grow(instance):
    _check_node_protocol(build(instance), ("paths", "ham", "surround", "poly", "vv"))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=7,
                unique=True))
@settings(max_examples=80, deadline=None)
def test_nodes_say_what_they_emit_and_whether_they_grow_in_a_small_box(pts):
    _check_node_protocol(PointSet(pts), ("paths", "ham", "surround"))


@pytest.mark.parametrize("points", [
    build("grid:3x3").points,
    [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (3, 3), (0, 2), (3, 1)],
    build("random:8,3,3").points,
], ids=["grid3x3", "collinear-runs", "random8"])
def test_a_search_calls_no_segment_predicate_once_its_tree_is_built(monkeypatch, points):
    # The kernel decides each pair of segments once, when the tree is
    # built: a shared endpoint by the indices, every other pair by one
    # predicate call.  The search itself must then need no predicate.
    import noncross.geom as geom_mod
    import noncross.paths as paths_mod
    from noncross.polygons import polygon_tree

    s = PointSet(points)
    index = {p: i for i, p in enumerate(s.points)}
    real = paths_mod.segment_relation
    asked = []

    def counted(a, b, c, d):
        asked.append(frozenset([frozenset([index[a], index[b]]), frozenset([index[c], index[d]])]))
        return real(a, b, c, d)

    monkeypatch.setattr(paths_mod, "segment_relation", counted)
    paths_mod.ConflictKernel(s)
    segments = itertools.combinations(range(s.n), 2)
    apart = {frozenset([frozenset(e), frozenset(f)])
             for e, f in itertools.combinations(segments, 2) if not set(e) & set(f)}
    assert len(asked) == len(apart) and set(asked) == apart

    def refused(*args):
        raise AssertionError("segment predicate called during a search")

    trees = [lambda ham=ham, lines=lines: path_tree(s, ham, lines)[:2]
             for ham in (False, True) for lines in (False, True)]
    trees += [lambda full_only=full_only: polygon_tree(s, full_only)
              for full_only in (False, True)]
    for tree in trees:
        for module in (paths_mod, geom_mod):
            monkeypatch.setattr(module, "segment_relation", real)
        found = []
        want = tree_search(*tree(), found.append)
        roots, children = tree()
        for module in (paths_mod, geom_mod):
            monkeypatch.setattr(module, "segment_relation", refused)
        again = []
        assert tree_search(roots, children, again.append) == want
        assert again == found and want.count > 0


KEYED_INSTANCES = ("convex:9", "grid:3x3", "random:9,2,4", "random:9,4,5", "one_sided:4,3",
                   "collinear:6", "pseudotriangle:9")


@pytest.mark.parametrize("entries", [None, 64], ids=["default-table", "64-entry-table"])
@pytest.mark.parametrize("kind", ["paths", "ham"])
@pytest.mark.parametrize("instance", KEYED_INSTANCES)
def test_keyed_count_agrees_with_the_plain_walk(monkeypatch, instance, kind, entries):
    # A count that adds stored subtrees whole must give the plain walk's
    # outcome under every budget.  The plain walk truncated at b visits the
    # first b nodes in preorder, so one full walk that records the count
    # after each node gives its outcome for every budget.  The 64-entry
    # table makes the floor double and small subtrees drop many times.
    import random

    import noncross.paths as paths_mod

    if entries is not None:
        monkeypatch.setattr(paths_mod, "_TABLE_ENTRIES", entries)
    s = build(instance)
    roots, children, table = paths_mod.path_tree(s, ham=kind == "ham")
    key = table.key
    after = [0]

    def counted(node):
        after.append(after[-1] + (node[1] is not None))

    # Every node of the wrapped tree emits the node itself, in preorder.
    tree_search(*emitting(roots, children, lambda node: node), counted)
    plain = tree_search(roots, children)
    total = plain.nodes_visited
    assert (plain.count, total) == (after[-1], len(after) - 1)
    rng = random.Random(f"{instance}/{kind}")
    budgets = [None, 0, 1, 2, 37, total - 1, total, total + 1]
    budgets += [rng.randint(0, total + 1) for _ in range(25)]
    for budget in budgets:
        if budget is None or budget >= total:
            want = (plain.count, total, False)
        else:
            want = (after[budget], budget, True)
        got = tree_search(roots, children, None, budget, paths_mod.SubtreeTable(key))
        assert (got.count, got.nodes_visited, got.truncated) == want, budget
        if kind == "paths" and not got.truncated:
            # Every sequence of two or more vertices is a node in both
            # orientations and is emitted in one of them.
            assert 2 * got.count == got.nodes_visited + s.n, budget
        if budget in (37, total - 1):
            got = tree_search(roots, children, None, budget)
            assert (got.count, got.nodes_visited, got.truncated) == want, budget
