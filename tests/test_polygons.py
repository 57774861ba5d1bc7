import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import (
    InternalInvariantError,
    PointSet,
    canonical_cycle,
    canonical_parent,
    enumerate_polygonalizations,
    enumerate_surrounding,
    gen_collinear,
    gen_convex,
    gen_grid,
    gen_one_sided,
    gen_pseudotriangle,
    hull_cycle,
    is_surrounding_polygon,
    polygon_children,
)
from noncross.oracle import brute_poly, brute_surround

SQUARE_CENTER = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])


def test_canonical_cycle_invariance():
    s = gen_convex(5)
    base = canonical_cycle(s, (0, 1, 2, 3, 4))
    for rot in range(5):
        seq = tuple((0, 1, 2, 3, 4)[(rot + i) % 5] for i in range(5))
        assert canonical_cycle(s, seq) == base
        assert canonical_cycle(s, seq[::-1]) == base
    assert base[0] == 0


def test_canonical_cycle_is_ccw():
    from noncross.polygons import _signed_area2

    s = SQUARE_CENTER
    assert _signed_area2(s, canonical_cycle(s, (3, 2, 1, 0))) > 0
    with pytest.raises(ValueError):
        canonical_cycle(s, (0, 1))
    with pytest.raises(ValueError):
        canonical_cycle(gen_collinear(3), (0, 1, 2))


def test_is_surrounding_polygon_examples():
    s = SQUARE_CENTER
    assert is_surrounding_polygon(s, (0, 1, 2, 3))  # hull, center inside
    assert not is_surrounding_polygon(s, (0, 1, 2))  # corner 3 left outside
    assert is_surrounding_polygon(s, (0, 1, 4, 2, 3))  # detour via center
    assert not is_surrounding_polygon(s, (0, 2, 1, 3))  # bowtie
    assert is_surrounding_polygon(gen_convex(4), hull_cycle(gen_convex(4)))


def test_surrounding_polygon_contains_all_hull_vertices(family_instances):
    from noncross.geom import convex_hull

    for s in family_instances.values():
        if s.n < 3 or convex_hull(s).degenerate:
            continue
        hull_verts = set(convex_hull(s).vertices)
        polys = []
        enumerate_surrounding(s, polys.append)
        for poly in polys:
            assert hull_verts <= set(poly)


def test_canonical_parent_examples():
    s = SQUARE_CENTER
    child = canonical_cycle(s, (0, 4, 1, 2, 3))
    assert canonical_parent(s, child) == hull_cycle(s)
    with pytest.raises(ValueError):
        canonical_parent(s, hull_cycle(s))


def test_canonical_parent_pseudotriangle():
    s = gen_pseudotriangle(5)
    polys = []
    enumerate_polygonalizations(s, polys.append)
    for poly in polys:
        parent = canonical_parent(s, poly)
        assert len(parent) == 4
        assert is_surrounding_polygon(s, parent)


def test_polygon_children_examples():
    s = SQUARE_CENTER
    kids = polygon_children(s, hull_cycle(s))
    assert len(kids) == 4  # center inserted into each square edge
    for kid in kids:
        assert is_surrounding_polygon(s, kid)
        assert canonical_parent(s, kid) == hull_cycle(s)
    convex = gen_convex(5)
    assert polygon_children(convex, hull_cycle(convex)) == []


def test_counts_match_formulas_and_oracles():
    assert enumerate_surrounding(gen_pseudotriangle(5)).count == 13
    assert enumerate_surrounding(SQUARE_CENTER).count == 5
    assert enumerate_surrounding(gen_convex(6)).count == 1
    assert enumerate_polygonalizations(gen_pseudotriangle(6)).count == 20
    assert enumerate_polygonalizations(gen_convex(5)).count == 1
    s4 = gen_pseudotriangle(4)
    assert enumerate_surrounding(s4).count == brute_surround(s4)[0] == 4
    assert enumerate_polygonalizations(s4).count == brute_poly(s4)[0] == 3


def test_degenerate_inputs():
    out = enumerate_surrounding(gen_collinear(4))
    assert out.degenerate and out.count == 0
    out = enumerate_polygonalizations(gen_collinear(4))
    assert out.degenerate and out.count == 0
    out = enumerate_surrounding(PointSet([(0, 0), (1, 1)]))
    assert out.degenerate and out.count == 0


def test_reverse_search_consistency(family_instances):
    for name in ("pseudotriangle6", "square_center", "grid2x3", "one_sided3_2"):
        s = family_instances[name]
        polys = []
        enumerate_surrounding(s, polys.append)
        assert len(set(polys)) == len(polys)
        root = hull_cycle(s)
        for poly in polys:
            if poly == root:
                continue
            parent = canonical_parent(s, poly)
            assert parent in set(polys)
            assert poly in polygon_children(s, parent)


def test_budget_and_roots():
    s = gen_pseudotriangle(7)
    out = enumerate_surrounding(s, budget=5)
    assert out.truncated and out.nodes_visited == 5
    from noncross.paths import tree_search
    from noncross.polygons import polygon_tree

    roots, children, emit = polygon_tree(s, full_only=False)
    kids = children(roots[0])
    assert [kid[0] for kid in kids] == polygon_children(s, hull_cycle(s))
    total = 1  # the root itself
    for kid in kids:
        total += tree_search([kid], children, emit).count
    assert total == enumerate_surrounding(s).count


def test_polygonalizations_have_no_straight_angle_freedom_on_convex():
    # Convex position: the hull is the only surrounding polygon at all.
    for n in (4, 6, 8):
        s = gen_convex(n)
        polys = []
        enumerate_surrounding(s, polys.append)
        assert polys == [hull_cycle(s)]


def test_straight_angle_hull_variants_are_distinct():
    # A point inside a hull edge may or may not be a polygon vertex; the
    # two outlines coincide but count as different surrounding polygons.
    s = PointSet([(0, 0), (2, 0), (4, 0), (0, 4)])
    polys = []
    enumerate_surrounding(s, polys.append)
    assert canonical_cycle(s, (0, 2, 3)) in polys
    assert canonical_cycle(s, (0, 1, 2, 3)) in polys
    assert brute_surround(s)[0] == len(polys)


def _check_local_tests(s):
    # Every removal of a non-hull vertex and every insertion, at every
    # surrounding polygon, decided locally and by the full validator.
    from noncross.polygons import _insertion_valid, _masks, _PolygonKernel, _removable

    if convex_hull_degenerate(s):
        return
    kernel = _PolygonKernel(s)
    polys = []
    enumerate_surrounding(s, polys.append)
    for poly in polys:
        m = len(poly)
        members, edges = _masks(kernel, poly)
        for j, v in enumerate(poly):
            if not kernel.hull >> v & 1:
                full = m > 3 and is_surrounding_polygon(s, poly[:j] + poly[j + 1:])
                assert _removable(kernel, poly, edges, j) == full, (poly, v)
        for v in range(s.n):
            if v in poly:
                continue
            for pos in range(m):
                child = poly[: pos + 1] + (v,) + poly[pos + 1 :]
                assert (_insertion_valid(kernel, poly, members, edges, pos, v)
                        == is_surrounding_polygon(s, child)), (poly, v, pos)


def test_insertion_validity_matches_full_validator():
    # The child generator's local removal and insertion tests must agree
    # with the full surrounding-polygon validator at every tree node.
    from noncross import gen_random

    sets = [SQUARE_CENTER, gen_pseudotriangle(6), gen_grid(3, 3), gen_one_sided(3, 3),
            PointSet([(0, 0), (2, 0), (4, 0), (0, 4)])]
    sets += [gen_random(7, seed, 12) for seed in range(6)]
    for s in sets:
        _check_local_tests(s)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=8,
                unique=True))
@settings(max_examples=120, deadline=None)
def test_local_tests_match_full_validator_in_a_small_box(pts):
    _check_local_tests(PointSet(pts))


def _check_skipped_candidates(s):
    # Below the hull, the children try a point v above the node's parent
    # vertex p only in the two edges at p.  Every other such insertion must
    # be no child: not a surrounding polygon, or one whose parent rule picks
    # a vertex below v.  Returns how many candidates were skipped.
    from noncross.paths import tree_search
    from noncross.polygons import _masks, _parent_vertex, _PolygonKernel, polygon_tree

    roots, children, _ = polygon_tree(s, full_only=False)
    if roots is None:
        return 0
    kernel = _PolygonKernel(s)
    skipped = 0

    def checked_children(node):
        nonlocal skipped
        poly, _, _, p = node
        if p is not None:
            m, j = len(poly), poly.index(p)
            for v in range(p + 1, s.n):
                if v in poly:
                    continue
                for pos in set(range(m)) - {(j - 1) % m, j}:
                    skipped += 1
                    cycle = poly[:pos + 1] + (v,) + poly[pos + 1:]
                    if is_surrounding_polygon(s, cycle):
                        child = canonical_cycle(s, cycle)
                        parent = _parent_vertex(kernel, child, *_masks(kernel, child))
                        assert parent is not None and parent < v, (poly, v, pos, parent)
        return children(node)

    tree_search(roots, checked_children, lambda node: None)
    return skipped


@pytest.mark.parametrize("instance,skipped", [("grid:3x4", 20136), ("one_sided:4,3", 25),
                                              ("square_center", 0)])
def test_skipped_insertions_are_not_children(instance, skipped):
    # In square_center every node below the hull has the centre, the
    # largest index, as its parent vertex, so nothing is skipped there.
    from test_tree_search import build

    assert _check_skipped_candidates(build(instance)) == skipped


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=8,
                unique=True))
@settings(max_examples=120, deadline=None)
def test_skipped_insertions_are_not_children_in_a_small_box(pts):
    _check_skipped_candidates(PointSet(pts))


def test_polygon_search_takes_no_point_in_polygon_test(monkeypatch):
    # Removal and insertion are decided by a corner sign and bitmasks, so
    # the search must reach the same pinned trees without placing a point.
    from test_tree_search import SHAPES, build

    from noncross.paths import tree_search
    from noncross.polygons import polygon_tree

    def refuse(*args):
        raise AssertionError("the polygon search ran a point-in-polygon test")

    instances = ("grid:3x3", "pseudotriangle:6", "square_center")
    # polygon_children checks its input with is_surrounding_polygon, which
    # places points, so its answers are taken before the patch.
    hull_children = {}
    for instance in instances:
        s = build(instance)
        hull_children[instance] = polygon_children(s, hull_cycle(s))
    monkeypatch.setattr("noncross.polygons._placement_unchecked", refuse)
    pinned = {(kind, instance): (count, nodes)
              for kind, instance, budget, count, nodes, _ in SHAPES if budget is None}
    for instance in instances:
        s = build(instance)
        for kind, enumerate_ in (("surround", enumerate_surrounding),
                                 ("poly", enumerate_polygonalizations)):
            out = enumerate_(s)
            assert (out.count, out.nodes_visited) == pinned[kind, instance], (kind, instance)
        roots, children, emit = polygon_tree(s, full_only=False)
        kids = children(roots[0])
        assert [kid[0] for kid in kids] == hull_children[instance], instance
        below = sum(tree_search([kid], children, emit).count for kid in kids)
        assert 1 + below == pinned["surround", instance][0], instance


def convex_hull_degenerate(s):
    from noncross.geom import convex_hull

    return s.n < 3 or convex_hull(s).degenerate


def test_no_silent_parent_failure():
    s = SQUARE_CENTER
    # A cycle that is not a surrounding polygon has no removable vertex
    # under the parent rule; the failure must be loud.
    with pytest.raises((InternalInvariantError, ValueError)):
        canonical_parent(s, (0, 1, 4))


def test_parent_rejects_a_non_surrounding_cycle():
    # Point 5 lies inside the square but outside the cycle, whose local
    # removal test for the centre 4 still passes: 1-4-2 is a reflex corner
    # and the bridge 1-2 is a hull edge.
    from noncross.polygons import _masks, _PolygonKernel, _removable

    s = PointSet([(0, 0), (8, 0), (8, 8), (0, 8), (4, 4), (7, 4)])
    cycle = (0, 1, 4, 2, 3)
    assert not is_surrounding_polygon(s, cycle)
    kernel = _PolygonKernel(s)
    _, edges = _masks(kernel, cycle)
    assert _removable(kernel, cycle, edges, cycle.index(4))
    with pytest.raises(ValueError, match="not a surrounding polygon"):
        canonical_parent(s, cycle)
    # The children's local tests need a surrounding polygon too; each of
    # these cycles leaves a corner of the square outside.
    for cycle in ((0, 1, 2), (0, 1, 4), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a surrounding polygon"):
            polygon_children(SQUARE_CENTER, cycle)


def test_removal_test_disagreeing_with_insertion_stops_the_search(monkeypatch):
    # An inserted point is always removable from a valid child, so a removal
    # test that disagrees with the insertion test is a broken invariant.
    import noncross.polygons as polygons_mod

    monkeypatch.setattr(polygons_mod, "_removable", lambda *args: False)
    with pytest.raises(InternalInvariantError, match="parent rule"):
        enumerate_surrounding(gen_grid(3, 3))


def test_memory_is_bounded_by_the_depth():
    # Pure reverse search keeps no record of the polygons it has visited, so
    # the traced peak stays far below what holding all 2 972 would take.
    import tracemalloc

    s = gen_pseudotriangle(10)
    tracemalloc.start()
    try:
        outcome = enumerate_surrounding(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.count == 2972
    assert peak < 0.15 * 2**20, peak
