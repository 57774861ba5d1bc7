import hashlib
import itertools
import math

import pytest

from noncross import (
    PointSet,
    Signature,
    enumerate_ham_paths,
    enumerate_surrounding,
    enumerate_vv_paths,
    gen_collinear,
    gen_convex,
    gen_grid,
    gen_one_sided,
    gen_pseudotriangle,
    gen_random,
    ham_path_between,
    is_noncrossing_path,
    is_surrounding_polygon,
    realize_signature,
    steinhaus_complete,
    visible_vertices,
)
from noncross.counting import count_010_avoiding
from noncross.geom import Point, convex_hull
from noncross.params import offline
from noncross.polygons import canonical_cycle, hull_cycle

TRIANGLE = PointSet([(0, 0), (3, 0), (0, 3)])
SQUARE = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])


def test_visible_vertices_examples():
    # External point facing one triangle edge sees exactly its two ends.
    s = PointSet([(0, 0), (4, 0), (0, 4), (10, 10)])
    assert visible_vertices(s, [0, 1, 2], Point(10, 10)) == [1, 2]
    col = PointSet([(0, 0), (1, 0), (2, 0), (5, 0), (1, 5)])
    assert visible_vertices(col, [0, 1, 2, 3], Point(1, 5)) == [0, 3]
    assert visible_vertices(col, [0, 1, 2], Point(5, 0)) == [2]
    assert visible_vertices(col, [3], Point(0, 0)) == [3]


def test_visible_vertices_rejections():
    s = PointSet([(0, 0), (4, 0), (0, 4), (1, 1), (2, 0)])
    with pytest.raises(ValueError):
        visible_vertices(s, [0, 1, 2], Point(1, 1))  # strictly inside
    with pytest.raises(ValueError):
        visible_vertices(s, [0, 1, 2], Point(2, 0))  # on the hull boundary
    with pytest.raises(ValueError):
        visible_vertices(s, [], Point(9, 9))


def test_visible_vertex_count_observation():
    # From outside the hull there is always a visible vertex, and at least
    # two unless the subset plus the viewpoint is collinear.
    from hypothesis import given, settings
    from hypothesis import strategies as st

    coord = st.integers(min_value=-6, max_value=6)

    @given(st.lists(st.tuples(coord, coord), min_size=2, max_size=8, unique=True))
    @settings(max_examples=150, deadline=None)
    def check(pts):
        from noncross.geom import Orientation, orient

        s = PointSet(pts)
        subset = list(range(1, s.n))
        try:
            vis = visible_vertices(s, subset, s[0])
        except ValueError:
            return  # viewpoint inside or on the subset hull
        assert len(vis) >= 1
        whole_collinear = all(
            orient(s[0], s[1], s[i]) is Orientation.COLLINEAR for i in range(2, s.n)
        )
        if not whole_collinear:
            assert len(vis) >= 2

    check()


def test_visible_vertices_never_reports_edge_interior_points():
    s = PointSet([(0, 0), (2, 0), (4, 0), (0, 4), (9, 9)])
    vis = visible_vertices(s, [0, 1, 2, 3], Point(9, 9))
    assert 1 not in vis  # (2,0) sits inside the hull edge (0,0)-(4,0)


def test_vv_path_counts():
    assert enumerate_vv_paths(gen_collinear(5)).count == 2
    assert enumerate_vv_paths(TRIANGLE).count == 6
    assert enumerate_vv_paths(PointSet([(1, 2)])).count == 1


def test_vv_leaves_are_valid_ham_paths(family_instances):
    for name, s in family_instances.items():
        if s.n > 7:
            continue
        leaves = []
        enumerate_vv_paths(s, leaves.append)
        for leaf in leaves:
            assert len(leaf) == s.n
            assert is_noncrossing_path(s, leaf), (name, leaf)


def test_vv_tree_lower_bound(family_instances):
    for s in family_instances.values():
        if s.n > 7:
            continue
        k = offline(s)
        count = enumerate_vv_paths(s).count
        if k > 0:  # non-collinear
            assert count >= 3 * 2 ** k


def test_vv_leaves_are_a_subset_of_all_ham_paths():
    from noncross.oracle import brute_ham

    for s in (TRIANGLE, gen_pseudotriangle(5), gen_one_sided(3, 2)):
        leaves = []
        enumerate_vv_paths(s, leaves.append)
        canon = {p if p[0] < p[-1] else p[::-1] for p in leaves}
        assert canon <= set(brute_ham(s)[1])


def test_vv_dedup_lower_bound_against_exact():
    for s in (TRIANGLE, gen_convex(5), gen_pseudotriangle(5)):
        leaves = []
        enumerate_vv_paths(s, leaves.append)
        distinct = {min(p, p[::-1]) for p in leaves}
        exact = enumerate_ham_paths(s).count
        k = offline(s)
        assert math.ceil(1.5 * 2 ** k) <= len(distinct) <= exact


def test_ham_path_between_examples():
    assert ham_path_between(TRIANGLE, 0, 1) == (0, 2, 1)
    assert ham_path_between(gen_collinear(4), 0, 3) == (0, 1, 2, 3)
    s = gen_convex(6)
    path = ham_path_between(s, 0, 3)
    assert is_noncrossing_path(s, path)
    assert len(path) == 6 and path[0] == 0 and path[-1] == 3


def test_ham_path_between_rejections():
    s = PointSet([(0, 0), (4, 0), (0, 4), (1, 1)])
    with pytest.raises(ValueError):
        ham_path_between(s, 0, 3)  # 3 is interior
    with pytest.raises(ValueError):
        ham_path_between(s, 1, 1)


def test_ham_path_between_all_hull_pairs(family_instances):
    for name, s in family_instances.items():
        if s.n > 7:
            continue
        hull_verts = convex_hull(s).vertices
        for p, q in itertools.permutations(hull_verts, 2):
            path = ham_path_between(s, p, q)
            assert path[0] == p and path[-1] == q
            assert len(path) == s.n
            assert is_noncrossing_path(s, path), (name, p, q, path)
            # The target never appears before the end by construction.
            assert q not in path[:-1]


def all_signatures(n, ones):
    for positions in itertools.combinations(range(n), ones):
        bits = tuple(1 if i in positions else 0 for i in range(n))
        if not any(bits[i : i + 3] == (0, 1, 0) for i in range(n - 2)):
            yield bits


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((0, 1, 0))
    with pytest.raises(ValueError):
        Signature((1, 2, 0))
    sig = Signature((1, 1, 0, 0))
    assert sig.ones == 2 and len(sig) == 4


def test_realize_signature_all_ones():
    s = gen_collinear(5)
    assert realize_signature(s, Signature((1,) * 5)) == (0, 1, 2, 3, 4)


def test_realize_signature_rejections():
    s = gen_one_sided(3, 2)
    with pytest.raises(ValueError):  # no line of the instance carries 4 points
        realize_signature(s, Signature((1, 1, 1, 1, 0)))
    with pytest.raises(ValueError):  # fewer than two points on the line
        realize_signature(gen_one_sided(1, 4), Signature((1, 0, 0, 0, 0)))
    with pytest.raises(ValueError):  # length mismatch
        realize_signature(s, Signature((1, 1, 0)))


def test_realize_signature_any_hull_edge_line_counts():
    # One-sided structure exists relative to any hull edge; a ones count
    # matching a non-axis edge is just as realizable.
    s = gen_one_sided(3, 2)
    path = realize_signature(s, Signature((1, 1, 0, 0, 0)))
    assert is_noncrossing_path(s, path)
    assert len(path) == s.n


def test_realize_signature_valid_and_injective():
    for ell, off in ((2, 2), (3, 2), (4, 3), (2, 4)):
        s = gen_one_sided(ell, off)
        n = s.n
        on_line = {i for i in range(n) if s[i].y == 0}
        realized = {}
        for bits in all_signatures(n, ell):
            sig = Signature(bits)
            path = realize_signature(s, sig)
            assert is_noncrossing_path(s, path), (ell, off, bits, path)
            assert len(path) == n
            recovered = tuple(1 if i in on_line else 0 for i in path)
            assert recovered == bits
            # On-line points in left-to-right order.
            xs = [s[i].x for i in path if i in on_line]
            assert xs == sorted(xs)
            # No on-line point between two off-line neighbours.
            for j in range(1, n - 1):
                if path[j] in on_line:
                    assert (path[j - 1] in on_line) or (path[j + 1] in on_line)
            realized[bits] = min(path, path[::-1])
        assert len(set(realized.values())) == len(realized)
        assert len(realized) == count_010_avoiding(n, ell)


# SHA-256 of every path that ``realize_signature`` picks below, recorded
# before the construction became a single pass over the signature's runs.
# The validity checks above accept any valid path; this pins which one.
REALIZED_DIGEST = "97ef6fbace5c62ec6abf4b200a0b284b625ab52002a728589ba1233a07f9d18a"


def test_realize_signature_picks_are_pinned():
    cases = [(gen_collinear(5), (1,) * 5)]
    for ell in range(2, 11):
        for off in range(0, 11 - ell):
            s = gen_one_sided(ell, off)
            cases += [(s, bits) for bits in all_signatures(s.n, ell)]
    digest = hashlib.sha256()
    for s, bits in cases:
        path = realize_signature(s, Signature(bits))
        digest.update(f"{bits} {path}\n".encode())
    assert len(cases) == 785
    assert digest.hexdigest() == REALIZED_DIGEST


def test_steinhaus_complete_examples():
    done = steinhaus_complete(SQUARE, (0, 1, 2))
    assert done == canonical_cycle(SQUARE, (0, 1, 2, 3))
    assert steinhaus_complete(SQUARE, (0, 1, 2, 3)) == hull_cycle(SQUARE)  # identity
    pent = gen_convex(5)
    done = steinhaus_complete(pent, (0, 1, 2, 3))
    assert len(done) == 5
    assert is_surrounding_polygon(pent, done)


def test_steinhaus_complete_multiple_missing():
    for n in (5, 6, 7):
        s = gen_convex(n)
        done = steinhaus_complete(s, (0, 1, 2))
        assert set(done) == set(range(n))
        assert is_surrounding_polygon(s, done)


def test_steinhaus_preserves_cyclic_order():
    s = gen_convex(6)
    start = (0, 2, 4)
    done = steinhaus_complete(s, start)
    # The original vertices appear in their original cyclic order.
    kept = [v for v in done if v in start]
    doubled = kept + kept
    assert any(doubled[i : i + 3] == [0, 2, 4] for i in range(3))


def test_steinhaus_interior_paths_preserved():
    # Polygonalize the chain of a pseudotriangle, then pull in the apex.
    s = gen_pseudotriangle(6)
    chain_cycle = tuple(range(5))  # strictly convex chain: its own hull
    done = steinhaus_complete(s, chain_cycle)
    assert set(done) == set(range(6))
    assert is_surrounding_polygon(s, done)
    assert len(done) == s.n  # a polygonalization


def test_steinhaus_completes_around_interior_vertex():
    s = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
    done = steinhaus_complete(s, (0, 1, 4))  # corners 2 and 3 are pulled in
    assert set(done) == {0, 1, 2, 3, 4}
    assert is_surrounding_polygon(s, done)


def test_steinhaus_rejects_bad_input():
    s = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3)])
    with pytest.raises(ValueError):
        # (1,3) is strictly outside the triangle and not a hull vertex.
        steinhaus_complete(s, (0, 1, 2))
    sq = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
    with pytest.raises(ValueError):
        steinhaus_complete(sq, (0, 2, 1, 3))  # bowtie is not simple


# SHA-256 of every (set, polygon, completion or exception type) of the sweep
# below, recorded while each missing hull vertex went into the first edge it
# saw in full, before the rule became "the first edge whose insertion keeps
# the polygon simple".  The two rules pick the same edge (see the proof in
# ``steinhaus_complete``); this pins which completion is returned.
STEINHAUS_DIGEST = "60511a6a23e6ef230d43cde564de05816217cba3b2773459af5f633adffa0238"


def steinhaus_sweep():
    """(set, polygon) pairs: 1-3 hull vertices removed, surrounding polygons of the rest."""
    sets = [gen(n) for gen in (gen_convex, gen_pseudotriangle) for n in range(4, 9)]
    sets += [gen_grid(3, 3), gen_grid(2, 4), gen_one_sided(3, 3), gen_one_sided(4, 3)]
    sets += [gen_random(n, seed, side) for n in range(5, 9) for seed in range(4)
             for side in (4, 6, 32)]
    for s in sets:
        hull = sorted(convex_hull(s).vertices)
        for removed in itertools.chain.from_iterable(
                itertools.combinations(hull, r) for r in (1, 2, 3)):
            kept = [i for i in range(s.n) if i not in removed]
            polys = []
            enumerate_surrounding(PointSet(s[i] for i in kept), polys.append)
            for poly in polys[:40]:
                yield s, tuple(kept[i] for i in poly)


def test_steinhaus_completions_are_pinned():
    digest = hashlib.sha256()
    cases = 0
    for s, poly in steinhaus_sweep():
        cases += 1
        try:
            done = steinhaus_complete(s, poly)
        except Exception as exc:  # an exception is pinned by its type
            result = type(exc).__name__
        else:
            assert is_surrounding_polygon(s, done), (s, poly, done)
            kept = [v for v in done if v in poly]
            k = kept.index(poly[0])
            assert tuple(kept[k:] + kept[:k]) == poly, (s, poly, done)
            result = done
        digest.update(f"{[tuple(p) for p in s]} {poly} {result}\n".encode())
    assert cases == 6516
    assert digest.hexdigest() == STEINHAUS_DIGEST
