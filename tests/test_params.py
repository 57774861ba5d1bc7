import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncross import PointSet, gen_collinear, gen_convex, gen_grid
from noncross.geom import Orientation, convex_hull, orient
from noncross.params import ParamReport, inhull, max_collinear, offline, param_report

coord = st.integers(min_value=-6, max_value=6)


def test_max_collinear_examples():
    assert max_collinear(gen_grid(3, 3)).size == 3
    assert max_collinear(gen_convex(5)).size == 2
    assert max_collinear(gen_collinear(4)).size == 4
    assert max_collinear(PointSet([(7, 7)])) == (1, None)
    assert max_collinear(PointSet([(0, 0), (5, 5)])) == (2, (0, 1))


def test_max_collinear_witness_spans_a_maximum_line():
    for s in (gen_grid(3, 3), gen_grid(2, 4), gen_convex(6), gen_collinear(5)):
        size, witness = max_collinear(s)
        a, b = witness
        on_line = sum(
            1 for i in range(s.n)
            if orient(s[a], s[b], s[i]) is Orientation.COLLINEAR
        )
        assert on_line == size


def test_offline_examples():
    assert offline(gen_grid(3, 3)) == 6
    assert offline(gen_collinear(5)) == 0
    for n in (3, 5, 8):
        assert offline(gen_convex(n)) == n - 2


def test_inhull_examples():
    assert inhull(gen_grid(3, 3)) == 1
    assert inhull(PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])) == 1
    assert inhull(gen_convex(6)) == 0
    assert inhull(gen_collinear(4)) == 0


def test_param_report_fields_and_roundtrip():
    rep = param_report(gen_grid(3, 3))
    assert rep == ParamReport(n=9, offline_k=6, inhull_h=1, m=1,
                              max_collinear=3, witness_line=rep.witness_line)
    assert rep.offline_k == rep.n - rep.max_collinear
    assert rep.to_json_dict() == {"n": 9, "offline": 6, "inhull": 1, "m": 1, "max_collinear": 3,
                                  "witness_line": list(rep.witness_line)}
    rep1 = param_report(PointSet([(3, 4)]))
    assert rep1.witness_line is None
    assert rep1.to_json_dict() == {"n": 1, "offline": 0, "inhull": 0, "m": 0, "max_collinear": 1,
                                   "witness_line": None}


def test_errors_on_empty():
    with pytest.raises(ValueError):
        max_collinear(PointSet([]))


@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=8, unique=True))
@settings(max_examples=150, deadline=None)
def test_offline_zero_iff_collinear(pts):
    s = PointSet(pts)
    k = offline(s)
    collinear = all(
        orient(s[0], s[1], s[i]) is Orientation.COLLINEAR for i in range(2, s.n)
    ) if s.n >= 2 else True
    assert (k == 0) == collinear


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=8, unique=True))
@settings(max_examples=100, deadline=None)
def test_witness_removal_leaves_collinear(pts):
    # Dropping everything off the witness line removes exactly offline(s)
    # points and leaves a collinear set.
    s = PointSet(pts)
    size, (a, b) = max_collinear(s)
    kept = [i for i in range(s.n)
            if orient(s[a], s[b], s[i]) is Orientation.COLLINEAR]
    assert len(kept) == size
    assert s.n - len(kept) == offline(s)


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=7, unique=True))
@settings(max_examples=60, deadline=None)
def test_offline_minimality_exhaustive(pts):
    # Removing offline(s) witnessed points leaves a collinear set, and no
    # smaller removal can.
    s = PointSet(pts)
    k = offline(s)

    def leaves_collinear(removed):
        kept = [i for i in range(s.n) if i not in removed]
        if len(kept) <= 2:
            return True
        a, b = kept[0], kept[1]
        return all(orient(s[a], s[b], s[i]) is Orientation.COLLINEAR for i in kept[2:])

    assert any(
        leaves_collinear(set(rm)) for rm in itertools.combinations(range(s.n), k)
    )
    for r in range(k):
        assert not any(
            leaves_collinear(set(rm)) for rm in itertools.combinations(range(s.n), r)
        )


@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=9, unique=True))
@settings(max_examples=150, deadline=None)
def test_inhull_partition(pts):
    s = PointSet(pts)
    hull = convex_hull(s)
    assert inhull(s) + len(hull.vertices) + len(hull.on_edge) == s.n
    if s.n >= 2:
        assert 0 <= inhull(s) <= s.n - 2
