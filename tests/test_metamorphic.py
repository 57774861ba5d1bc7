"""Metamorphic tests: maps of the input that must not change any search.

The oracles certify the enumerators only up to n = 8 or 9.  These tests go
past them by comparing each enumerator with itself: a relabelling of the
points, a symmetry of the square, a unimodular shear and a huge
translation all keep every incidence, collinearity and orientation class
of the set, so for every kind the count and nodes_visited must not move.
nodes_visited is invariant too: the path tree is a set of sequences fixed
by the geometry, and every surround node is a polygon.  The pruned ham tree
is fixed by the geometry and the labels, since it drops the prefixes whose
paths would all be reported from the other end, the one whose index is
smaller.  Under a relabelling the ham entry therefore compares the count
and the emitted paths themselves, renamed back to the original labels and
each read from its smaller end; under every other map, which keeps the
labels, it compares count and nodes_visited.  They catch faults that
depend on labels, orientation or coordinate size, not a geometric rule
that is wrong the same way on every labelling.

Reference: T. Y. Chen, S. C. Cheung, S. M. Yiu, "Metamorphic testing: a new
approach for generating next test cases", HKUST-CS98-01, 1998.
"""

import random

import pytest

from noncross import (
    FamilySpec,
    PointSet,
    enumerate_ham_paths,
    enumerate_paths,
    enumerate_polygonalizations,
    enumerate_surrounding,
)

ENUMERATORS = {
    "paths": enumerate_paths,
    "ham": enumerate_ham_paths,
    "surround": enumerate_surrounding,
    "poly": enumerate_polygonalizations,
}

# The seven symmetries of the square other than the identity, as (a, b, c, d)
# for (x, y) -> (a x + b y, c x + d y).
SYMMETRIES = [(0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0)]
SHEARS = [(1, 1, 0, 1), (2, 1, 1, 1)]  # (x + y, y) and (2x + y, x + y)


def _linear(a, b, c, d):
    return lambda pts: [(a * x + b * y, c * x + d * y) for x, y in pts]


def _relabel(seed):
    def apply(pts):
        order = list(range(len(pts)))
        random.Random(seed).shuffle(order)
        return [pts[i] for i in order]

    return apply


MAPS = {"relabel": _relabel(7)}
MAPS.update({f"symmetry{m}": _linear(*m) for m in SYMMETRIES})
MAPS.update({f"shear{m}": _linear(*m) for m in SHEARS})
MAPS["translate"] = lambda pts: [(x + 10**12, y - 10**12) for x, y in pts]

FAST = ["grid:3x3", "one_sided:4,3", "collinear:6", "pseudotriangle:9"]
FAST += [f"random:{n},{seed},3" for n in (8, 9) for seed in range(4)]
SLOW = ["grid:3x4", "random:10,0", "random:10,1", "random:10,2"]


def _shape(points):
    s = PointSet(points)
    shape = {}
    for kind, enumerate_ in ENUMERATORS.items():
        out = enumerate_(s)
        shape[kind] = (out.count, out.nodes_visited)
    return shape


def _ham_paths(points, labels):
    """The ham count and the set of emitted paths, renamed by labels, each from its smaller end."""
    paths = set()

    def add(seq):
        seq = [labels[v] for v in seq]
        paths.add(tuple(seq if seq[0] <= seq[-1] else reversed(seq)))

    return enumerate_ham_paths(PointSet(points), add).count, paths


def _check(instance):
    points = list(FamilySpec.from_string(instance).build().points)
    want = _shape(points)
    changed = {}
    for name, apply in MAPS.items():
        image = apply(points)
        got, expected = _shape(image), want
        if name == "relabel":
            index = {p: i for i, p in enumerate(points)}
            got["ham"] = _ham_paths(image, [index[p] for p in image])
            expected = {**want, "ham": _ham_paths(points, range(len(points)))}
        if got != expected:
            changed[name] = got
    assert not changed, (instance, want, changed)


@pytest.mark.parametrize("instance", FAST)
def test_counts_and_nodes_are_invariant(instance):
    _check(instance)


@pytest.mark.slow
@pytest.mark.parametrize("instance", SLOW)
def test_counts_and_nodes_are_invariant_on_larger_sets(instance):
    _check(instance)


def test_maps_are_what_they_claim():
    # Each map must be a bijection onto distinct integer points, and the
    # linear ones must have determinant +1 or -1, so nothing is merged or
    # rescaled away.
    points = list(FamilySpec.from_string("random:9,0,3").build().points)
    for name, apply in MAPS.items():
        image = apply(points)
        assert len(set(image)) == len(points) and image != points, name
        assert all(isinstance(v, int) for p in image for v in p), name
    for a, b, c, d in SYMMETRIES + SHEARS:
        assert abs(a * d - b * c) == 1
