"""Deterministic generators for the parametric point families.

Every generator returns the same PointSet for the same arguments on every
platform.  Coordinates are small exact integers; profiles that the rest of
the package relies on (which points are hull vertices, how many are
collinear) are asserted at construction time rather than trusted.

Families (``_FAMILIES`` is the one list of them, with each generator's
spec syntax):

* ``convex``: points (i, i^2) on a parabola; strictly convex, no 3 collinear.
* ``pseudotriangle``: a strictly convex chain (i, i^2) for i = 0..n-2 plus
  an apex below it at (n-2, -(n-2)^2 - 1); the hull is exactly the chain
  ends and the apex, every other chain point is strictly interior, and no
  3 points are collinear.
* ``grid``: the full integer grid {0..cols-1} x {0..rows-1}, row-major.
* ``collinear``: (i, 0).
* ``one_sided``: ell points (i, 0) on the x axis plus off points
  (i, 2 i^2 + 1) strictly above it in strictly convex position; the factor
  2 makes every line through two off points cross the axis at a
  non-integer x, so no line beats the axis for ell >= 2.
* ``random``: uniform points in [0, bound]^2 from a seeded generator,
  resampling duplicates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .geom import PointSet, convex_hull
from .params import max_collinear


def gen_convex(n: int) -> PointSet:
    if n < 1:
        raise ValueError("convex family needs n >= 1")
    return PointSet((i, i * i) for i in range(n))


def gen_pseudotriangle(n: int) -> PointSet:
    if n < 3:
        raise ValueError("pseudotriangle family needs n >= 3")
    chain = [(i, i * i) for i in range(n - 1)]
    apex = (n - 2, -((n - 2) ** 2) - 1)
    s = PointSet(chain + [apex])
    hull = convex_hull(s)
    assert set(hull.vertices) == {0, n - 2, n - 1} and not hull.on_edge
    assert n == 3 or max_collinear(s).size == 2
    return s


def gen_grid(rows: int, cols: int) -> PointSet:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    return PointSet((x, y) for y in range(rows) for x in range(cols))


def gen_collinear(n: int) -> PointSet:
    if n < 1:
        raise ValueError("collinear family needs n >= 1")
    return PointSet((i, 0) for i in range(n))


def gen_one_sided(ell: int, off: int) -> PointSet:
    if ell < 1 or off < 0:
        raise ValueError("one_sided needs ell >= 1 and off >= 0")
    pts = [(i, 0) for i in range(ell)]
    pts += [(i, 2 * i * i + 1) for i in range(off)]
    s = PointSet(pts)
    if ell >= 2:
        assert max_collinear(s).size == max(ell, 2)
    return s


def gen_random(n: int, seed: int, bound: int = 32) -> PointSet:
    if n < 1:
        raise ValueError("random family needs n >= 1")
    if bound < 1 or (bound + 1) ** 2 < n:
        raise ValueError(f"cannot place {n} distinct points in [0,{bound}]^2")
    rng = random.Random(seed)
    chosen: list[tuple[int, int]] = []
    taken = set()
    while len(chosen) < n:
        p = (rng.randrange(bound + 1), rng.randrange(bound + 1))
        if p not in taken:
            taken.add(p)
            chosen.append(p)
    return PointSet(chosen)


# The one list of families: each name maps to its generator, the separator
# of its arguments in a spec, and the argument counts the generator takes.
_FAMILIES = {
    "convex": (gen_convex, ",", (1,)),
    "pseudotriangle": (gen_pseudotriangle, ",", (1,)),
    "collinear": (gen_collinear, ",", (1,)),
    "grid": (gen_grid, "x", (2,)),
    "one_sided": (gen_one_sided, ",", (2,)),
    "random": (gen_random, ",", (2, 3)),
}


@dataclass(frozen=True)
class FamilySpec:
    """One generated instance: a family of ``_FAMILIES`` and its generator's arguments.

    String form (as accepted on the command line):
    ``convex:N``, ``pseudotriangle:N``, ``collinear:N``, ``grid:RxC``,
    ``one_sided:ELL,OFF``, ``random:N,SEED`` or ``random:N,SEED,BOUND``.
    """

    family: str
    args: tuple[int, ...]

    @classmethod
    def from_string(cls, text: str) -> "FamilySpec":
        family, _, arg = text.partition(":")
        family = family.strip().lower()
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r} in {text!r}")
        _, sep, counts = _FAMILIES[family]
        try:
            args = tuple(int(v) for v in arg.split(sep))
            if len(args) not in counts:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse generator spec {text!r}") from None
        return cls(family, args)

    def build(self) -> PointSet:
        return _FAMILIES[self.family][0](*self.args)
