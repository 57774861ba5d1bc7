"""Structural parameters of a point set: offline count and interior count.

``offline`` is the minimum number of points whose removal leaves a collinear
set (equivalently n minus the size of the largest collinear subset) and
``inhull`` is the number of points strictly interior to the convex hull.
Both drive every bound and estimator in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .geom import PointSet, convex_hull


class MaxCollinear(NamedTuple):
    size: int
    witness_line: tuple[int, int] | None


def max_collinear(s: PointSet) -> MaxCollinear:
    """Largest number of points on one line, with a witness pair spanning it.

    For n <= 2 the whole set is collinear (witness is None for a single
    point).  Runs in O(n^2) by bucketing the direction from each point to
    every later point; directions are normalized exactly via gcd.
    """
    n = s.n
    if n == 0:
        raise ValueError("max_collinear of an empty point set")
    if n == 1:
        return MaxCollinear(1, None)
    pts = s.points
    best = 2
    witness = (0, 1)
    for i in range(n - 1):
        xi, yi = pts[i]
        groups: dict[tuple[int, int], tuple[int, int]] = {}
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            count, first_j = groups.get((dx, dy), (0, j))
            groups[(dx, dy)] = (count + 1, first_j)
        for count, first_j in groups.values():
            if count + 1 > best:
                best = count + 1
                witness = (i, first_j)
    return MaxCollinear(best, witness)


def offline(s: PointSet) -> int:
    """Minimum number of points to remove so the rest are collinear."""
    return s.n - max_collinear(s).size


def inhull(s: PointSet) -> int:
    """Number of points strictly interior to the convex hull.

    Points lying inside a hull edge are boundary, not interior, and hull
    vertices are only the extreme points.
    """
    hull = convex_hull(s)
    return s.n - len(hull.vertices) - len(hull.on_edge)


@dataclass(frozen=True)
class ParamReport:
    n: int
    offline_k: int
    inhull_h: int
    m: int
    max_collinear: int
    witness_line: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "offline": self.offline_k,
            "inhull": self.inhull_h,
            "m": self.m,
            "max_collinear": self.max_collinear,
            "witness_line": list(self.witness_line) if self.witness_line else None,
        }


def param_report(s: PointSet) -> ParamReport:
    mc = max_collinear(s)
    k = s.n - mc.size
    h = inhull(s)
    return ParamReport(
        n=s.n,
        offline_k=k,
        inhull_h=h,
        m=min(k, h),
        max_collinear=mc.size,
        witness_line=mc.witness_line,
    )
