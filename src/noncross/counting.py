"""Closed-form counts and log-scale count estimators.

Exact formulas covered here, all over arbitrary-precision integers:

* points in convex position: n * 2^(n-3) Hamiltonian paths and
  n * (3^(n-1) + 3) / 4 non-crossing paths in total (single vertices count
  as length-zero paths);
* the chain-plus-apex family: (n-1) * 2^(n-4) polygonalizations and a
  triple-sum count of surrounding polygons, cross-checkable against the
  series of (1 - 2x) / (1 - 3x + x^2)^2;
* the number of binary sequences with given length and ones count avoiding
  the pattern 010, by an alternating binomial sum.

``estimate`` reports the growth scales implied by the two structural
parameters.  The scales are proportionality proxies (no constants are
claimed); ``proven_ham_lower_log2`` alone is an exact proven bound, coming
from the visible-vertex path tree: any non-collinear set has at least
ceil(1.5 * 2^offline) non-crossing Hamiltonian paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import PointSet
from .params import max_collinear, param_report


def convex_ham_count(n: int) -> int:
    """Non-crossing Hamiltonian paths of n points in convex position."""
    if n < 2:
        raise ValueError("needs at least 2 points")
    if n == 2:
        return 1
    return n * 2 ** (n - 3)


def convex_path_count(n: int) -> int:
    """All non-crossing paths of n points in convex position, singles included."""
    if n < 1:
        raise ValueError("needs at least 1 point")
    num = n * (3 ** (n - 1) + 3)
    assert num % 4 == 0
    return num // 4


def pseudotriangle_poly_count(n: int) -> int:
    """Polygonalizations of the chain-plus-apex family on n points."""
    if n < 3:
        raise ValueError("needs at least 3 points")
    if n == 3:
        return 1
    return (n - 1) * 2 ** (n - 4)


def _comb(n: int, k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0 or k > n:
        return 0
    return math.comb(n, k)


def pseudotriangle_surround_count(n: int) -> int:
    """Surrounding polygons of the chain-plus-apex family on n points.

    Sums over the splits (a, b, c) of the n - 3 non-corner chain points
    into outer points, retained inner points, and omitted inner points:
    (a + 1) * C(a + b, a) * C(b + c, b).
    """
    if n < 3:
        raise ValueError("needs at least 3 points")
    total = 0
    t = n - 3
    for a in range(t + 1):
        for b in range(t - a + 1):
            c = t - a - b
            total += (a + 1) * _comb(a + b, a) * _comb(b + c, b)
    return total


def surround_series(order: int) -> list[int]:
    """Coefficients 0..order of (1 - 2x) / (1 - 3x + x^2)^2.

    Independent cross-check for ``pseudotriangle_surround_count``: the
    coefficient of x^(n-3) must equal the count for n points.  Computed by
    long division of the power series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [1, -2]
    den = [1, -6, 11, -6, 1]  # (1 - 3x + x^2)^2
    coeffs: list[int] = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc)
    return coeffs


def count_010_avoiding(n: int, ones: int) -> int:
    """Binary sequences of length n with the given ones count and no 010.

    Alternating sum over j of (-1)^j C(n-ones-1, j) C(|n-2j|, ones-j), with
    C(m, 0) = 1 for every m and C(m, k) = 0 for k < 0 or k > m >= 0.
    """
    if not 0 <= ones <= n:
        raise ValueError("ones count out of range")
    total = 0
    for j in range(n - ones + 1):
        term = _comb(n - ones - 1, j) * _comb(abs(n - 2 * j), ones - j)
        total += -term if j % 2 else term
    return total


def log_binom(n: int, k: int) -> float:
    """Natural log of C(n, k) by summing logs of the factor ratios."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    k = min(k, n - k)
    return sum(math.log(n - k + i) - math.log(i) for i in range(1, k + 1))


@dataclass(frozen=True)
class EstimateReport:
    """Structure-count scales for one point set, logs base 2.

    ``path_scale``/``ham_scale``/``poly_scale`` are growth proxies implied
    by the parameters (k = offline, h = inhull, m = min of the two); they
    carry no constants.  ``proven_ham_lower_log2`` is an exact bound:
    log2 of 1.5 * 2^k for non-collinear sets, 0 otherwise.
    """

    n: int
    offline_k: int
    inhull_h: int
    m: int
    path_scale: float
    ham_scale: float
    poly_scale: float
    proven_ham_lower_log2: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "offline": self.offline_k,
            "inhull": self.inhull_h,
            "m": self.m,
            "path_scale": self.path_scale,
            "ham_scale": self.ham_scale,
            "poly_scale": self.poly_scale,
            "proven_ham_lower_log2": self.proven_ham_lower_log2,
        }


@dataclass(frozen=True)
class CountReport:
    """Exact counts per structure class; None marks a class not computed."""

    path: int | None = None
    ham: int | None = None
    surround: int | None = None
    poly: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "path": self.path,
            "ham": self.ham,
            "surround": self.surround,
            "poly": self.poly,
        }


def estimate(s: PointSet) -> EstimateReport:
    """EstimateReport for a point set (n >= 1)."""
    if s.n == 0:
        raise ValueError("estimate of an empty point set")
    params = param_report(s)
    n, k, m = params.n, params.offline_k, params.m
    ham_scale = k * math.log2(n / (k + 1)) if k else 0.0
    path_scale = math.log2(n) + ham_scale
    poly_scale = m * (math.log2(n / m) + 1) if m else 0.0
    proven = 0.0 if params.max_collinear == n else k + math.log2(1.5)
    return EstimateReport(
        n=n,
        offline_k=k,
        inhull_h=params.inhull_h,
        m=m,
        path_scale=path_scale,
        ham_scale=ham_scale,
        poly_scale=poly_scale,
        proven_ham_lower_log2=proven,
    )


def proven_ham_lower(s: PointSet) -> int:
    """Exact proven lower bound on the Hamiltonian path count of s."""
    if s.n == 0:
        return 0
    mc = max_collinear(s).size
    if mc == s.n:
        return 1
    k = s.n - mc  # k >= 1 here, so 3 * 2^k is even
    return 3 * 2 ** k // 2
