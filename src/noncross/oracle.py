"""Brute-force oracles that certify the fast enumerators.

The oracles share no search logic with the enumerators they check: paths
are grown by re-testing every candidate segment from scratch against the
whole ground set (the validator's conditions, applied incrementally), and
polygons are found by trying every vertex subset containing the hull
vertices in every cyclic order and filtering with the public validator.
Only the exact geometric predicates, the validators themselves and the
canonical forms are shared, the latter deliberately so that both sides
deduplicate structures identically.

All oracle output is deterministic and sorted.  Ground sets are capped by
an explicit limit because the candidate spaces are factorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .geom import (
    PointSet,
    SegmentRelation,
    convex_hull,
    on_open_segment,
    segment_relation,
)
from .polygons import canonical_cycle, is_surrounding_polygon

DEFAULT_PATH_LIMIT = 9
DEFAULT_SURROUND_LIMIT = 8


def _check_limit(s: PointSet, limit: int, kind: str) -> None:
    if s.n > limit:
        raise ValueError(
            f"{kind} oracle limited to {limit} points, got {s.n}; "
            "raise the limit explicitly if you really want the blowup"
        )


def _extension_ok(s: PointSet, seq: list[int], u: int) -> bool:
    """Naive re-check that appending u keeps the sequence a valid path."""
    pts = s.points
    a = pts[seq[-1]]
    b = pts[u]
    for w in pts:
        if w != a and w != b and on_open_segment(w, a, b):
            return False
    share = SegmentRelation.SHARE_ENDPOINT_ONLY
    disjoint = SegmentRelation.DISJOINT
    for i in range(len(seq) - 1):
        rel = segment_relation(pts[seq[i]], pts[seq[i + 1]], a, b)
        if i == len(seq) - 2:
            if rel is not share:
                return False
        elif rel is not disjoint:
            return False
    return True


@lru_cache(maxsize=64)
def _path_structures(s: PointSet) -> tuple[tuple[int, ...], ...]:
    """Every non-crossing path of s, canonical (start < end), sorted.

    Exhaustive growth: every valid sequence extends a valid sequence, so a
    depth-first sweep trying all n extensions of every valid sequence sees
    exactly the valid ones.
    """
    found: list[tuple[int, ...]] = []
    seq: list[int] = []
    used = [False] * s.n

    def rec() -> None:
        k = len(seq)
        if k == 1:
            found.append((seq[0],))
        elif k >= 2 and seq[0] < seq[-1]:
            found.append(tuple(seq))
        for u in range(s.n):
            if not used[u] and _extension_ok(s, seq, u):
                used[u] = True
                seq.append(u)
                rec()
                seq.pop()
                used[u] = False

    for start in range(s.n):
        used[start] = True
        seq.append(start)
        rec()
        seq.pop()
        used[start] = False
    return tuple(sorted(found))


def brute_paths(s: PointSet, limit: int = DEFAULT_PATH_LIMIT):
    """(count, canonical sorted list) of all non-crossing paths of s."""
    _check_limit(s, limit, "path")
    structures = list(_path_structures(s))
    return len(structures), structures


def brute_ham(s: PointSet, limit: int = DEFAULT_PATH_LIMIT):
    """(count, canonical sorted list) of all non-crossing Hamiltonian paths."""
    _check_limit(s, limit, "path")
    structures = [p for p in _path_structures(s) if len(p) == s.n]
    return len(structures), structures


@lru_cache(maxsize=64)
def _surround_structures(s: PointSet) -> tuple[tuple[int, ...], ...]:
    """Every surrounding polygon of s in canonical form, sorted."""
    if s.n < 3:
        return ()
    hull = convex_hull(s)
    if hull.degenerate:
        return ()
    hull_verts = sorted(hull.vertices)
    free = [i for i in range(s.n) if i not in set(hull_verts)]
    found: set[tuple[int, ...]] = set()
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            verts = sorted(hull_verts + list(extra))
            if len(verts) < 3:
                continue
            first, rest = verts[0], verts[1:]
            for perm in permutations(rest):
                if len(perm) > 1 and perm[0] > perm[-1]:
                    continue  # reflection seen already
                cycle = (first,) + perm
                if is_surrounding_polygon(s, cycle):
                    found.add(canonical_cycle(s, cycle))
    return tuple(sorted(found))


def brute_surround(s: PointSet, limit: int = DEFAULT_SURROUND_LIMIT):
    """(count, canonical sorted list) of all surrounding polygons of s."""
    _check_limit(s, limit, "surrounding-polygon")
    structures = list(_surround_structures(s))
    return len(structures), structures


def brute_poly(s: PointSet, limit: int = DEFAULT_SURROUND_LIMIT):
    """(count, canonical sorted list) of all polygonalizations of s.

    Direct sweep over the cyclic orders of the full vertex set; cheaper
    than the subset sweep, so the limit may be raised a little further.
    """
    _check_limit(s, limit, "polygonalization")
    if s.n < 3 or convex_hull(s).degenerate:
        return 0, []
    found = []
    rest = range(1, s.n)
    for perm in permutations(rest):
        if len(perm) > 1 and perm[0] > perm[-1]:
            continue
        cycle = (0,) + perm
        if is_surrounding_polygon(s, cycle):
            found.append(canonical_cycle(s, cycle))
    found.sort()
    return len(found), found


def dp_010_avoiding(n: int, ones: int) -> int:
    """Count 010-avoiding binary sequences by direct dynamic programming.

    Independent of the closed-form alternating sum: walks positions with
    state (ones used, previous two bits).
    """
    if not 0 <= ones <= n:
        raise ValueError("ones count out of range")
    # state: (ones_used, prev2, prev1) -> ways; prev bits start as 1s so the
    # first real 0,1,0 window is the earliest possible one.
    states = {(0, 1, 1): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int, int], int] = {}
        for (used, p2, p1), ways in states.items():
            for bit in (0, 1):
                if bit == 0 and p2 == 0 and p1 == 1:
                    continue
                u = used + bit
                if u > ones:
                    continue
                key = (u, p1, bit)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(w for (used, _, _), w in states.items() if used == ones)


@dataclass(frozen=True)
class ClassCheck:
    oracle_count: int
    enum_count: int
    match: bool
    witness: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "oracle_count": self.oracle_count,
            "enum_count": self.enum_count,
            "match": self.match,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    classes: dict

    @property
    def all_match(self) -> bool:
        return all(c.match for c in self.classes.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "all_match": self.all_match,
            "classes": {k: v.to_json_dict() for k, v in self.classes.items()},
        }


def _compare(oracle_list, enum_list) -> ClassCheck:
    oracle_set = set(oracle_list)
    enum_set = set(enum_list)
    match = oracle_set == enum_set and len(enum_list) == len(enum_set)
    witness = None
    if not match:
        diff = oracle_set.symmetric_difference(enum_set)
        if diff:
            witness = min(diff)
        else:  # the enumerator emitted something twice
            seen: set = set()
            dups = {x for x in enum_list if x in seen or seen.add(x)}
            witness = min(dups)
    return ClassCheck(len(oracle_list), len(enum_list), match, witness)


def cross_check(s: PointSet, oracle_limit: int = DEFAULT_SURROUND_LIMIT) -> CrossCheckReport:
    """Certify all four fast enumerators against the oracles on one set.

    Counts and canonical structure sets must both agree; the first
    structure in the symmetric difference is reported as a witness on
    mismatch.  Enumerator functions are looked up through their modules at
    call time so tests can inject faults.
    """
    from . import paths as paths_mod
    from . import polygons as polygons_mod

    _check_limit(s, oracle_limit, "cross-check")
    report: dict[str, ClassCheck] = {}
    for key, module, name, oracle in (
        ("path", paths_mod, "enumerate_paths", brute_paths),
        ("ham", paths_mod, "enumerate_ham_paths", brute_ham),
        ("surround", polygons_mod, "enumerate_surrounding", brute_surround),
        ("poly", polygons_mod, "enumerate_polygonalizations", brute_poly),
    ):
        collected: list[tuple[int, ...]] = []
        getattr(module, name)(s, collected.append)
        report[key] = _compare(oracle(s, oracle_limit)[1], collected)
    return CrossCheckReport(s.n, report)
