"""Fixed pure-Python workload that measures the host's speed, not the program's.

``run.py`` runs it as a fresh process next to every ``noncross`` command and
divides the command's wall time by its wall time, so that the host's speed,
which drifts by tens of percent over minutes on a shared machine, cancels
out.  It imports nothing from ``noncross`` and must not change: a change here
rescales every end-to-end timing of the benchmark.

Like the program, it is interpreter-bound: integer orientation tests on
lattice points, tuples, sets and a recursive search.  It prints one checksum,
which ``run.py`` compares with ``CHECKSUM``.
"""

import sys

N_POINTS = 11
PATH_VERTICES = 5
CHECKSUM = "40 15860"


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def crosses(p, q, r, s):
    """Do the segments pq and rs cross at an interior point?"""
    return (cross(p, q, r) * cross(p, q, s) < 0) and (cross(r, s, p) * cross(r, s, q) < 0)


def count_plane_paths(points, length):
    """Non-crossing polygonal paths with ``length`` vertices, each counted once."""
    n = len(points)

    def extend(path, used):
        if len(path) == length:
            return 1
        total = 0
        last = points[path[-1]]
        for v in range(n):
            if v in used:
                continue
            new = points[v]
            if any(crosses(last, new, points[path[i]], points[path[i + 1]])
                   for i in range(len(path) - 2)):
                continue
            used.add(v)
            path.append(v)
            total += extend(path, used)
            path.pop()
            used.discard(v)
        return total

    return sum(extend([v], {v}) for v in range(n)) // 2


def count_queens(n):
    def place(row, cols, d1, d2):
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if c not in cols and row - c not in d1 and row + c not in d2:
                total += place(row + 1, cols | {c}, d1 | {row - c}, d2 | {row + c})
        return total
    return place(0, frozenset(), frozenset(), frozenset())


def main() -> int:
    points = [((i * 37) % 13, (i * i * 11) % 17) for i in range(N_POINTS)]
    print(count_queens(7), count_plane_paths(points, PATH_VERTICES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
