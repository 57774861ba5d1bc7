"""Checks shared by more than one test module."""

import itertools


def check_pockets(s, kernel):
    # Inserting v into the edge uw cuts out the points of the closed
    # triangle uvw that are off the closed segments uv and vw.
    from noncross.geom import on_closed_segment, point_in_triangle

    pts = s.points
    for u, v, w in itertools.permutations(range(s.n), 3):
        a, b, c = pts[u], pts[v], pts[w]
        want = sum(1 << z for z, q in enumerate(pts)
                   if point_in_triangle(q, a, b, c) and not on_closed_segment(q, a, b)
                   and not on_closed_segment(q, b, c))
        assert kernel.pocket(u, v, w) == want, (u, v, w)
