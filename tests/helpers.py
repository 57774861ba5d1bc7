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


def walk_made(roots, children, check, sink=None):
    """``tree_search`` of a tree, with ``check`` called on every node as it is made.

    The driver never passes a leaf (a node whose slot 2 is 0) to
    ``children``, so a check hooked there would miss the leaves.  Here each
    root is checked before the walk and each child when ``children``
    returns it; a check that needs a node's children calls the raw
    ``children`` itself.
    """
    from noncross.paths import tree_search

    for root in roots or ():
        check(root)

    def checked(node):
        kids = children(node)
        for kid in kids:
            check(kid)
        return kids

    return tree_search(roots, checked, sink)


def emitting(roots, children, emit):
    """The same tree with ``emit(node)`` as what each node emits, for ``tree_search``.

    A node becomes ``(node[0], emit(node), 1, node)``: slot 2 is never 0,
    so every node, leaves too, goes to ``children``, and a test can give a
    tree an emission rule of its own.
    """
    def wrap(node):
        return node[0], emit(node), 1, node

    return [wrap(root) for root in roots], lambda w: [wrap(kid) for kid in children(w[3])]


def count_polygonalizations_by_paths(s):
    """Polygonalizations of s, counted on the Hamiltonian path tree.

    A second exact counter that shares none of the polygon rules (parent
    rule, pockets, insertion tests).  It walks root 0's subtree of
    ``path_tree(s, ham=True)``: with start 0 the orientation rule drops
    nothing and the degree test is sound, so every polygonalization opened
    at 0 is a full-length node there, once in each direction.  Such a node
    closes when its closing segment (last, 0) is clear and lies in no
    conflict row of a middle segment, one that touches neither 0 nor last;
    the first and last segments meet it only at their shared vertex, by the
    "Last segment" bullet of ``paths._path_children``.  A polygon needs
    three vertices, and with n = 3 every segment is first, last or closing.
    """
    from noncross.paths import ConflictKernel, path_tree, tree_search

    if s.n < 3:
        return 0
    kernel = ConflictKernel(s)
    roots, children, _ = path_tree(s, ham=True)
    closed = 0

    def close(seq):
        nonlocal closed
        last = seq[-1]
        mid = 0
        for a, b in zip(seq[1:-2], seq[2:-1]):
            mid |= kernel.rows[a][b]
        closed += kernel.clear[last] & 1 and not mid & kernel.bit[last][0]

    tree_search(roots[:1], children, close)
    assert closed % 2 == 0, closed
    return closed // 2
