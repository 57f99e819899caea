"""The edge involution and the bijection onto increasing plane trees.

:func:`flip_edge` is an involution on plane trees that toggles the status of
one chosen edge while leaving the status of every other edge unchanged.  For
the edge e = (i, j) write A for the subtrees hanging off j's left siblings,
B for the subtrees of j's children and C for the subtrees of j's right
siblings.  The flip puts j in i's former position, gives j the children
roots(A) ++ [i] ++ roots(B), and gives i the children roots(C).  Edge ids
persist through the move: i's former parent edge now attaches to j, the A
edges now leave j, e itself now joins j to i, and the B and C edges are
untouched, as is everything strictly inside A, B and C.  Edge tags travel
with their ids.

:func:`to_increasing` flips, one after another in first-descent order, the
edges of its input that the classifier ``tree._improper_flags`` marks
improper; the result is an increasing plane tree on the same label set.
Flipped edges are tagged x, all others y; with ``rooted=True`` the edges at
vertex 1, which are never improper, are tagged t instead.
:func:`from_increasing` inverts this by flipping the x-tagged edges of a
tagged increasing tree.  The flips involved commute, so each map really is
a bijection and the two are mutually inverse.

A flip at e = (i, j) rewires only e, the edge above i and the edges from i
to j's left siblings, and in the input's first-descent order all of these
come at or before e.  Every flip here goes in that order, so when e's turn
comes, the vertex at input position j still hangs off its input parent
``tree.parents[j]`` by e.  All three maps run ``_flip_in_order`` on one
mutable copy of the tree: each sibling list is circular and doubly linked
through a header node (Knuth, TAOCP Vol. 1, 2.2.5 and 2.3.2), so a flip is
a fixed splice with i read off the input, and one preorder walk, climbing
at each header, emits the output.  A bijection costs O(n), not the O(n^2)
of rebuilding every ancestor per flip.
"""

from __future__ import annotations

from itertools import compress

from .tree import (
    IMPROPER_TAG,
    PROPER_TAG,
    ROOT_TAG,
    PlaneTree,
    _edge_position,
    _improper_flags,
    _require_input,
    is_increasing,
)


def _flip_in_order(tree: PlaneTree, positions: list[int],
                   tags: dict[int, str] | None) -> PlaneTree:
    """Flip the edges into the given input positions, ascending, in place on
    one linked copy of the tree, and return the result tagged ``tags``."""
    count = len(tree.labels)
    parents = tree.parents
    # nodes 0..count-1 are the vertices; node v + count heads v's circular
    # list of children and node 2 * count heads the root's list
    next_ = list(range(2 * count + 1))
    next_[0], next_[-1] = 2 * count, 0
    prev = next_[:]
    # preorder reaches siblings left to right: append to each list
    for v in range(1, count):
        h = parents[v] + count
        last = prev[h]
        next_[last] = prev[h] = v
        prev[v], next_[v] = last, h
    edge = list(tree.edges)
    for j in positions:
        # every earlier flip rewired only edges before j's, so j still hangs
        # off its input parent, and A, j, C are i's children
        i = parents[j]
        up_prev, up_next = prev[i], next_[i]
        a_last, c_first = prev[j], next_[j]
        # j takes i's place, and i takes j's: i's list is now A, i, C
        next_[up_prev] = prev[up_next] = j
        prev[j], next_[j] = up_prev, up_next
        next_[a_last] = i
        prev[i] = a_last
        # rotate the list heads: j's children A, i, B and i's children C
        hi, hj = i + count, j + count
        a_first, b_first = next_[hi], next_[hj]
        next_[i], next_[hi], next_[hj] = b_first, c_first, a_first
        prev[b_first], prev[c_first], prev[a_first] = i, hi, hj
        edge[i], edge[j] = edge[j], edge[i]
    # the output in preorder: descend to first children, climb at headers
    labels = tree.labels
    out_labels: list[int] = []
    out_parents: list[int] = []
    out_edges: list[int] = []
    # output positions of the current ancestors, over the root's parent -1
    above = [-1]
    end = 2 * count
    v = next_[end]
    while True:
        out_labels.append(labels[v])
        out_parents.append(above[-1])
        out_edges.append(edge[v])
        if next_[v + count] != v + count:
            above.append(len(out_parents) - 1)
            v = next_[v + count]
            continue
        v = next_[v]
        while count <= v < end:  # a vertex's list header: climb
            above.pop()
            v = next_[v - count]
        if v == end:
            break
    return PlaneTree._trusted(tuple(out_labels), tuple(out_parents),
                              tuple(out_edges), tags)


def flip_edge(tree: PlaneTree, edge: int) -> PlaneTree:
    """Apply the involution at one edge; a new tree, input untouched."""
    return _flip_in_order(tree, [_edge_position(tree, edge)], tree.tags)


def to_increasing(tree: PlaneTree, rooted: bool = False) -> PlaneTree:
    """Map a labeled plane tree to a tagged increasing plane tree.

    Requires labels 1..n+1 and an untagged input.  ``rooted=True``
    additionally requires root label 1 and tags the edges at vertex 1
    with t instead of y.
    """
    _require_input(tree, tagged=False, increasing=False)
    if rooted and tree.labels[0] != 1:
        raise ValueError("rooted mode requires root label 1")

    flags = _improper_flags(tree)
    # in rooted mode vertex 1 is the root, and no edge at it is improper
    at_root = ROOT_TAG if rooted else PROPER_TAG
    tags = {eid: IMPROPER_TAG if improper else at_root if p == 0 else PROPER_TAG
            for eid, improper, p in zip(tree.edges[1:], flags[1:],
                                        tree.parents[1:])}

    out = _flip_in_order(tree, list(compress(range(len(flags)), flags)), tags)
    if not is_increasing(out):
        raise RuntimeError("flipping the improper edges left a decreasing edge")
    return out


def from_increasing(tree: PlaneTree) -> PlaneTree:
    """Invert :func:`to_increasing`; returns the untagged preimage.

    Requires an increasing tree on labels 1..n+1 with every edge tagged,
    and tag t either absent or on exactly the root's edges.
    """
    _require_input(tree, tagged=True, increasing=True)
    tags = tree.tags or {}
    t_edges = {eid for eid, tag in tags.items() if tag == ROOT_TAG}
    if t_edges and t_edges != {eid for eid, p in zip(tree.edges, tree.parents)
                               if p == 0}:
        raise ValueError("tag t must be on every edge at the root "
                         "and nowhere else")
    # the x-tagged edges by child end: first-descent order
    return _flip_in_order(tree, [j for j, eid in enumerate(tree.edges[1:], 1)
                                 if tags[eid] == IMPROPER_TAG], None)
