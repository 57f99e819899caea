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

:func:`to_increasing` flips, one after another, the improper edges of its
input (ids frozen up front, in first-descent order); the result is an
increasing plane tree on the same label set.  Flipped edges are tagged x,
all others y; with ``rooted=True`` the edges at vertex 1, which are never
improper, are tagged t instead.  :func:`from_increasing` inverts this by
flipping the x-tagged edges of a tagged increasing tree.  The flips involved
commute, so each map really is a bijection and the two are mutually inverse.

All three work on one mutable copy of the tree in first-child/next-sibling
form (Knuth, TAOCP Vol. 1, 2.3.2), built from the input's ``parents`` in one
loop: they apply every flip in place and emit the output's preorder arrays
by one walk, so a bijection costs O(n) rather than the O(n^2) of rebuilding
every ancestor per flip.  In this form a flip is a constant-size rewiring of
sibling and child links once i = parent(j) is known.  Parent pointers are
kept valid only at the two ends of each sibling list, so finding i means
walking from j to an end of its list.  The walk goes left and right at the
same time and stops at the nearer end: flipping in first-descent order
makes A grow by one per flip on a decreasing path, and makes C long on a
star whose children increase, so a walk to either fixed end would make one
of those shapes quadratic.  The walk that emits the result climbs only from
a last child, whose parent pointer is valid.
"""

from __future__ import annotations

from .tree import (
    IMPROPER_TAG,
    PROPER_TAG,
    ROOT_TAG,
    EdgeRef,
    PlaneTree,
    _improper_flags,
    has_canonical_labels,
    is_increasing,
)


class _SiblingArrays:
    """A mutable copy of a tree for flipping in place; -1 means none.

    Each vertex keeps its first child and its previous and next siblings.
    ``parent[v]`` is valid while v is the first or the last child of its
    parent, and is -1 for the root.  ``edge[v]`` is the id of the edge into
    v (-1 for the root) and ``child`` maps each edge id back to v.
    """

    __slots__ = ("label", "first", "prev", "next", "parent", "edge", "child",
                 "root")

    def __init__(self, tree: PlaneTree):
        count = len(tree.labels)
        first, last = [-1] * count, [-1] * count
        prev, next_ = [-1] * count, [-1] * count
        parents = tree.parents
        # preorder reaches siblings left to right: append to each list
        for v in range(1, count):
            p = parents[v]
            before = last[p]
            prev[v] = before
            if before < 0:
                first[p] = v
            else:
                next_[before] = v
            last[p] = v
        self.label, self.edge = tree.labels, list(tree.edges)
        self.child = dict(zip(tree.edges[1:], range(1, count)))
        self.first, self.prev, self.next = first, prev, next_
        self.parent = list(parents)
        self.root = 0

    def flip(self, eid: EdgeRef) -> None:
        """Apply the involution at one edge, in place."""
        j = self.child.get(eid)
        if j is None:
            raise ValueError(f"no edge with id {eid}")
        first, prev, next_, parent = self.first, self.prev, self.next, self.parent
        # i = parent(j), read off whichever end of j's sibling list is nearer
        a = b = j
        while prev[a] >= 0 and next_[b] >= 0:
            a = prev[a]
            b = next_[b]
        i = parent[a] if prev[a] < 0 else parent[b]

        a_last, c_first = prev[j], next_[j]
        b_first = first[j]
        up_prev, up_next = prev[i], next_[i]

        # j takes i's place among i's siblings, or as the root
        prev[j], next_[j] = up_prev, up_next
        if up_prev < 0 or up_next < 0:
            up = parent[i]  # valid: i is at an end of its list, or the root
            parent[j] = up
            if up < 0:
                self.root = j
            elif up_prev < 0:
                first[up] = j
        if up_prev >= 0:
            next_[up_prev] = j
        if up_next >= 0:
            prev[up_next] = j

        # j's children become A ++ [i] ++ B
        parent[i] = j
        if a_last >= 0:
            a_first = first[i]
            first[j] = a_first
            parent[a_first] = j
            next_[a_last] = i
        else:
            first[j] = i
        prev[i] = a_last
        next_[i] = b_first
        if b_first >= 0:
            prev[b_first] = i

        # i's children become C
        first[i] = c_first
        if c_first >= 0:
            prev[c_first] = -1
            parent[c_first] = i

        # e now enters i, and i's old incoming edge now enters j
        edge = self.edge
        above = edge[i]
        edge[i], edge[j] = eid, above
        self.child[eid] = i
        if above >= 0:
            self.child[above] = j

    def tree(self, tags: dict[EdgeRef, str] | None) -> PlaneTree:
        """The current tree, by one preorder walk over first/next."""
        first, next_, parent = self.first, self.next, self.parent
        order: list[int] = []
        parents: list[int] = []
        above: list[int] = []  # output positions of the current ancestors
        v = self.root
        while True:
            parents.append(above[-1] if above else -1)
            order.append(v)
            if first[v] >= 0:
                above.append(len(order) - 1)
                v = first[v]
                continue
            # climb while v is a last child, whose parent pointer is valid
            while next_[v] < 0 and above:
                above.pop()
                v = parent[v]
            if next_[v] < 0:
                break
            v = next_[v]
        return PlaneTree._trusted(tuple(map(self.label.__getitem__, order)),
                                  tuple(parents),
                                  tuple(map(self.edge.__getitem__, order)),
                                  tags)


def flip_edge(tree: PlaneTree, edge: EdgeRef) -> PlaneTree:
    """Apply the involution at one edge; a new tree, input untouched."""
    arrays = _SiblingArrays(tree)
    arrays.flip(edge)
    return arrays.tree(tree.tags)


def _flip_x_edges(tree: PlaneTree, tags: dict[EdgeRef, str],
                  out_tags: dict[EdgeRef, str] | None) -> PlaneTree:
    # both directions flip the x-tagged edges, in first-descent order, which
    # is the order of the child ends in preorder before any flip
    arrays = _SiblingArrays(tree)
    for eid in arrays.edge[1:]:
        if tags[eid] == IMPROPER_TAG:
            arrays.flip(eid)
    return arrays.tree(out_tags)


def to_increasing(tree: PlaneTree, rooted: bool = False) -> PlaneTree:
    """Map a labeled plane tree to a tagged increasing plane tree.

    Requires labels 1..n+1 and an untagged input.  ``rooted=True``
    additionally requires root label 1 and tags the edges at vertex 1
    with t instead of y.
    """
    if tree.is_tagged:
        raise ValueError("input tree is already tagged")
    if not has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if rooted and tree.labels[0] != 1:
        raise ValueError("rooted mode requires root label 1")

    # in rooted mode vertex 1 is the root, and no edge at it is improper
    at_root = ROOT_TAG if rooted else PROPER_TAG
    tags = {eid: IMPROPER_TAG if improper else at_root if p == 0 else PROPER_TAG
            for eid, improper, p in zip(tree.edges[1:],
                                        _improper_flags(tree)[1:],
                                        tree.parents[1:])}

    out = _flip_x_edges(tree, tags, tags)
    if not is_increasing(out):
        raise RuntimeError("flipping the improper edges left a decreasing edge")
    return out


def from_increasing(tree: PlaneTree) -> PlaneTree:
    """Invert :func:`to_increasing`; returns the untagged preimage.

    Requires an increasing tree on labels 1..n+1 with every edge tagged,
    and tag t either absent or on exactly the root's edges.
    """
    if not is_increasing(tree):
        raise ValueError("input tree is not increasing")
    if not has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    tags = tree.tags or {}
    # the tags must be keyed by exactly the tree's edge ids
    if tags.keys() != set(tree.edges[1:]):
        raise ValueError("every edge must carry a tag")
    t_edges = {eid for eid, tag in tags.items() if tag == ROOT_TAG}
    if t_edges and t_edges != {eid for eid, p in zip(tree.edges, tree.parents)
                               if p == 0}:
        raise ValueError("tag t must be on every edge at the root "
                         "and nowhere else")
    return _flip_x_edges(tree, tags, None)
