"""Labeled plane trees: data model, text format, edge classification.

A plane tree is a rooted tree whose children are linearly ordered.  Vertices
carry distinct positive integer labels.  Every edge owns a persistent integer
id that survives the rewiring done in :mod:`.involution`; a fresh tree
(``PlaneTree._trusted``) numbers its edges in first-descent depth-first
order, i.e. in the order the edges are first walked from the root.

A :class:`PlaneTree` is three immutable tuples of ints indexed by preorder
position, plus the tags: ``labels``, ``parents`` (the position of each
vertex's parent) and ``edges`` (the id of the edge into each vertex), with
-1 for the root's parent and edge.  A subtree is a run of positions, and
every function here is an index scan over those tuples.

Text format::

    Tree := Label [":" Tag] ["(" Tree ("," Tree)* ")"]

with Tag one of ``x``, ``y``, ``t``.  Whitespace is ignored on input and
never produced on output.  A tag annotates the edge from the parent to the
node it follows, so the root never carries one; a tree is either fully
tagged or fully untagged.

An edge (parent, child) is *improper* when the smallest label in the child's
subtree is smaller than both the parent's label and every label in the
subtrees of the child's right siblings; otherwise it is *proper*.  The rule
is one loop in reverse preorder (``_improper_flags``), which meets each
vertex's children right to left after their subtrees: the parent's bound
starts at its label and drops to each smaller child subtree minimum, a drop
marks that child's edge improper, and the final bound is the parent's own
subtree minimum.  Every edge-status query here goes through that loop.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import le
from typing import NamedTuple

IMPROPER_TAG = "x"
PROPER_TAG = "y"
ROOT_TAG = "t"
TAGS = (IMPROPER_TAG, PROPER_TAG, ROOT_TAG)


class TreeParseError(ValueError):
    """Malformed tree text; ``position`` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EdgeStatus(Enum):
    PROPER = "proper"
    IMPROPER = "improper"


def _check_handle(labels, parents, edges) -> None:
    """Reject arrays that are not one preorder tree with distinct positive
    int labels and distinct int edge ids."""
    count = len(labels)
    # the parser's rule, for parents and edge ids as for the labels below: a
    # bool, a float or a str is not an int
    if not count == len(parents) == len(edges) > 0 or (
            set(map(type, parents + edges)) != {int}):
        raise ValueError("a tree needs equally long labels, int parents and "
                         "int edge ids")
    if min(edges) < -1 or edges[0] != -1:
        raise ValueError("edge ids must be -1 into the root, >= 0 elsewhere")
    if set(map(type, labels)) != {int} or min(labels) < 1 or (
            len(set(labels)) != count):
        raise ValueError("labels must be distinct positive integers")
    if len(set(edges)) != count:
        raise ValueError("repeated edge id")
    path = []  # the previous vertex and its ancestors
    for v, p in enumerate(parents):
        while path and path[-1] != p:
            path.pop()
        if (not path) != (p == -1) or (p == -1 and v):
            raise ValueError("parents must list a tree in preorder")
        path.append(v)


class PlaneTree:
    """An immutable plane tree value.

    ``PlaneTree(handle, tags)`` builds a tree from the ``root`` handle of
    another tree, the ``(labels, parents, edges)`` triple, which it checks:
    one preorder tree, distinct positive int labels, distinct edge ids.
    ``tags``, also checked, maps every edge id to one of ``x``/``y``/``t``
    on a tagged tree and is ``None`` on an untagged one.  Operations on
    trees never mutate their input; they build new trees.
    """

    __slots__ = ("labels", "parents", "edges", "tags")

    def __init__(self, root: tuple, tags: dict[int, str] | None = None):
        labels, parents, edges = map(tuple, root)
        _check_handle(labels, parents, edges)
        self.labels, self.parents, self.edges = labels, parents, edges
        # an empty tag map carries no information: normalize it away
        self.tags = dict(tags) if tags else None
        if self.tags and self.tags.keys() != set(edges[1:]):
            raise ValueError("every edge must carry a tag")
        if self.tags and not all(map(TAGS.__contains__, self.tags.values())):
            raise ValueError("every tag must be x, y, or t")

    @classmethod
    def _trusted(cls, labels, parents, edges=None, tags=None) -> PlaneTree:
        """A tree from arrays the library built itself, unchecked; without
        ``edges``, a fresh one with first-descent edge ids -1, 0, 1, ..."""
        if edges is None:
            edges = tuple(range(-1, len(labels) - 1))
        tree = cls.__new__(cls)
        tree.labels, tree.parents, tree.edges = labels, parents, edges
        tree.tags = dict(tags) if tags else None
        return tree

    @property
    def root(self) -> tuple:
        """An opaque immutable handle; ``PlaneTree(root, tags)`` rebuilds."""
        return self.labels, self.parents, self.edges

    @property
    def is_tagged(self) -> bool:
        return self.tags is not None

    @property
    def edge_count(self) -> int:
        return len(self.labels) - 1

    def __eq__(self, other):
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return (self.labels == other.labels and self.parents == other.parents
                and self.edges == other.edges and self.tags == other.tags)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        return render_tree(self)

    def __repr__(self):
        return f"PlaneTree({render_tree(self)!r})"


# ---- text format ----

_DELIMITERS = re.compile(r"([(),])")
# the text of one vertex; a fault shows as an empty group or as stray text
_HEADER = re.compile(r"\s*(?P<label>[0-9]*)\s*"
                     r"(?:(?P<colon>:)\s*(?P<tag>[xyt]?))?\s*")


def _piece_of(parts: list[str], vertex: int) -> int:
    # vertex k >= 1 is the text after the k-th "(" or ","
    return ([0] + [i + 1 for i in range(1, len(parts), 2)
                   if parts[i] != ")"])[vertex]


def _fail(parts: list[str], labels: list[int], message: str, index: int,
          within: int | None = None):
    """Raise the first fault in text order: a non-positive or repeated label
    among those read so far, else ``message`` at offset ``within`` of
    ``parts[index]``, or at its first non-space character."""
    seen = set()
    for v, label in enumerate(labels):
        if label < 1 or label in seen:
            message = ("labels must be positive" if label < 1
                       else f"duplicate label {label}")
            index, within = _piece_of(parts, v), None
            break
        seen.add(label)
    piece = parts[index]
    if within is None:
        within = len(piece) - len(piece.lstrip())
    raise TreeParseError(message, sum(map(len, parts[:index])) + within)


def _read_header(parts: list[str], labels: list[int], index: int) -> str | None:
    """Append the label of a vertex's text and return its tag, or raise at
    the first fault; the root's text is ``parts[0]``."""
    piece = parts[index]
    found = _HEADER.match(piece)

    def fail(message, at=None):
        _fail(parts, labels, message, index, at)

    if not found["label"]:
        fail("expected a label")
    labels.append(int(found["label"]))
    if found["colon"] and not index:
        fail("the root cannot carry a tag", found.start("colon"))
    if found["colon"] and not found["tag"]:
        fail("expected tag x, y, or t", found.start("tag"))
    if found.end() < len(piece):
        fail("expected ',' or ')'" if index else "unexpected trailing input",
             found.end())
    return found["tag"]


def parse_tree(text: str) -> PlaneTree:
    """Parse tree text; raises :class:`TreeParseError` with a position.

    The text is split once at its delimiters; the pieces between them are
    the vertices' labels and tags.  The fault named is the first one a
    left-to-right scan meets, though the labels are checked only at the end.
    """
    parts = _DELIMITERS.split(text)
    labels: list[int] = []
    parents: list[int] = []
    tags: dict[int, str] = {}
    stack: list[int] = []  # the open vertices; the last is the next parent
    closed = False  # whether the last delimiter was ")"
    for i in range(0, len(parts), 2):
        if i:
            mark = parts[i - 1]
            if mark == "(" and not closed:
                stack.append(len(labels) - 1)
            elif not stack:
                _fail(parts, labels, "unexpected trailing input", i - 1, 0)
            elif mark == "(":
                _fail(parts, labels, "expected ',' or ')'", i - 1, 0)
            elif mark == ")":
                stack.pop()
                closed = True
                if parts[i] and not parts[i].isspace():
                    _fail(parts, labels, "expected ',' or ')'" if stack
                          else "unexpected trailing input", i)
                continue
            closed = False
        parents.append(stack[-1] if stack else -1)
        piece = parts[i]
        if piece.isascii() and piece.isdigit():
            labels.append(int(piece))
            continue
        label, colon, tag = piece.partition(":")
        if (colon and i and tag in TAGS
                and label.isascii() and label.isdigit()):
            labels.append(int(label))
        else:
            tag = _read_header(parts, labels, i)
            if tag is None:
                continue
        tags[len(labels) - 2] = tag
    count = len(labels)
    if stack:
        _fail(parts, labels, "expected ',' or ')'", len(parts) - 1,
              len(parts[-1]))
    if min(labels) < 1 or len(set(labels)) != count:
        _fail(parts, labels, "", 0)  # names the first faulty label
    if tags and len(tags) != count - 1:
        untagged = next(e for e in range(count - 1) if e not in tags)
        _fail(parts, [], "either all edges or none must be tagged",
              _piece_of(parts, untagged + 1))
    return PlaneTree._trusted(tuple(labels), tuple(parents), tags=tags)


def render_tree(tree: PlaneTree) -> str:
    """Canonical text: ASCII, no whitespace, children left to right."""
    labels, parents = tree.labels, tree.parents
    names = list(map(str, labels))
    if tree.tags is not None:
        names[1:] = [f"{name}:{tree.tags[eid]}"
                     for name, eid in zip(names[1:], tree.edges[1:])]
    out = [names[0]]
    depth = [0] * len(labels)
    for v in range(1, len(labels)):
        p = parents[v]
        d = depth[v] = depth[p] + 1
        if p == v - 1:
            out.append("(")
        else:
            # close the groups between the previous vertex and v's parent
            out.append(")" * (depth[v - 1] - d) + ",")
        out.append(names[v])
    out.append(")" * depth[-1])
    return "".join(out)


# ---- queries ----

class TreeStats(NamedTuple):
    improper: int
    proper: int
    root_label: int
    degree_of_one: int  # child count of vertex 1; 0 when absent


def edge_list(tree: PlaneTree) -> list[tuple[int, int, int]]:
    """All edges as (edge id, parent label, child label), first-descent order."""
    labels = tree.labels
    return list(zip(tree.edges[1:], map(labels.__getitem__, tree.parents[1:]),
                    labels[1:]))


def edge_id(tree: PlaneTree, parent_label: int, child_label: int) -> int:
    # labels are plain ints: True == 1 and 3.0 == 3 name no vertex
    if type(parent_label) is int and type(child_label) is int:
        for eid, p, c in edge_list(tree):
            if p == parent_label and c == child_label:
                return eid
    raise ValueError(f"no edge ({parent_label},{child_label})")


def subtree_min(tree: PlaneTree, label: int) -> int:
    """Smallest label in the subtree rooted at the given vertex."""
    labels, parents = tree.labels, tree.parents
    if type(label) is not int or label not in labels:  # True == 1, 1.0 == 1
        raise ValueError(f"no vertex labeled {label}")
    v = end = labels.index(label)
    # the subtree: v and the run of later positions whose parents lie in it
    while end + 1 < len(labels) and parents[end + 1] >= v:
        end += 1
    return min(labels[v:end + 1])


def _improper_flags(tree: PlaneTree) -> list[bool]:
    """Whether the edge into each vertex is improper, by preorder index."""
    labels, parents = tree.labels, tree.parents
    bound = list(labels)
    flags = [False] * len(labels)
    # reverse preorder: a vertex's subtree is done before it is met, and
    # its parent's children come right to left
    for v in range(len(labels) - 1, 0, -1):
        p = parents[v]
        if bound[v] < bound[p]:
            bound[p] = bound[v]
            flags[v] = True
    return flags


def classify_edge(tree: PlaneTree, edge: int) -> EdgeStatus:
    """Status of one edge; classifies the whole tree, so O(n) per call."""
    edges = tree.edges
    if type(edge) is not int or edge not in edges[1:]:  # True == 1, 0.0 == 0
        raise ValueError(f"no edge with id {edge}")
    improper = _improper_flags(tree)[edges.index(edge, 1)]
    return EdgeStatus.IMPROPER if improper else EdgeStatus.PROPER


def improper_edges(tree: PlaneTree) -> list[int]:
    """Edge ids of all improper edges, in first-descent order."""
    return [eid for eid, flag in zip(tree.edges, _improper_flags(tree)) if flag]


def tree_stats(tree: PlaneTree) -> TreeStats:
    labels = tree.labels
    impr = sum(_improper_flags(tree))
    degree = tree.parents.count(labels.index(1)) if 1 in labels else 0
    return TreeStats(impr, tree.edge_count - impr, labels[0], degree)


def is_increasing(tree: PlaneTree) -> bool:
    """True when no edge goes from a larger to a smaller label."""
    labels = tree.labels
    return all(map(le, map(labels.__getitem__, tree.parents[1:]), labels[1:]))


def has_canonical_labels(tree: PlaneTree) -> bool:
    """True when the labels are exactly 1..n+1 for a tree with n edges."""
    # against the vertex count: a repeated label shrinks the set, not the count
    return set(tree.labels) == set(range(1, len(tree.labels) + 1))
