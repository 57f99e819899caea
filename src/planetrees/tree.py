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

Tree text is one ``%`` skeleton per shape (``_skeleton``) filled with the
labels (and tags) in preorder: ``render_tree`` builds one per tree, ``enum``
one per shape for all its labelings (``_render_labelings``).

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
from itertools import groupby
from operator import itemgetter, le
from typing import Iterator, NamedTuple, NoReturn

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


def _check_handle(root) -> tuple[tuple, tuple, tuple]:
    """A handle's three arrays, refused unless they are one preorder tree
    with distinct positive int labels and distinct int edge ids."""
    try:
        labels, parents, edges = map(tuple, root)
    except (TypeError, ValueError):  # not three sequences: refused below
        labels = parents = edges = ()
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
    try:
        str(max(labels))  # the longest label, which render_tree must write
    except ValueError:  # more digits than str() writes
        raise ValueError("label has too many digits") from None
    if len(set(edges)) != count:
        raise ValueError("repeated edge id")
    # the previous vertex and its ancestors, over a sentinel -1 that a parent
    # off the path pops; no sentinel unless -1, the root's, is there once
    path = [-1] if parents.count(-1) == 1 else []
    try:
        for v, p in enumerate(parents):
            while path[-1] != p:
                path.pop()
            path.append(v)
    except IndexError:
        raise ValueError("parents must list a tree in preorder") from None
    return labels, parents, edges


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
        self.labels, self.parents, self.edges = _check_handle(root)
        # an empty tag map carries no information: normalize it away
        self.tags = dict(tags) if tags else None
        if self.tags and self.tags.keys() != set(self.edges[1:]):
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
# the text of one vertex, spaces around it included
_HEADER = re.compile(r"\s*(?P<label>[0-9]*)\s*"
                     rf"(?:(?P<colon>:)\s*(?P<tag>[{''.join(TAGS)}]?))?\s*")
_SPACES = re.compile(r"\s*")


def _first_fault(text: str) -> NoReturn:
    """Raise the first fault a left-to-right read of ``text`` meets, at its
    offset; only texts that ``parse_tree``'s fast loop rejects come here."""
    seen = set()
    tagged, untagged = [], []  # the offsets of the child labels, by kind
    depth = at = 0  # the open groups; the offset of the next header
    while True:
        found = _HEADER.match(text, at)
        at = found.start("label")
        try:
            label = int(found["label"])
        except ValueError:  # no digits, or more than int() reads
            raise TreeParseError("label has too many digits" if found["label"]
                                 else "expected a label", at) from None
        if label < 1 or label in seen:
            raise TreeParseError("labels must be positive" if label < 1
                                 else f"duplicate label {label}", at)
        seen.add(label)
        if found["colon"] and not depth:
            raise TreeParseError("the root cannot carry a tag",
                                 found.start("colon"))
        if found["colon"] and not found["tag"]:
            raise TreeParseError("expected tag x, y, or t", found.start("tag"))
        if depth:
            (tagged if found["colon"] else untagged).append(at)
        at = found.end()
        if text.startswith("(", at):
            depth, at = depth + 1, at + 1
            continue
        while depth and text.startswith(")", at):
            depth, at = depth - 1, _SPACES.match(text, at + 1).end()
        if depth and text.startswith(",", at):
            at += 1
        elif depth or at < len(text):
            raise TreeParseError("expected ',' or ')'" if depth
                                 else "unexpected trailing input", at)
        elif tagged and untagged:
            raise TreeParseError("either all edges or none must be tagged",
                                 untagged[0])
        else:
            raise RuntimeError("parse_tree and _first_fault disagree")


def parse_tree(text: str) -> PlaneTree:
    """Parse tree text; raises :class:`TreeParseError` with a position.

    The text is split once at its delimiters; the pieces between them are
    the vertices' labels and tags, read by a fast loop that strips spaces
    only from a piece it cannot read as it stands.  At any irregularity,
    and at the end if a label is non-positive or repeated or only some
    edges are tagged, ``_first_fault`` reads the whole text once more,
    left to right, and raises the first fault it meets.
    """
    parts = _DELIMITERS.split(text)
    labels: list[int] = []
    parents: list[int] = []
    tags: dict[int, str] = {}
    stack: list[int] = []  # the open vertices; the last is the next parent
    closed = False  # whether the last delimiter was ")"
    try:
        for i in range(0, len(parts), 2):
            piece = parts[i]
            if i:
                mark = parts[i - 1]
                if mark == "(" and not closed:
                    stack.append(len(labels) - 1)
                elif mark == "(" or not stack:
                    _first_fault(text)
                elif mark == ")":
                    stack.pop()
                    closed = True
                    if piece and not piece.isspace():
                        _first_fault(text)
                    continue
                closed = False
            parents.append(stack[-1] if stack else -1)
            if piece.isascii() and piece.isdigit():
                labels.append(int(piece))
                continue
            label, colon, tag = piece.partition(":")
            if not (colon and i and tag in TAGS
                    and label.isascii() and label.isdigit()):
                label, tag = label.strip(), tag.strip()
                if not (label.isascii() and label.isdigit()
                        and (not colon or i and tag in TAGS)):
                    _first_fault(text)
            labels.append(int(label))
            if colon:
                tags[len(labels) - 2] = tag
    except TreeParseError:
        raise
    except ValueError:  # from int(), on a label with too many digits
        _first_fault(text)
    count = len(labels)
    if (stack or min(labels) < 1 or len(set(labels)) != count
            or tags and len(tags) != count - 1):
        _first_fault(text)
    return PlaneTree._trusted(tuple(labels), tuple(parents), tags=tags)


def _skeleton(parents: tuple, tagged: bool = False) -> str:
    """The text of every tree of this shape as a ``%`` template: ``%d`` for
    each label in preorder, ``%d:%s`` for a label and tag below the root."""
    slot = "%d:%s" if tagged else "%d"
    first, later = "(" + slot, "," + slot
    out = ["%d"]
    depth = [0] * len(parents)
    for v in range(1, len(parents)):
        p = parents[v]
        d = depth[v] = depth[p] + 1
        # open v's parent, or close the groups between the previous vertex
        # and v's parent
        out.append(first if p == v - 1 else ")" * (depth[v - 1] - d) + later)
    out.append(")" * depth[-1])
    return "".join(out)


def render_tree(tree: PlaneTree) -> str:
    """Canonical text: ASCII, no whitespace, children left to right."""
    if tree.tags is None:
        return _skeleton(tree.parents) % tree.labels
    labels = tree.labels
    values = [labels[0]] * (2 * len(labels) - 1)
    values[1::2] = labels[1:]
    values[2::2] = map(tree.tags.__getitem__, tree.edges[1:])
    return _skeleton(tree.parents, True) % tuple(values)


def _render_labelings(visits) -> Iterator[str]:
    """The text of each ``(parents, labels)`` visit, as ``_labelings``
    yields them: one skeleton per run of visits sharing a shape."""
    for shape, run in groupby(visits, itemgetter(0)):
        yield from map(_skeleton(shape).__mod__, map(itemgetter(1), run))


# ---- queries ----

def _named(value) -> str:
    """``str(value)``, or a note for an int too long for ``str()``."""
    try:
        return str(value)
    except ValueError:
        return "<too many digits>"


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
    raise ValueError(
        f"no edge ({_named(parent_label)},{_named(child_label)})")


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


def _edge_position(tree: PlaneTree, edge: int) -> int:
    """Preorder position of the vertex the edge with this id goes into."""
    edges = tree.edges
    if type(edge) is not int or edge not in edges[1:]:  # True == 1, 0.0 == 0
        raise ValueError(f"no edge with id {_named(edge)}")
    return edges.index(edge, 1)


def classify_edge(tree: PlaneTree, edge: int) -> EdgeStatus:
    """Status of one edge; classifies the whole tree, so O(n) per call."""
    improper = _improper_flags(tree)[_edge_position(tree, edge)]
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


def _require_input(tree: PlaneTree, tagged: bool, increasing: bool) -> None:
    """Refuse a tree that a bijection cannot read, at its first fault:
    labels other than 1..n+1, then (if ``increasing``) a decreasing edge,
    then the wrong tagging, which a tree with no edges never has."""
    if not has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if increasing and not is_increasing(tree):
        raise ValueError("input tree is not increasing")
    if tree.edge_count and tree.is_tagged != tagged:
        raise ValueError("every edge must carry a tag" if tagged
                         else "input tree is already tagged")
