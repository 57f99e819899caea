"""Labeled plane trees: data model, text format, edge classification.

A plane tree is a rooted tree whose children are linearly ordered.  Vertices
carry distinct positive integer labels.  Every edge owns a persistent integer
id (an ``EdgeRef``) that survives the rewiring done in :mod:`.involution`;
the parser and the enumerators assign ids in first-descent depth-first order,
i.e. in the order the edges are first walked when descending from the root.

Text format::

    Tree := Label [":" Tag] ["(" Tree ("," Tree)* ")"]

with Tag one of ``x``, ``y``, ``t``.  Whitespace is ignored on input and
never produced on output.  A tag annotates the edge from the parent to the
node it follows, so the root never carries one; a tree is either fully
tagged or fully untagged.

An edge (parent, child) is *improper* when the smallest label in the child's
subtree is smaller than both the parent's label and every label in the
subtrees of the child's right siblings; otherwise it is *proper*.  The rule
is implemented once, as one right-to-left scan over each vertex's children
(``_improper_map``): the bound starts at the vertex's label and drops to each
smaller child subtree minimum, a drop marks that child's edge improper, and
the final bound is the vertex's own subtree minimum.  Every query here goes
through that scan; a cross-check that compares the minima of the two
explicit label sets lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

EdgeRef = int

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


class Node:
    """A vertex: an integer label plus ordered (edge id, child) pairs."""

    __slots__ = ("label", "children")

    def __init__(self, label: int, children: tuple = ()):
        self.label = label
        self.children = tuple(children)

    def __repr__(self):
        return f"Node({self.label}, {len(self.children)} children)"


class PlaneTree:
    """An immutable plane tree value.

    ``tags`` maps every edge id to one of ``x``/``y``/``t`` on a tagged
    tree and is ``None`` on an untagged one.  Operations on trees never
    mutate their input; they build new trees.
    """

    __slots__ = ("root", "tags")

    def __init__(self, root: Node, tags: dict[EdgeRef, str] | None = None):
        self.root = root
        # an empty tag map carries no information: normalize it away
        self.tags = dict(tags) if tags else None

    @property
    def is_tagged(self) -> bool:
        return self.tags is not None

    @property
    def edge_count(self) -> int:
        return sum(len(node.children) for node in self.nodes())

    def nodes(self) -> Iterator[Node]:
        return preorder(self.root)

    def labels(self) -> set[int]:
        return {node.label for node in self.nodes()}

    def node(self, label: int) -> Node:
        for node in self.nodes():
            if node.label == label:
                return node
        raise ValueError(f"no vertex labeled {label}")

    def __eq__(self, other):
        if not isinstance(other, PlaneTree):
            return NotImplemented
        if self.tags != other.tags:
            return False
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for (ea, ca), (eb, cb) in zip(a.children, b.children):
                if ea != eb:
                    return False
                stack.append((ca, cb))
        return True

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        return render_tree(self)

    def __repr__(self):
        return f"PlaneTree({render_tree(self)!r})"


def preorder(root: Node) -> Iterator[Node]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for _, child in reversed(node.children):
            stack.append(child)


# ---- text format ----

def parse_tree(text: str) -> PlaneTree:
    """Parse tree text; raises :class:`TreeParseError` with a position."""
    length = len(text)

    def skip(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    def read_label(p):
        p = skip(p)
        start = p
        while p < length and text[p].isdigit():
            p += 1
        if p == start:
            raise TreeParseError("expected a label", start)
        value = int(text[start:p])
        if value < 1:
            raise TreeParseError("labels must be positive", start)
        return value, p

    seen: set[int] = set()
    tags: dict[int, str] = {}
    header_pos: list[int] = []  # text offset of each edge's child label
    next_eid = 0

    def read_header(p):
        # child label with optional ":tag"; assigns the next edge id
        nonlocal next_eid
        p = skip(p)
        header_pos.append(p)
        label, p = read_label(p)
        if label in seen:
            raise TreeParseError(f"duplicate label {label}", header_pos[-1])
        seen.add(label)
        eid = next_eid
        next_eid += 1
        p = skip(p)
        if p < length and text[p] == ":":
            p = skip(p + 1)
            if p >= length or text[p] not in TAGS:
                raise TreeParseError("expected tag x, y, or t", p)
            tags[eid] = text[p]
            p += 1
        return [label, eid, []], p

    pos = skip(0)
    root_label, pos = read_label(pos)
    seen.add(root_label)
    pos = skip(pos)
    if pos < length and text[pos] == ":":
        raise TreeParseError("the root cannot carry a tag", pos)

    # frames: [label, edge id from parent (None for root), children so far]
    stack: list[list] = []
    cur: list = [root_label, None, []]
    while True:
        pos = skip(pos)
        if pos < length and text[pos] == "(":
            stack.append(cur)
            cur, pos = read_header(pos + 1)
            continue
        # cur has no children group: close it and bubble upward
        while True:
            node = Node(cur[0], tuple(cur[2]))
            if not stack:
                pos = skip(pos)
                if pos != length:
                    raise TreeParseError("unexpected trailing input", pos)
                if tags and len(tags) != next_eid:
                    for eid in range(next_eid):
                        if eid not in tags:
                            raise TreeParseError(
                                "either all edges or none must be tagged",
                                header_pos[eid])
                return PlaneTree(node, tags)
            pos = skip(pos)
            if pos >= length:
                raise TreeParseError("expected ',' or ')'", pos)
            ch = text[pos]
            if ch == ",":
                stack[-1][2].append((cur[1], node))
                cur, pos = read_header(pos + 1)
                break
            if ch == ")":
                stack[-1][2].append((cur[1], node))
                cur = stack.pop()
                pos += 1
                continue
            raise TreeParseError("expected ',' or ')'", pos)


def render_tree(tree: PlaneTree) -> str:
    """Canonical text: ASCII, no whitespace, children left to right."""
    tags = tree.tags
    parts = [str(tree.root.label)]
    stack = []
    if tree.root.children:
        parts.append("(")
        stack.append([tree.root.children, 0])
    while stack:
        children, idx = stack[-1]
        if idx == len(children):
            parts.append(")")
            stack.pop()
            continue
        if idx:
            parts.append(",")
        stack[-1][1] = idx + 1
        eid, node = children[idx]
        parts.append(str(node.label))
        if tags is not None:
            parts.append(":" + tags[eid])
        if node.children:
            parts.append("(")
            stack.append([node.children, 0])
    return "".join(parts)


# ---- queries ----

@dataclass(frozen=True)
class TreeStats:
    improper: int
    proper: int
    root_label: int
    degree_of_one: int  # child count of vertex 1; 0 when absent


def edge_list(tree: PlaneTree) -> list[tuple[EdgeRef, int, int]]:
    """All edges as (edge id, parent label, child label), first-descent order."""
    out = []
    stack: list[tuple] = [(None, 0, tree.root)]
    while stack:
        eid, parent_label, node = stack.pop()
        if eid is not None:
            out.append((eid, parent_label, node.label))
        for e, child in reversed(node.children):
            stack.append((e, node.label, child))
    return out


def edge_id(tree: PlaneTree, parent_label: int, child_label: int) -> EdgeRef:
    for eid, p, c in edge_list(tree):
        if p == parent_label and c == child_label:
            return eid
    raise ValueError(f"no edge ({parent_label},{child_label})")


def subtree_min(tree: PlaneTree, label: int) -> int:
    """Smallest label in the subtree rooted at the given vertex."""
    return min(node.label for node in preorder(tree.node(label)))


def _improper_map(root: Node) -> dict[EdgeRef, bool]:
    """Whether each edge is improper, in one pass over the tree."""
    mins: dict[int, int] = {}  # subtree minimum by id(node)
    status = {}
    # reverse preorder visits every child before its parent
    for node in reversed(list(preorder(root))):
        # right to left: bound = min(own label, right-sibling subtree minima)
        bound = node.label
        for eid, child in reversed(node.children):
            m = mins[id(child)]
            if m < bound:
                status[eid] = True
                bound = m
            else:
                status[eid] = False
        mins[id(node)] = bound
    return status


def classify_edge(tree: PlaneTree, edge: EdgeRef) -> EdgeStatus:
    """Status of one edge; classifies the whole tree, so O(n) per call."""
    improper = _improper_map(tree.root).get(edge)
    if improper is None:
        raise ValueError(f"no edge with id {edge}")
    return EdgeStatus.IMPROPER if improper else EdgeStatus.PROPER


def improper_edges(tree: PlaneTree) -> list[EdgeRef]:
    """Edge ids of all improper edges, in first-descent order."""
    status = _improper_map(tree.root)
    return [eid for eid, _, _ in edge_list(tree) if status[eid]]


def tree_stats(tree: PlaneTree) -> TreeStats:
    status = _improper_map(tree.root)
    impr = sum(1 for flag in status.values() if flag)
    degree = 0
    for node in tree.nodes():
        if node.label == 1:
            degree = len(node.children)
            break
    return TreeStats(impr, len(status) - impr, tree.root.label, degree)


def is_increasing(tree: PlaneTree) -> bool:
    """True when every edge goes from a smaller to a larger label."""
    for node in tree.nodes():
        for _, child in node.children:
            if child.label < node.label:
                return False
    return True


def has_canonical_labels(tree: PlaneTree) -> bool:
    """True when the labels are exactly 1..n+1 for a tree with n edges."""
    # against the vertex count: a repeated label shrinks the set, not the count
    labels = [node.label for node in tree.nodes()]
    return set(labels) == set(range(1, len(labels) + 1))
