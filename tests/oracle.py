"""Reference implementations kept as the differential oracle.

The library's trees are flat preorder arrays.  The oracle keeps the tree
core the library had before them: immutable ``Node`` values, each a label
plus ordered (edge id, child) pairs, wrapped in a :class:`NodeTree`.  On
that core sit the old character-by-character parser and the old renderer,
the old classifier, and the old in-place flip on a first-child/next-sibling
copy built from ``Node`` values (``_SiblingArrays``) with the two bijections
on it.  :func:`nodes` and :func:`flat` convert between the two
representations; :func:`flat` goes through the library's checked
``PlaneTree(handle, tags)``.

Beside that core are the path-copying versions of the flip, the two
bijections, leaf insertion, the uniform increasing sampler and the
increasing enumerator that the library used before any array core.  Each
rebuilds the ancestors of a changed vertex as new ``Node`` values, so a flip
or an insertion costs O(n) and a whole bijection or sample O(n^2); that is
fine at test sizes.  Every public function here takes and returns library
trees, so it can be compared against the library with ``==``, which checks
labels, child order, edge ids and tags.

Then come the exhaustive routes the library used before its in-place
enumeration kernels: the labeled enumerators that loop over shapes and
permutations themselves, the per-shape histogram that recomputes every
subtree minimum and every improper count for each labeling, and the
slot-counting recurrence for the root-degree counts.  Beside them is the
generating-function check the library made before its integer binomial
convolutions: truncated power series in q with rational ``Polynomial``
coefficients (:class:`Series`), multiplied out and compared whole.

Last come the helpers that only tests need: the edge classifier by the
minima of two explicit label sets, the five-piece decomposition of a tree
at one edge, and the Stirling walk as it was before the library's single
stack walk (a multiplicity check by ``Counter`` and then a stack, blocks by
a second walk with a ``seen`` set, and decoding through bracket frames).
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from planetrees.counting import odd_double_factorial, plane_shapes
from planetrees.polynomials import Polynomial, T, X, Y
from planetrees.tree import (
    EdgeStatus,
    IMPROPER_TAG,
    PROPER_TAG,
    ROOT_TAG,
    TAGS,
    PlaneTree,
    TreeParseError,
)


# ---- the Node core ----

class Node:
    """A vertex: an integer label plus ordered (edge id, child) pairs."""

    __slots__ = ("label", "children")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)

    def __repr__(self):
        return f"Node({self.label}, {len(self.children)} children)"


class NodeTree:
    """A tree of ``Node`` values plus its tags, ``None`` when untagged."""

    __slots__ = ("root", "tags")

    def __init__(self, root, tags=None):
        self.root = root
        self.tags = dict(tags) if tags else None

    @property
    def is_tagged(self):
        return self.tags is not None

    def nodes(self):
        return preorder(self.root)

    def node(self, label):
        for node in self.nodes():
            if node.label == label:
                return node
        raise ValueError(f"no vertex labeled {label}")

    def __eq__(self, other):
        if not isinstance(other, NodeTree):
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

    __hash__ = None


def preorder(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for _, child in reversed(node.children):
            stack.append(child)


def nodes(tree):
    """The library tree as a :class:`NodeTree`."""
    labels, parents, edges = tree.root
    kids = [[] for _ in labels]
    for v in range(len(labels) - 1, 0, -1):  # right to left
        kids[parents[v]].append(v)
    built = [None] * len(labels)
    for v in range(len(labels) - 1, -1, -1):
        built[v] = Node(labels[v], [(edges[c], built[c])
                                    for c in reversed(kids[v])])
    return NodeTree(built[0], tree.tags)


def from_nodes(root, tags=None):
    """A library tree from a hand-built ``Node``, through :func:`flat`."""
    return flat(NodeTree(root, tags))


def flat(tree):
    """The :class:`NodeTree` as a checked library tree."""
    labels, parents, edges = [], [], []
    stack = [(-1, -1, tree.root)]
    while stack:
        p, eid, node = stack.pop()
        v = len(labels)
        labels.append(node.label)
        parents.append(p)
        edges.append(eid)
        for e, child in reversed(node.children):
            stack.append((v, e, child))
    return PlaneTree((labels, parents, edges), tree.tags)


def node_parse_tree(text):
    """The character-by-character parser, to a :class:`NodeTree`."""
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

    seen = set()
    tags = {}
    header_pos = []  # text offset of each edge's child label
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
    stack = []
    cur = [root_label, None, []]
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
                return NodeTree(node, tags)
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


def node_render_tree(tree):
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


def parse_tree(text):
    return flat(node_parse_tree(text))


def render_tree(tree):
    return node_render_tree(nodes(tree))


def node_edge_list(tree):
    out = []
    stack = [(None, 0, tree.root)]
    while stack:
        eid, parent_label, node = stack.pop()
        if eid is not None:
            out.append((eid, parent_label, node.label))
        for e, child in reversed(node.children):
            stack.append((e, node.label, child))
    return out


def node_improper_map(root):
    """Whether each edge is improper: a minima pass and a bound pass."""
    mins = {}  # subtree minimum by id(node)
    status = {}
    for node in reversed(list(preorder(root))):
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


def node_improper_edges(tree):
    status = node_improper_map(tree.root)
    return [eid for eid, _, _ in node_edge_list(tree) if status[eid]]


def node_is_increasing(tree):
    for node in tree.nodes():
        for _, child in node.children:
            if child.label < node.label:
                return False
    return True


def node_has_canonical_labels(tree):
    labels = [node.label for node in tree.nodes()]
    return set(labels) == set(range(1, len(labels) + 1))


def node_build_tree(kids, labels):
    """A tree from preorder children arrays; edge into vertex v is v-1."""
    built = [None] * len(kids)
    for v in range(len(kids) - 1, -1, -1):
        built[v] = Node(labels[v], [(c - 1, built[c]) for c in kids[v]])
    return NodeTree(built[0])


class _SiblingArrays:
    """The in-place flip on a first-child/next-sibling copy of ``Node``
    values, as the library had it: parent pointers valid only at the two
    ends of each sibling list."""

    def __init__(self, root):
        label, edge = [], []
        first, last, prev, next_, parent = [], [], [], [], []
        child = {}
        stack = [(None, root)]
        above = [-1]
        while stack:
            eid, node = stack.pop()
            p = above.pop()
            v = len(label)
            label.append(node.label)
            edge.append(eid)
            first.append(-1)
            last.append(-1)
            next_.append(-1)
            parent.append(p)
            if p < 0:
                prev.append(-1)
            else:
                child[eid] = v
                before = last[p]
                prev.append(before)
                if before < 0:
                    first[p] = v
                else:
                    next_[before] = v
                last[p] = v
            stack.extend(reversed(node.children))
            above.extend([v] * len(node.children))
        self.label, self.edge, self.child = label, edge, child
        self.first, self.prev, self.next = first, prev, next_
        self.parent = parent
        self.root = 0

    def flip(self, eid):
        j = self.child.get(eid)
        if j is None:
            raise ValueError(f"no edge with id {eid}")
        first, prev, next_, parent = self.first, self.prev, self.next, self.parent
        a = b = j
        while prev[a] >= 0 and next_[b] >= 0:
            a = prev[a]
            b = next_[b]
        i = parent[a] if prev[a] < 0 else parent[b]

        a_last, c_first = prev[j], next_[j]
        b_first = first[j]
        up_prev, up_next = prev[i], next_[i]

        prev[j], next_[j] = up_prev, up_next
        if up_prev < 0 or up_next < 0:
            up = parent[i]
            parent[j] = up
            if up < 0:
                self.root = j
            elif up_prev < 0:
                first[up] = j
        if up_prev >= 0:
            next_[up_prev] = j
        if up_next >= 0:
            prev[up_next] = j

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

        first[i] = c_first
        if c_first >= 0:
            prev[c_first] = -1
            parent[c_first] = i

        edge = self.edge
        above = edge[i]
        edge[i], edge[j] = eid, above
        self.child[eid] = i
        if above is not None:
            self.child[above] = j

    def tree(self, tags):
        label, edge, first, next_ = self.label, self.edge, self.first, self.next
        built = [None] * len(label)
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            c = first[v]
            while c >= 0:
                stack.append(c)
                c = next_[c]
        for v in reversed(order):
            kids = []
            c = first[v]
            while c >= 0:
                kids.append((edge[c], built[c]))
                c = next_[c]
            built[v] = Node(label[v], kids)
        return NodeTree(built[self.root], tags)


def _sibling_flip_x_edges(tree, tags, out_tags):
    arrays = _SiblingArrays(tree.root)
    for eid in arrays.edge[1:]:
        if tags[eid] == IMPROPER_TAG:
            arrays.flip(eid)
    return arrays.tree(out_tags)


def sibling_flip_edge(tree, edge):
    arrays = _SiblingArrays(nodes(tree).root)
    arrays.flip(edge)
    return flat(arrays.tree(tree.tags))


def sibling_to_increasing(tree, rooted=False):
    """The library's forward bijection on the Node core."""
    tree = nodes(tree)
    if tree.is_tagged:
        raise ValueError("input tree is already tagged")
    if not node_has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if rooted and tree.root.label != 1:
        raise ValueError("rooted mode requires root label 1")
    at_one = {eid for eid, _ in tree.root.children} if rooted else set()
    tags = {}
    for eid, improper in node_improper_map(tree.root).items():
        if improper:
            tags[eid] = IMPROPER_TAG
        elif eid in at_one:
            tags[eid] = ROOT_TAG
        else:
            tags[eid] = PROPER_TAG
    out = _sibling_flip_x_edges(tree, tags, tags)
    if not node_is_increasing(out):
        raise RuntimeError("flipping the improper edges left a decreasing edge")
    return flat(out)


def sibling_from_increasing(tree):
    """The library's inverse bijection on the Node core."""
    tree = nodes(tree)
    if not node_is_increasing(tree):
        raise ValueError("input tree is not increasing")
    if not node_has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    tags = tree.tags or {}
    ids = [eid for node in tree.nodes() for eid, _ in node.children]
    if len(tags) != len(ids) or tags.keys() != set(ids):
        raise ValueError("every edge must carry a tag")
    t_edges = {eid for eid, tag in tags.items() if tag == ROOT_TAG}
    if t_edges and t_edges != {eid for eid, _ in tree.root.children}:
        raise ValueError("tag t must be on every edge at the root "
                         "and nowhere else")
    return flat(_sibling_flip_x_edges(tree, tags, None))


# ---- path copying: the flip and the bijections ----

def edge_path(root, edge):
    """(node, child index) pairs from the root down to the edge's parent."""
    path = [[root, 0]]
    while path:
        node, idx = path[-1]
        if idx == len(node.children):
            path.pop()
            if path:
                path[-1][1] += 1
            continue
        eid, child = node.children[idx]
        if eid == edge:
            return [(n, i) for n, i in path]
        path.append([child, 0])
    raise ValueError(f"no edge with id {edge}")


def _flip(tree, edge):
    path = edge_path(tree.root, edge)
    parent, idx = path[-1]
    slots = parent.children
    eid, child = slots[idx]
    new_parent = Node(parent.label, slots[idx + 1:])
    built = Node(child.label,
                 slots[:idx] + ((eid, new_parent),) + child.children)
    for ancestor, at in reversed(path[:-1]):
        ch = ancestor.children
        built = Node(ancestor.label,
                     ch[:at] + ((ch[at][0], built),) + ch[at + 1:])
    return NodeTree(built, tree.tags)


def flip_edge(tree, edge):
    return flat(_flip(nodes(tree), edge))


def to_increasing(tree, rooted=False):
    tree = nodes(tree)
    if tree.is_tagged:
        raise ValueError("input tree is already tagged")
    if not node_has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if rooted and tree.root.label != 1:
        raise ValueError("rooted mode requires root label 1")
    flips = node_improper_edges(tree)
    improper = set(flips)
    tags = {}
    for eid, p, c in node_edge_list(tree):
        if eid in improper:
            tags[eid] = IMPROPER_TAG
        elif rooted and (p == 1 or c == 1):
            tags[eid] = ROOT_TAG
        else:
            tags[eid] = PROPER_TAG
    out = NodeTree(tree.root, tags)
    for eid in flips:
        out = _flip(out, eid)
    if not node_is_increasing(out):
        raise RuntimeError("oracle to_increasing produced a non-increasing tree")
    return flat(out)


def from_increasing(tree):
    """The inverse as it validated before: only increasing, fully tagged and
    t at the root; the library now also checks labels and the t pattern."""
    tree = nodes(tree)
    if not node_is_increasing(tree):
        raise ValueError("input tree is not increasing")
    tags = tree.tags or {}
    edges = node_edge_list(tree)
    if len(tags) != len(edges):
        raise ValueError("every edge must carry a tag")
    root_label = tree.root.label
    for eid, p, c in edges:
        if tags[eid] == ROOT_TAG and root_label not in (p, c):
            raise ValueError("tag t is only allowed on edges at the root")
    out = NodeTree(tree.root, tags)
    for eid, _, _ in edges:
        if tags[eid] == IMPROPER_TAG:
            out = _flip(out, eid)
    return flat(NodeTree(out.root, None))


# ---- leaf insertion, the sampler and the enumerator ----

def _subtree_edge_counts(root):
    sizes = {}
    order = list(preorder(root))
    for node in reversed(order):
        sizes[id(node)] = sum(sizes[id(c)] + 1 for _, c in node.children)
    return sizes


def _insert_leaf(root, slot, label, eid):
    """Slots are numbered depth-first: vertex v with d children owns slots
    0..d (positions among its children) before any slot in its subtrees."""
    sizes = _subtree_edge_counts(root)
    path = []
    node = root
    pos = slot
    while True:
        d = len(node.children)
        if pos <= d:
            grown = Node(node.label,
                         node.children[:pos] + ((eid, Node(label)),)
                         + node.children[pos:])
            for parent, at in reversed(path):
                ch = parent.children
                grown = Node(parent.label,
                             ch[:at] + ((ch[at][0], grown),) + ch[at + 1:])
            return grown
        pos -= d + 1
        for at, (_, child) in enumerate(node.children):
            span = 2 * sizes[id(child)] + 1
            if pos < span:
                path.append((node, at))
                node = child
                break
            pos -= span
        else:
            raise ValueError("slot out of range")


def _canonical_ids(root):
    # edge ids in first-descent order, as the parser assigns them
    order = list(preorder(root))
    index = {id(node): i for i, node in enumerate(order)}
    rebuilt = {}
    for node in reversed(order):
        rebuilt[id(node)] = Node(
            node.label,
            tuple((index[id(child)] - 1, rebuilt[id(child)])
                  for _, child in node.children))
    return rebuilt[id(root)]


def node_increasing_trees(n):
    """The roots of the increasing trees, by path-copying leaf insertion."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield Node(1)
        return
    for prev in node_increasing_trees(n - 1):
        for slot in range(2 * n - 1):
            yield _canonical_ids(_insert_leaf(prev, slot, n + 1, n - 1))


def increasing_trees(n):
    for root in node_increasing_trees(n):
        yield from_nodes(root)


def _random_increasing_tree(n, rng):
    root = Node(1)
    for m in range(1, n + 1):
        slot = rng.randrange(2 * m - 1)
        root = _insert_leaf(root, slot, m + 1, m - 1)
    return flat(NodeTree(_canonical_ids(root)))


def sample_increasing_tree(n, seed):
    if n < 0:
        raise ValueError("n must be >= 0")
    return _random_increasing_tree(n, random.Random(seed))


def sample_increasing_trees(n, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_increasing_tree(n, rng)


# ---- the exhaustive routes before the enumeration kernels ----

def shape_kids(parents):
    """Preorder children arrays of a shape given by its preorder parents."""
    kids = [[] for _ in parents]
    for v, p in enumerate(parents[1:], 1):
        kids[p].append(v)
    return kids


def labelings(n, root_first):
    """(shape, labels) for every shape and labeling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for shape in plane_shapes(n):
        if root_first:
            for rest in permutations(range(2, n + 2)):
                yield shape, (1,) + rest
        else:
            for labels in permutations(range(1, n + 2)):
                yield shape, labels


def labeled_trees(n):
    for shape, labels in labelings(n, False):
        yield flat(node_build_tree(shape_kids(shape), labels))


def root_one_trees(n):
    for shape, labels in labelings(n, True):
        yield flat(node_build_tree(shape_kids(shape), labels))


def shape_histogram(shape, root_first):
    """(root degree, h) with h[a] the labelings with a improper edges, every
    subtree minimum and every vertex's count computed afresh per labeling."""
    kids = shape_kids(shape)
    count = len(kids)
    scan = [(v, tuple(reversed(kids[v]))) for v in range(count) if kids[v]]
    hist = [0] * count
    if root_first:
        labelings = ((1,) + rest for rest in permutations(range(2, count + 1)))
    else:
        labelings = permutations(range(1, count + 1))
    for labels in labelings:
        beta = list(labels)
        for v in range(count - 1, 0, -1):  # reverse preorder: child before parent
            b = beta[v]
            p = shape[v]
            if b < beta[p]:
                beta[p] = b
        impr = 0
        for v, rev in scan:
            bound = labels[v]
            for c in rev:
                bc = beta[c]
                if bc < bound:
                    impr += 1
                    bound = bc
        hist[impr] += 1
    return len(kids[0]), hist


def root_degree_counts(n):
    """S[n+1,r] = r S[n,r-1] + (2n-r) S[n,r]: a new leaf lands in one of the
    root's r slots or in one of the other 2n+1-(r+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = {0: 1}
    for m in range(n):
        grown = defaultdict(int)
        for r, c in counts.items():
            grown[r + 1] += c * (r + 1)
            if 2 * m - r > 0:
                grown[r] += c * (2 * m - r)
        counts = dict(grown)
    return counts


# ---- the truncated-series check of the generating-function identities ----

def _poly(value):
    return value if isinstance(value, Polynomial) else Polynomial.constant(value)


def _scaled(poly, factor):
    """poly with every coefficient times a Fraction; the library's
    ``Polynomial`` takes int scalars only."""
    return Polynomial({k: v * factor for k, v in poly.coeffs.items()})


class Series:
    """Power series in q truncated at a fixed order, with Polynomial
    coefficients over exact rationals (scaled here by :func:`_scaled`)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(_poly, coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def from_polynomial(cls, poly, order):
        return cls([_poly(poly)] + [Polynomial()] * order)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("series orders differ")
        return Series(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("series orders differ")
        n = self.order
        out = [Polynomial() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if not a.coeffs:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b.coeffs:
                    out[i + j] = out[i + j] + a * b
        return Series(out)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        lines = []
        for k, poly in enumerate(self.coeffs):
            denom = 1
            for c in poly.coeffs.values():
                denom = math.lcm(denom, c.denominator)
            lines.append(f"q^{k}: {poly * denom} / {denom}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Series(order={self.order})"


def sqrt_series(u, order):
    """Truncated expansion of sqrt(1 - 2 u q) for a polynomial u.

    The q^m coefficient is -(2m-3)!! u^m / m!  (m >= 1), with the empty
    double factorial equal to 1.
    """
    u = _poly(u)
    coeffs = [Polynomial.constant(1)]
    upow = Polynomial.constant(1)
    for m in range(1, order + 1):
        upow = upow * u
        scale = Fraction(-odd_double_factorial(m - 1), math.factorial(m))
        coeffs.append(_scaled(upow, scale))
    return Series(coeffs)


def egf_series(polys):
    """Series whose q^n coefficient is the n-th given polynomial over n!."""
    return Series(_scaled(_poly(p), Fraction(1, math.factorial(n)))
                  for n, p in enumerate(polys))


def series_egf_flags(tables):
    """(P, O, S identity holds) through q^order, order = len(tables) - 1,
    for per-n tables (P_n, O_n, S_n), by multiplying the series out."""
    order = len(tables) - 1
    xy = X + Y
    sqrt_xy = sqrt_series(xy, order)
    one = Series.from_polynomial(1, order)
    t_series = Series.from_polynomial(T, order)

    labeled_ok = egf_series(t[0] for t in tables) * sqrt_xy == one

    rooted_factor = Series.from_polynomial(xy - T, order) + t_series * sqrt_xy
    rooted_ok = (egf_series(t[1] for t in tables) * rooted_factor
                 == Series.from_polynomial(xy, order))

    degree_factor = (Series.from_polynomial(1 - T, order)
                     + t_series * sqrt_series(1, order))
    degree_ok = egf_series(t[2] for t in tables) * degree_factor == one
    return labeled_ok, rooted_ok, degree_ok


# ---- test-only helpers: a second classifier and the decomposition ----

def classify_edge_by_min_sets(tree, edge):
    """Compare the minimum of the labels weakly below the edge with the
    minimum of the parent label and every right-sibling subtree label."""
    parent, idx = edge_path(nodes(tree).root, edge)[-1]
    _, child = parent.children[idx]
    below = {node.label for node in preorder(child)}
    against = {parent.label}
    for _, sibling in parent.children[idx + 1:]:
        against.update(node.label for node in preorder(sibling))
    if min(below) > min(against):
        return EdgeStatus.PROPER
    return EdgeStatus.IMPROPER


@dataclass(frozen=True)
class Decomposition:
    """The five pieces a tree splits into at one edge."""

    parent: Node            # the edge's parent endpoint
    child: Node             # the edge's child endpoint
    edge: int
    left: tuple             # (edge id, subtree) pairs on the child's left siblings
    below: tuple            # (edge id, subtree) pairs on the child's children
    right: tuple            # (edge id, subtree) pairs on the child's right siblings


def decompose(tree, edge):
    parent, idx = edge_path(nodes(tree).root, edge)[-1]
    _, child = parent.children[idx]
    return Decomposition(
        parent=parent,
        child=child,
        edge=edge,
        left=parent.children[:idx],
        below=child.children,
        right=parent.children[idx + 1:],
    )


# ---- the Stirling walk before the single stack walk ----

def is_stirling(seq):
    if len(seq) % 2:
        return False
    n = len(seq) // 2
    if Counter(seq) != Counter({v: 2 for v in range(1, n + 1)}):
        return False
    stack = []
    for v in seq:
        if stack and stack[-1] == v:
            stack.pop()            # second copy closes
        else:
            if stack and v < stack[-1]:
                return False       # descent into an open value
            stack.append(v)
    return not stack


def blocks(seq):
    if not is_stirling(seq):
        raise ValueError("not a Stirling permutation")
    out = []
    depth = 0
    start = 0
    seen = set()
    for i, v in enumerate(seq):
        if v in seen:
            depth -= 1
            if depth == 0:
                out.append((start, i + 1))
                start = i + 1
                seen.clear()
        else:
            seen.add(v)
            depth += 1
    return out


def stirling_to_tree(seq):
    if not is_stirling(seq):
        raise ValueError("not a Stirling permutation")
    # frames of (label, children-so-far); edge ids follow the walk, which
    # is exactly first-descent order
    frames = [(1, [])]
    open_labels = []
    eid = 0
    for v in seq:
        label = v + 1
        if open_labels and open_labels[-1] == label:
            open_labels.pop()
            closed_label, closed_children = frames.pop()
            node = Node(closed_label, tuple(closed_children))
            frames[-1][1][-1] = (frames[-1][1][-1][0], node)
        else:
            frames[-1][1].append((eid, None))
            frames.append((label, []))
            open_labels.append(label)
            eid += 1
    root_label, root_children = frames[0]
    return flat(NodeTree(Node(root_label, tuple(root_children))))
