"""Reference implementations kept as the differential oracle.

These are the path-copying versions of the flip, the two bijections, leaf
insertion, the uniform increasing sampler and the increasing enumerator that
the library used before its mutable array core.  Each rebuilds the ancestors
of a changed vertex as new ``Node`` values, so a flip or an insertion costs
O(n) and a whole bijection or sample O(n^2); that is fine at test sizes.
They exist only to be compared against the library with ``==``, which checks
labels, child order, edge ids and tags.

Beside them are the exhaustive routes the library used before its in-place
enumeration kernels: the labeled enumerators that loop over shapes and
permutations themselves, the per-shape histogram that recomputes every
subtree minimum and every improper count for each labeling, and the
slot-counting recurrence for the root-degree counts.

Last come the helpers that only tests need: the edge classifier by the
minima of two explicit label sets, the five-piece decomposition of a tree
at one edge, and the Stirling walk as it was before the library's single
stack walk (a multiplicity check by ``Counter`` and then a stack, blocks by
a second walk with a ``seen`` set, and decoding through bracket frames).
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import permutations

from planetrees.families import build_tree, plane_shapes, shape_arrays

from planetrees.tree import (
    EdgeStatus,
    IMPROPER_TAG,
    PROPER_TAG,
    ROOT_TAG,
    Node,
    PlaneTree,
    edge_list,
    has_canonical_labels,
    improper_edges,
    is_increasing,
    preorder,
)


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


# ---- the flip and the bijections ----

def flip_edge(tree, edge):
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
    return PlaneTree(built, tree.tags)


def to_increasing(tree, rooted=False):
    if tree.is_tagged:
        raise ValueError("input tree is already tagged")
    if not has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if rooted and tree.root.label != 1:
        raise ValueError("rooted mode requires root label 1")
    flips = improper_edges(tree)
    improper = set(flips)
    tags = {}
    for eid, p, c in edge_list(tree):
        if eid in improper:
            tags[eid] = IMPROPER_TAG
        elif rooted and (p == 1 or c == 1):
            tags[eid] = ROOT_TAG
        else:
            tags[eid] = PROPER_TAG
    out = PlaneTree(tree.root, tags)
    for eid in flips:
        out = flip_edge(out, eid)
    if not is_increasing(out):
        raise RuntimeError("oracle to_increasing produced a non-increasing tree")
    return out


def from_increasing(tree):
    """The inverse as it validated before: only increasing, fully tagged and
    t at the root; the library now also checks labels and the t pattern."""
    if not is_increasing(tree):
        raise ValueError("input tree is not increasing")
    tags = tree.tags or {}
    edges = edge_list(tree)
    if len(tags) != len(edges):
        raise ValueError("every edge must carry a tag")
    root_label = tree.root.label
    for eid, p, c in edges:
        if tags[eid] == ROOT_TAG and root_label not in (p, c):
            raise ValueError("tag t is only allowed on edges at the root")
    out = PlaneTree(tree.root, tags)
    for eid, _, _ in edges:
        if tags[eid] == IMPROPER_TAG:
            out = flip_edge(out, eid)
    return PlaneTree(out.root, None)


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


def increasing_trees(n):
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield PlaneTree(Node(1))
        return
    for prev in increasing_trees(n - 1):
        for slot in range(2 * n - 1):
            yield PlaneTree(_canonical_ids(
                _insert_leaf(prev.root, slot, n + 1, n - 1)))


def _random_increasing_tree(n, rng):
    root = Node(1)
    for m in range(1, n + 1):
        slot = rng.randrange(2 * m - 1)
        root = _insert_leaf(root, slot, m + 1, m - 1)
    return PlaneTree(_canonical_ids(root))


def sample_increasing_tree(n, seed):
    if n < 0:
        raise ValueError("n must be >= 0")
    return _random_increasing_tree(n, random.Random(seed))


def sample_increasing_trees(n, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_increasing_tree(n, rng)


# ---- the exhaustive routes before the enumeration kernels ----

def labelings(n, root_first):
    """(preorder children arrays, labels) for every shape and labeling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for shape in plane_shapes(n):
        _, kids = shape_arrays(shape)
        if root_first:
            for rest in permutations(range(2, n + 2)):
                yield kids, (1,) + rest
        else:
            for labels in permutations(range(1, n + 2)):
                yield kids, labels


def labeled_trees(n):
    for kids, labels in labelings(n, False):
        yield build_tree(kids, labels)


def root_one_trees(n):
    for kids, labels in labelings(n, True):
        yield build_tree(kids, labels)


def shape_histogram(shape, root_first):
    """(root degree, h) with h[a] the labelings with a improper edges, every
    subtree minimum and every vertex's count computed afresh per labeling."""
    par, kids = shape_arrays(shape)
    count = len(par)
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
            p = par[v]
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


# ---- test-only helpers: a second classifier and the decomposition ----

def classify_edge_by_min_sets(tree, edge):
    """Compare the minimum of the labels weakly below the edge with the
    minimum of the parent label and every right-sibling subtree label."""
    parent, idx = edge_path(tree.root, edge)[-1]
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
    parent, idx = edge_path(tree.root, edge)[-1]
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
    return PlaneTree(Node(root_label, tuple(root_children)))
