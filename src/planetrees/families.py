"""Exhaustive enumeration and uniform sampling of the three tree families.

The families (labeled plane trees, those whose root is labeled 1, and
increasing plane trees), their sizes, the exhaustive bounds and the shapes
live in ``counting``, which needs no tree; this module builds the trees.

Each family is enumerated by a private kernel that visits every object in
place and builds nothing: ``_labelings`` yields a shape with each labeling,
``_increasing_kids`` yields the one mutable set of child lists of a
backtracking walk at each of its leaves.  ``enum --count-only`` counts
on the kernels, and the polynomial sums need only the shapes;
:func:`labeled_trees`, :func:`root_one_trees` and
:func:`increasing_trees` are thin wrappers that build one :class:`PlaneTree`
per visit, streaming, so memory stays proportional to one tree.  A shape is
the preorder ``parents`` tuple a :class:`PlaneTree` stores, so a labeled
tree is a shape and a labels tuple as they stand.  Shapes come from
``counting``'s first-subtree decomposition (a shape with n edges is a first
child's subtree with k edges plus a remaining tree with n-1-k edges),
labelings are the
lexicographic permutations assigned to vertices in depth-first order, and
increasing trees are grown by inserting the next label into each of the 2m+1
child slots of a tree with m edges.  Removing the largest label is
deterministic, so every increasing tree has exactly one insertion history;
choosing slots uniformly at random therefore samples uniformly.  Uniform
labeled trees combine a uniform shape (random balanced word via the cycle
rotation trick) with a uniform labeling.

Increasing trees are grown in place, in one mutable list of children per
vertex (vertex v carries label v+1): child lists are where leaves are
inserted, and only there.  One builder, :func:`build_tree`, turns them into
a :class:`PlaneTree` with edge ids in first-descent order, for the
enumerator and the sampler.  Slots are numbered depth-first: vertex v with d
children owns slots 0..d, its positions among its children, before any slot
in its subtrees, and a subtree with s edges spans 2s+1 slots.  The kernel
walks the slots in that order by backtracking (insert, descend, remove).
The sampler draws a slot number with ``rng.randrange(2m-1)`` and descends to
it by subtree sizes kept up to date on the way down, scanning the children
of each vertex it passes.  The root degree grows like sqrt(n), so a sample
takes time superlinear in n.
"""

from __future__ import annotations

import math
import random
from itertools import islice, permutations
from typing import Iterator

from .counting import plane_shapes
from .tree import PlaneTree


def build_tree(kids: list[list[int]]) -> PlaneTree:
    """A fresh tree from child lists, vertex 0 the root and vertex v labeled
    v+1; one preorder walk emits the arrays."""
    labels = range(1, len(kids) + 1)
    order: list[int] = []
    parents: list[int] = []
    stack = [0]
    above = [-1]  # in step with stack: the position of each one's parent
    while stack:
        v = stack.pop()
        parents.append(above.pop())
        here = kids[v]
        if here:
            stack.extend(reversed(here))
            above.extend([len(order)] * len(here))
        order.append(v)
    return PlaneTree._trusted(tuple(map(labels.__getitem__, order)),
                              tuple(parents))


# ---- exhaustive enumeration ----

def _labelings(n: int,
               root_first: bool) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Kernel: (shape, labels) for every shape and labeling.

    Shapes are :func:`plane_shapes`' preorder parents tuples, in its order;
    within a shape, labels are the lexicographic permutations of 1..n+1 by
    preorder vertex, and with ``root_first`` only those with the root
    labeled 1.  One shape tuple is shared by all its labelings; no tree is
    built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # the permutations of 1..n+1 that start with 1 are the first n! of them
    per_shape = math.factorial(n) if root_first else math.factorial(n + 1)
    for shape in plane_shapes(n):
        for labels in islice(permutations(range(1, n + 2)), per_shape):
            yield shape, labels


def _labeled_trees(n: int, root_first: bool) -> Iterator[PlaneTree]:
    # a shape is the tree's parents tuple, and a labeling its labels tuple
    edges = None  # every tree shares the first one's fresh edge ids
    for parents, labels in _labelings(n, root_first):
        tree = PlaneTree._trusted(labels, parents, edges)
        edges = tree.edges
        yield tree


def labeled_trees(n: int) -> Iterator[PlaneTree]:
    """All labeled plane trees with n edges, labels 1..n+1."""
    return _labeled_trees(n, False)


def root_one_trees(n: int) -> Iterator[PlaneTree]:
    """All labeled plane trees with n edges whose root is labeled 1."""
    return _labeled_trees(n, True)


def _preorder(kids: list[list[int]]) -> list[int]:
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    return order


def _slots(kids: list[list[int]]) -> list[tuple[int, int]]:
    # depth-first: vertex v with d children owns positions 0..d among its
    # children before any slot in its subtrees
    return [(v, pos) for v in _preorder(kids) for pos in range(len(kids[v]) + 1)]


def _increasing_kids(n: int) -> Iterator[list[list[int]]]:
    """Kernel: the children lists of every increasing tree with n edges.

    A backtracking walk over one set of child lists (vertex v carries label
    v+1): the vertex labeled m+1 goes into each slot of the tree on 1..m in
    turn, and comes out again once every tree grown from that placement has
    been visited.  Each visit yields the same mutable lists, valid until the
    walk resumes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    if n == 0:
        yield kids
        return
    # one frame per placed vertex m = len(stack): its slots and the next one
    stack = [[_slots(kids), 0]]
    while stack:
        frame = stack[-1]
        slots, k = frame
        if k:
            v, pos = slots[k - 1]
            del kids[v][pos]
        if k == len(slots):
            stack.pop()
            continue
        frame[1] = k + 1
        v, pos = slots[k]
        m = len(stack)
        kids[v].insert(pos, m)
        if m == n:
            yield kids
        else:
            stack.append([_slots(kids), 0])


def increasing_trees(n: int) -> Iterator[PlaneTree]:
    """All increasing plane trees with n edges, grown by leaf insertion."""
    for kids in _increasing_kids(n):
        yield build_tree(kids)


# ---- uniform sampling ----

def _random_shape_parents(n: int, rng: random.Random) -> list[int]:
    """Preorder parents of a uniform shape with n edges."""
    # a uniform word of n up-steps and n+1 down-steps, rotated to start just
    # after its first prefix-sum minimum, is a uniform balanced word plus a
    # final down-step (cycle lemma: each rotation class of size 2n+1 holds
    # exactly one such word)
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    total = 0
    low = 2
    cut = -1
    for i, st in enumerate(steps):
        total += st
        if total < low:
            low = total
            cut = i
    word = steps[cut + 1:] + steps[:cut + 1]
    if word[-1] != -1:
        raise RuntimeError("rotated step word does not end in a down-step")
    parents = [-1]
    stack = [0]
    for st in word[:-1]:
        if st == 1:
            stack.append(len(parents))
            parents.append(stack[-2])
        else:
            stack.pop()
    return parents


def _random_labeled_tree(n: int, rng: random.Random) -> PlaneTree:
    parents = _random_shape_parents(n, rng)
    labels = list(range(1, n + 2))
    rng.shuffle(labels)
    return PlaneTree._trusted(tuple(labels), tuple(parents))


def _random_increasing_tree(n: int, rng: random.Random) -> PlaneTree:
    # the same depth-first slot numbering as the enumerator, so that a seed
    # picks the same tree: descend by subtree sizes to the chosen slot
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    size = [0] * (n + 1)  # edges below each vertex
    for m in range(1, n + 1):
        pos = rng.randrange(2 * m - 1)
        v = 0
        while True:
            size[v] += 1
            here = kids[v]
            if pos <= len(here):
                here.insert(pos, m)
                break
            pos -= len(here) + 1
            for c in here:
                span = 2 * size[c] + 1
                if pos < span:
                    v = c
                    break
                pos -= span
    return build_tree(kids)


def sample_labeled_tree(n: int, seed: int) -> PlaneTree:
    """One uniform labeled plane tree with n edges; deterministic in seed."""
    return next(sample_labeled_trees(n, seed, 1))


def sample_increasing_tree(n: int, seed: int) -> PlaneTree:
    """One uniform increasing plane tree with n edges; deterministic in seed."""
    return next(sample_increasing_trees(n, seed, 1))


def sample_labeled_trees(n: int, seed: int, count: int) -> Iterator[PlaneTree]:
    """``count`` uniform labeled plane trees with n edges from one seed; the
    first is ``sample_labeled_tree(n, seed)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_labeled_tree(n, rng)


def sample_increasing_trees(n: int, seed: int, count: int) -> Iterator[PlaneTree]:
    """``count`` uniform increasing plane trees with n edges from one seed;
    the first is ``sample_increasing_tree(n, seed)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_increasing_tree(n, rng)
