"""Exhaustive enumeration and uniform sampling of the three tree families.

The families (labeled plane trees, those whose root is labeled 1, and
increasing plane trees), their sizes, the exhaustive bounds and the shapes
live in ``counting``, which needs no tree; this module builds the trees.

Each family is enumerated by a private kernel that visits every object in
place and builds nothing: ``_labelings`` yields a shape with each labeling,
``_increasing_kids`` yields the mutable child lists of each increasing tree.
``enum --count-only`` counts
on the kernels, and the polynomial sums need only the shapes;
:func:`labeled_trees`, :func:`root_one_trees` and
:func:`increasing_trees` are thin wrappers that build one :class:`PlaneTree`
per visit, streaming, so memory stays proportional to one tree.  A shape is
the preorder ``parents`` tuple a :class:`PlaneTree` stores, so a labeled
tree is a shape and a labels tuple as they stand.  Shapes come from
``counting``'s first-subtree decomposition (a shape with n edges is a first
child's subtree with k edges plus a remaining tree with n-1-k edges), and
labelings are the
lexicographic permutations assigned to vertices in depth-first order.  Uniform
labeled trees combine a uniform shape (random balanced word via the cycle
rotation trick) with a uniform labeling.

An increasing tree is its insertion history: the vertex labeled m+1 goes
into one of the 2m-1 child slots of the tree on 1..m, so the tree is a
tuple (k_1, ..., k_n) with k_m < 2m-1, and removing the largest label
recovers the last step, so every tree has exactly one history and there are
(2n-1)!! of them.  One map, :func:`_grow`, turns a history into one mutable
list of children per vertex (vertex v carries label v+1), and one builder,
:func:`build_tree`, turns those into a :class:`PlaneTree` with edge ids in
first-descent order.  Slots are numbered depth-first: vertex v with d
children owns slots 0..d, its positions among its children, before any slot
in its subtrees, and a subtree with s edges spans 2s+1 slots.  The sampler
grows a history of uniform draws below 2m-1, m = 1..n, so uniform slots give
a uniform tree.  ``_grow`` keeps the slots as one preorder list of their
owners, in chunks split only between vertices, so a step reads k's owner and
inserts into one chunk with no subtree sizes and no child scans: linear in n
but for the walk to k's chunk.  A chunk holds up to ``_chunk_limit(n)``, about
4 sqrt(2n) slots, so the ``insert`` memmove and the chunk walk cost alike, and
a tree with n <= 128 grows in one chunk.  The enumerator grows each history of
the first n-1 steps, as ``counting``'s odometer steps them in lexicographic
order, and puts the last vertex into each entry of that slot list in turn, at
its offset in its owner's block, so it lists the trees in that order.

Both samplers draw through :func:`_below`, from ``rng.getrandbits`` alone:
the values ``randrange`` and ``shuffle`` draw on CPython 3.11.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, chain, groupby, islice, permutations
from typing import Iterable, Iterator

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


def _chunk_limit(n: int) -> int:
    """Slots a chunk may hold before a draw landing in it splits it: about
    4 sqrt(2n), balancing the ``insert`` memmove against the chunk walk, and
    never below 256, so a tree with n <= 128 grows in one chunk."""
    return max(256, 4 * math.isqrt(2 * n))


def _grow(n: int,
          draws: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Child lists and slot list of the tree grown by an insertion history:
    the m-th draw k < 2m-1 puts the vertex labeled m+1 into slot k of the
    tree on 1..m.  ``draws`` may stop early; the vertices it never placed
    stay detached.  The slot list is the slots' owners in depth-first order,
    in chunks: vertex v's block is its d+1 slots, v repeated."""
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    head = [0]
    chunks = [head]
    where = [head] * (n + 1)  # the chunk holding each vertex's block
    limit = _chunk_limit(n)
    half = limit // 2  # up to this step, the 2m-1 slots fit in one chunk
    for m, k in enumerate(draws, 1):
        chunk = head
        if m > half:
            back = k >= m  # walk the chunks from the nearer end
            k = 2 * m - 2 - k if back else k
            for chunk in reversed(chunks) if back else chunks:
                if k < (size := len(chunk)):
                    break
                k -= size
            k = len(chunk) - 1 - k if back else k
            if len(chunk) > limit:  # split at a block start near the middle
                h = len(chunk) // 2
                u = chunk[h]
                h = chunk.index(u, max(h - len(kids[u]), 0)) or len(kids[u]) + 1
                if h < len(chunk):
                    tail = chunk[h:]
                    del chunk[h:]
                    chunks.insert(chunks.index(chunk) + 1, tail)
                    for u in tail:
                        where[u] = tail
                    if k >= h:
                        chunk, k = tail, k - h
        v = chunk[k]
        here = kids[v]
        d = len(here)
        pos = k - chunk.index(v, k - d if k > d else 0) if d else 0
        chunk.insert(k, v)
        if pos:  # after the rightmost leaf of the child before m
            r = here[pos - 1]
            while kids[r]:
                r = kids[r][-1]
            into = where[m] = where[r]
            into.insert(into.index(r, k if into is chunk else 0) + 1, m)
        else:  # m is v's first child: its slot follows v's block
            chunk.insert(k + d + 2, m)
            where[m] = chunk
        here.insert(pos, m)
    return kids, chunks


# ---- exhaustive enumeration ----

def _labelings(n: int,
               root_first: bool) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Kernel: (shape, labels) for every shape and labeling.

    Shapes are :func:`plane_shapes`' preorder parents tuples, in its order;
    within a shape, labels are the lexicographic permutations of 1..n+1 by
    preorder vertex, and with ``root_first`` only those with the root
    labeled 1.  One shape tuple is shared by all its labelings; no tree is
    built.  A negative n is refused by :func:`plane_shapes`.
    """
    from .counting import plane_shapes  # here: the samplers need no counting

    for shape in plane_shapes(n):
        # the permutations of 1..n+1 that start with 1 are the first n!
        per_shape = math.factorial(n if root_first else n + 1)
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


def _increasing_kids(n: int) -> Iterator[list[list[int]]]:
    """Kernel: the children lists of every increasing tree with n edges.

    For each history of the first n-1 insertions, in lexicographic order,
    the tree :func:`_grow` makes of it, with the vertex labeled n+1 put
    into each slot of its slot list in turn (vertex v carries label v+1).  Each
    visit yields mutable lists, valid until the walk resumes.
    """
    from .counting import _histories  # here: the samplers need no counting

    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield [[]]
        return
    for history in _histories(n - 1):
        kids, chunks = _grow(n, history)
        for v, block in groupby(chain.from_iterable(chunks)):
            here = kids[v]
            for pos, _ in enumerate(block):
                here.insert(pos, n)
                yield kids
                del here[pos]


def increasing_trees(n: int) -> Iterator[PlaneTree]:
    """All increasing plane trees with n edges, grown by leaf insertion."""
    for kids in _increasing_kids(n):
        yield build_tree(kids)


# ---- uniform sampling ----

def _below(rng: random.Random, stops: Iterable[int]) -> Iterator[int]:
    """One uniform draw below each stop, from ``rng.getrandbits`` alone:
    ``stop.bit_length()`` bits, redrawn while not below ``stop``, which is
    how ``rng.randrange(stop)`` draws, so the values are the same."""
    bits = rng.getrandbits
    for stop in stops:
        k = stop.bit_length()
        r = bits(k)
        while r >= stop:
            r = bits(k)
        yield r


def _shuffle(x: list, rng: random.Random) -> None:
    """``rng.shuffle(x)``'s permutation, drawn through :func:`_below`."""
    # Fisher-Yates from the last item down: item i swaps with one of 0..i
    top = range(len(x) - 1, 0, -1)
    for i, j in zip(top, _below(rng, range(len(x), 1, -1))):
        x[i], x[j] = x[j], x[i]


def _random_shape_parents(n: int, rng: random.Random) -> list[int]:
    """Preorder parents of a uniform shape with n edges."""
    # a uniform word of n up-steps and n+1 down-steps, rotated to start just
    # after its first prefix-sum minimum, is a uniform balanced word plus a
    # final down-step (cycle lemma: each rotation class of size 2n+1 holds
    # exactly one such word)
    steps = [1] * n + [-1] * (n + 1)
    _shuffle(steps, rng)
    sums = list(accumulate(steps))
    cut = sums.index(min(sums))
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
    _shuffle(labels, rng)
    return PlaneTree._trusted(tuple(labels), tuple(parents))


def _random_increasing_tree(n: int, rng: random.Random) -> PlaneTree:
    return build_tree(_grow(n, _below(rng, range(1, 2 * n, 2)))[0])


def sample_labeled_tree(n: int, seed: int) -> PlaneTree:
    """One uniform labeled plane tree with n edges; deterministic in seed."""
    return next(sample_labeled_trees(n, seed, 1))


def sample_increasing_tree(n: int, seed: int) -> PlaneTree:
    """One uniform increasing plane tree with n edges; deterministic in seed."""
    return next(sample_increasing_trees(n, seed, 1))


def _draws(n: int, seed: int, count: int, draw) -> Iterator[PlaneTree]:
    """``count`` trees ``draw(n, rng)`` from one seeded generator."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    for _ in range(count):
        yield draw(n, rng)


def sample_labeled_trees(n: int, seed: int, count: int) -> Iterator[PlaneTree]:
    """``count`` uniform labeled plane trees with n edges from one seed; the
    first is ``sample_labeled_tree(n, seed)``."""
    return _draws(n, seed, count, _random_labeled_tree)


def sample_increasing_trees(n: int, seed: int, count: int) -> Iterator[PlaneTree]:
    """``count`` uniform increasing plane trees with n edges from one seed;
    the first is ``sample_increasing_tree(n, seed)``."""
    return _draws(n, seed, count, _random_increasing_tree)
