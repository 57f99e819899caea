"""Stirling permutations and their walk bijection with increasing trees.

A Stirling permutation of order n is an arrangement of the multiset
{1,1,2,2,...,n,n} in which everything between the two copies of any value
exceeds that value.  Equivalently the word is a well-nested string of
brackets labeled 1..n whose labels increase going into any open bracket.

The bijection walks an increasing tree depth first and records, on both
the way down into a child and the way back up, the child's label minus
one.  Each child of the root opens and closes at top level, so the walk
splits into as many nested blocks as the root has children; a block of a
Stirling permutation is a maximal balanced factor.  The inverse reads the
word left to right: the first copy of v opens a child labeled v+1, the
second copy closes it.

That reading is written once, as a private stack walk
(``_stirling_arrays``) that validates a word in a single pass and returns
the preorder ``labels`` and ``parents`` of the increasing tree it encodes:
the first copies of the values come in the walk's preorder, each under the
vertex open at that point.  :func:`is_stirling`, :func:`blocks`,
:func:`stirling_to_tree` and :func:`block_table` all read it, and
:func:`stirling_to_tree` wraps its arrays as they stand.
:func:`tree_to_stirling` walks the tree's preorder ``parents`` with one
stack of the open vertices.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .tree import PlaneTree, has_canonical_labels, is_increasing


def parse_permutation(text: str) -> tuple[int, ...]:
    """Whitespace-separated positive integers in ASCII decimal digits."""
    parts = text.split()
    if not parts:
        raise ValueError("empty permutation")
    joined = "".join(parts)
    ascii_digits = joined.isascii() and joined.isdigit()
    values = tuple(map(int, parts)) if ascii_digits else ()
    if not values or min(values) < 1:
        # a fault: name the first one; "0" and "-1" are integers, not positive
        for part in parts:
            digits = part.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"not an integer: {part!r}")
            if int(part) < 1:
                raise ValueError(f"values must be positive, got {int(part)}")
    return values


def format_permutation(seq: Sequence[int]) -> str:
    return " ".join(str(v) for v in seq)


def _stirling_arrays(seq: Sequence[int]) -> tuple[list, list] | None:
    """Preorder (labels, parents) of the increasing tree that seq encodes,
    or None when seq is not a Stirling permutation."""
    if len(seq) % 2:
        return None
    n = len(seq) // 2
    labels, parents = [1], [-1]  # the root's
    at = [0] * (n + 1)  # preorder position of each opened value, 0 if unopened
    stack = [0]  # the root, then the values opened and not yet closed
    for v in seq:
        if not 1 <= v <= n:
            return None
        top = stack[-1]
        if v == top:
            stack.pop()            # second copy closes the top
        elif at[v] or v < top:
            return None            # a stray second or third copy, or a descent
        else:
            # first copy: child v+1 of the top, the next vertex in preorder
            at[v] = len(labels)
            labels.append(v + 1)
            parents.append(at[top])
            stack.append(v)
    return (labels, parents) if len(stack) == 1 else None


def is_stirling(seq: Sequence[int]) -> bool:
    """True iff seq is a Stirling permutation of {1,1,...,n,n} for some n."""
    return _stirling_arrays(seq) is not None


def _checked_arrays(seq: Sequence[int]) -> tuple[list, list]:
    arrays = _stirling_arrays(seq)
    if arrays is None:
        raise ValueError("not a Stirling permutation")
    return arrays


def blocks(seq: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal balanced factors of a Stirling permutation, as half-open
    index ranges."""
    # a block is one child of the root: it starts at the child's first copy
    # and ends at its second, and the root's children do not nest
    labels, parents = _checked_arrays(seq)
    outer = {label - 1 for label, p in zip(labels, parents) if p == 0}
    marks = [i for i, v in enumerate(seq) if v in outer]
    return [(marks[k], marks[k + 1] + 1) for k in range(0, len(marks), 2)]


def tree_to_stirling(tree: PlaneTree) -> tuple[int, ...]:
    """Depth-first walk of an increasing tree with labels 1..n+1; records
    child label minus one on the way down and again on the way up."""
    if tree.is_tagged:
        raise ValueError("expected an untagged tree")
    if not has_canonical_labels(tree):
        raise ValueError("labels must be exactly 1..n+1")
    if not is_increasing(tree):
        raise ValueError("not an increasing tree")
    labels, parents = tree.labels, tree.parents
    word: list[int] = []
    open_: list[int] = []  # the vertices entered and not yet left, root aside
    for v in range(1, len(labels)):
        # leave every open vertex that is not v's parent, deepest first
        p = parents[v]
        while open_ and open_[-1] != p:
            word.append(labels[open_.pop()] - 1)
        word.append(labels[v] - 1)
        open_.append(v)
    word.extend(labels[v] - 1 for v in reversed(open_))
    return tuple(word)


def stirling_to_tree(seq: Sequence[int]) -> PlaneTree:
    """Inverse walk: first copy of v opens a child labeled v+1 under the
    current vertex, second copy closes it."""
    labels, parents = _checked_arrays(seq)
    return PlaneTree._trusted(tuple(labels), tuple(parents))


def stirling_permutations(n: int):
    """All Stirling permutations of order n, built by inserting the pair
    ``n n`` into every gap of each permutation of order n-1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    pair = (n, n)
    # one frame per order m = len(stack): a word of order m-1 and the next
    # gap to put m m in; the last order's gaps are walked in one loop
    stack = [[(), 0]]
    while stack:
        word, gap = stack[-1]
        m = len(stack)
        if m < n and gap <= len(word):
            stack[-1][1] = gap + 1
            stack.append([word[:gap] + (m, m) + word[gap:], 0])
            continue
        stack.pop()
        if m == n:
            for gap in range(2 * n - 1):
                yield word[:gap] + pair + word[gap:]


def block_table(n: int) -> Counter:
    """Distribution of the block count over all order-n permutations."""
    # the blocks are the root's children
    return Counter(_stirling_arrays(seq)[1].count(0)
                   for seq in stirling_permutations(n))
