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
(``_stirling_arrays``) that validates a word in one pass and returns the
preorder ``labels`` and ``parents`` of the tree it encodes, first copies in
preorder, each under the vertex open at that point; :func:`is_stirling`,
:func:`blocks`, :func:`stirling_to_tree` and :func:`block_table` read it.
:func:`tree_to_stirling` walks the tree's ``parents`` with one stack of the
open vertices.  A word is also an insertion history: pair m m goes into one
of the 2m-1 gaps of the word before it, so :func:`stirling_permutations`
steps ``counting``'s histories of the first n-2 pairs, builds each word
once, and inserts n-1 n-1 and then n n into every gap.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .tree import PlaneTree, _require_input


def parse_permutation(text: str) -> tuple[int, ...]:
    """Whitespace-separated positive integers in ASCII decimal digits."""
    parts = text.split()
    if not parts:
        raise ValueError("empty permutation")
    joined = "".join(parts)
    ascii_digits = joined.isascii() and joined.isdigit()
    try:
        values = tuple(map(int, parts)) if ascii_digits else ()
    except ValueError:  # from int(), on a value with too many digits
        values = ()
    if not values or min(values) < 1:
        # a fault: name the first one; "0" and "-1" are integers, not positive
        for k, part in enumerate(parts, 1):
            digits = part.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"not an integer: {part!r}")
            try:
                value = int(part)
            except ValueError:
                raise ValueError(f"value {k} has too many digits") from None
            if value < 1:
                raise ValueError(f"values must be positive, got {value}")
    return values


def format_permutation(seq: Sequence[int]) -> str:
    try:
        return " ".join(map(str, seq))
    except ValueError:  # from str(), on a value with too many digits
        for k, value in enumerate(seq, 1):
            try:
                str(value)
            except ValueError:
                raise ValueError(f"value {k} has too many digits") from None
        raise


def _stirling_arrays(seq: Sequence[int]) -> tuple[list, list] | None:
    """Preorder (labels, parents) of the increasing tree that seq encodes,
    or None when seq is not a Stirling permutation.  With n = len(seq) // 2,
    each value in 1..n opens once and closes once, so a word of odd length
    2n+1 is refused at its last value, if not before: no length test."""
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
    # a block is one root child.  The one at preorder position p opens at
    # index 2(p-1): the p-1 vertices before it fill earlier blocks with both
    # copies.  Each block ends where the next opens, the last at len(seq)
    starts = [2 * p - 2 for p, parent in enumerate(_checked_arrays(seq)[1])
              if parent == 0]
    return list(zip(starts, starts[1:] + [len(seq)]))


def tree_to_stirling(tree: PlaneTree) -> tuple[int, ...]:
    """Depth-first walk of an increasing tree with labels 1..n+1; records
    child label minus one on the way down and again on the way up."""
    _require_input(tree, tagged=False, increasing=True)
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
    """All Stirling permutations of order n, in the lexicographic order of
    the gaps their pairs went into; one word is held, not one per order."""
    from .counting import _histories  # here: the walks need no counting

    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        yield (n, n) if n else ()
        return
    low, high = (n - 1, n - 1), (n, n)
    for history in _histories(n - 2):
        pairs: list[int] = []
        for m, gap in enumerate(history, 1):
            pairs[gap:gap] = m, m
        word = tuple(pairs)
        for g in range(2 * n - 3):
            shorter = word[:g] + low + word[g:]
            for h in range(2 * n - 1):
                yield shorter[:h] + high + shorter[h:]


def block_table(n: int) -> Counter:
    """Distribution of the block count over all order-n permutations."""
    # the blocks are the root's children
    return Counter(_stirling_arrays(seq)[1].count(0)
                   for seq in stirling_permutations(n))
