"""Counting that needs no tree: family sizes, the exhaustive bounds, the
plane shapes and the insertion histories.

Families, for a given number of edges n (labels drawn from 1..n+1):

* labeled plane trees, counted by (n+1)! C_n = 2^n (2n-1)!!,
* labeled plane trees whose root is labeled 1, counted by n! C_n,
* increasing plane trees (every edge goes small to large), counted by
  (2n-1)!!, one per insertion history, as are Stirling permutations.

A shape is the preorder ``parents`` tuple a ``PlaneTree`` stores, so the
polynomial sums and the enumerators in ``families`` read the same shapes;
they are built level by level, each size below n once and size n streamed.
This module imports nothing from the package: ``verify`` skips the tree layer.

The bounds below are where exhaustive work stops being a desk-scale job;
the polynomial layer and the command line refuse larger n unless forced,
both through :func:`_require_bound`.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

MAX_LABELED_EDGES = 6      # |labeled family| at 6 is 665,280
MAX_INCREASING_EDGES = 7   # |increasing family| at 7 is 135,135


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def odd_double_factorial(n: int) -> int:
    """Product of the first n odd numbers, 1 * 3 * ... * (2n-1); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.prod(range(3, 2 * n, 2))


class FamilyCount(NamedTuple):
    n: int
    labeled: int
    root_one: int
    increasing: int
    catalan: int


def family_count(n: int) -> FamilyCount:
    c = catalan(n)
    return FamilyCount(
        n=n,
        labeled=math.factorial(n + 1) * c,
        root_one=math.factorial(n) * c,
        increasing=odd_double_factorial(n),
        catalan=c,
    )


def _require_bound(n: int, bound: int, force: bool, what: str) -> None:
    """Refuse a negative n, and an n past an exhaustive bound unless forced."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > bound and not force:
        raise ValueError(
            f"n={n} exceeds the exhaustive bound {bound} for {what}; "
            f"force to run anyway (--force)")


def _next_level(levels: list) -> Iterator[tuple[int, ...]]:
    """The shapes with len(levels) edges; levels[k] lists the k-edge ones."""
    for k in range(len(levels)):
        # the first child's subtree sits at positions 1..k+1, and the
        # remaining tree's other vertices follow it
        tails = [tuple(p + k + 1 if p else 0 for p in rest[1:])
                 for rest in levels[-1 - k]]
        for first in levels[k]:
            head = (-1, 0) + tuple(p + 1 for p in first[1:])
            for tail in tails:
                yield head + tail


def plane_shapes(n: int) -> Iterator[tuple[int, ...]]:
    """All plane tree shapes with n edges, as preorder parents tuples (the
    ``parents`` of ``PlaneTree``; ``(-1,)`` for n = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    levels = [[(-1,)]]
    while len(levels) < n:
        levels.append(list(_next_level(levels)))
    yield from _next_level(levels) if n else levels[0]


def _histories(length: int) -> Iterator[list[int]]:
    """Every insertion history (k_1, ..., k_length), k_m < 2m-1, in
    lexicographic order: one list stepped in place, the last digit fastest."""
    history = [0] * length
    while True:
        yield history
        for m in range(length - 1, -1, -1):
            if history[m] < 2 * m:
                history[m] += 1
                break
            history[m] = 0
        else:
            return
