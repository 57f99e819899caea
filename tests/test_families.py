"""Counting, exhaustive enumeration, and uniform sampling of the three
tree families."""

import hashlib
import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import chain, groupby, product

import pytest
from hypothesis import given, strategies as st

from planetrees import (
    catalan,
    family_count,
    has_canonical_labels,
    increasing_trees,
    is_increasing,
    labeled_trees,
    odd_double_factorial,
    parse_tree,
    plane_shapes,
    render_tree,
    root_one_trees,
    sample_increasing_tree,
    sample_increasing_trees,
    sample_labeled_tree,
    sample_labeled_trees,
    stirling_permutations,
)
from planetrees import families
from planetrees.counting import _histories
from planetrees.families import (_below, _chunk_limit, _grow,
                                 _increasing_kids, _labelings,
                                 _random_increasing_tree,
                                 _random_labeled_tree, _shuffle, build_tree)

from conftest import Draws


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_counts_refuse_negative_n_with_the_package_message():
    # not math.comb's "n must be a non-negative integer"
    for count in (catalan, family_count):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            count(-1)


def test_odd_double_factorial_values():
    assert [odd_double_factorial(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]
    assert odd_double_factorial(7) == 135135


def test_count_identity_numerically():
    # (n+1)! C_n = 2^n (2n-1)!! without any enumeration
    for n in range(40):
        assert (math.factorial(n + 1) * catalan(n)
                == 2 ** n * odd_double_factorial(n))


def test_family_count_record():
    fc = family_count(6)
    assert fc.labeled == 665280
    assert fc.root_one == 95040
    assert fc.increasing == 10395
    assert fc.catalan == 132


def test_shape_count_and_distinctness():
    for n in range(9):
        shapes = list(plane_shapes(n))
        assert len(shapes) == catalan(n)
        assert len(set(shapes)) == len(shapes)


def test_plane_shapes_rejects_negative():
    # as does every other public generator of a family; the labeled ones
    # and their kernel are refused by plane_shapes, before any factorial
    # (math.factorial(-1) has a message of its own)
    for generator in (plane_shapes, labeled_trees, root_one_trees,
                      increasing_trees, stirling_permutations,
                      lambda n: _labelings(n, False),
                      lambda n: _labelings(n, True)):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            list(generator(-1))


def test_histories_walk_every_insertion_history_in_place():
    # digit m (from 0) stays below 2m+1, the histories strictly increase,
    # and one list is stepped in place
    for length in range(7):
        walk = _histories(length)
        first = next(walk)
        seen = [list(first)]
        for history in walk:
            assert history is first
            assert history > seen[-1]
            seen.append(list(history))
        assert len(seen) == odd_double_factorial(length)
        assert all(k < 2 * m + 1 for history in seen
                   for m, k in enumerate(history))
    assert list(_histories(0)) == [[]]


def test_labeled_trees_golden_sets():
    assert {render_tree(t) for t in labeled_trees(0)} == {"1"}
    assert {render_tree(t) for t in labeled_trees(1)} == {"1(2)", "2(1)"}
    n2 = {render_tree(t) for t in labeled_trees(2)}
    assert n2 == {
        "1(2,3)", "1(3,2)", "2(1,3)", "2(3,1)", "3(1,2)", "3(2,1)",
        "1(2(3))", "1(3(2))", "2(1(3))", "2(3(1))", "3(1(2))", "3(2(1))",
    }


def test_root_one_trees_golden_set():
    assert {render_tree(t) for t in root_one_trees(2)} == {
        "1(2,3)", "1(3,2)", "1(2(3))", "1(3(2))",
    }


def test_increasing_trees_golden_set():
    assert {render_tree(t) for t in increasing_trees(0)} == {"1"}
    assert {render_tree(t) for t in increasing_trees(1)} == {"1(2)"}
    assert {render_tree(t) for t in increasing_trees(2)} == {
        "1(2,3)", "1(3,2)", "1(2(3))",
    }


def test_enumerations_are_duplicate_free():
    for n in range(5):
        fc = family_count(n)
        for it, expect in ((labeled_trees, fc.labeled),
                           (root_one_trees, fc.root_one),
                           (increasing_trees, fc.increasing)):
            texts = [render_tree(t) for t in it(n)]
            assert len(texts) == expect
            assert len(set(texts)) == expect


def test_enumerated_trees_are_well_formed():
    for n in range(5):
        for tree in labeled_trees(n):
            assert has_canonical_labels(tree)
            assert tree.edge_count == n
        for tree in increasing_trees(n):
            assert is_increasing(tree)
            assert has_canonical_labels(tree)


def test_root_one_matches_filtered_labeled():
    for n in range(5):
        filtered = {render_tree(t) for t in labeled_trees(n)
                    if t.labels[0] == 1}
        assert {render_tree(t) for t in root_one_trees(n)} == filtered


def test_insertion_slots_counts_gaps():
    # a tree with n edges offers 2n+1 places to hang a new leaf: each
    # vertex's d+1 positions among its children, one block per vertex, the
    # blocks in preorder
    for n in range(6):
        for history in product(*map(range, range(1, 2 * n, 2))):
            kids, chunks = _grow(n, history)
            slots = list(chain.from_iterable(chunks))
            assert len(slots) == 2 * n + 1
            blocks = [(v, len(list(block))) for v, block in groupby(slots)]
            preorder = [label - 1 for label in build_tree(kids).labels]
            assert blocks == [(v, len(kids[v]) + 1) for v in preorder]


def test_increasing_growth_covers_every_slot():
    # inserting the next label into each slot of I_2 yields I_3 exactly
    grown = {render_tree(t) for t in increasing_trees(3)}
    assert len(grown) == 15
    for tree in increasing_trees(3):
        assert is_increasing(tree)


def test_enum_grows_deep_trees_without_recursion():
    # the all-zero history puts each label in front of the last: a star
    first = next(increasing_trees(2000))
    assert render_tree(first) == (
        "1(" + ",".join(map(str, range(2001, 1, -1))) + ")")
    # the first tree costs memory in proportion to n, not to the n^2 digits
    # of every history's ranges (about 140 MB were they all built at once)
    tracemalloc.start()
    try:
        next(_increasing_kids(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---- samplers ----

def test_samplers_are_deterministic():
    a = [render_tree(t) for t in sample_labeled_trees(8, 31, 6)]
    b = [render_tree(t) for t in sample_labeled_trees(8, 31, 6)]
    assert a == b
    c = [render_tree(t) for t in sample_increasing_trees(8, 31, 6)]
    d = [render_tree(t) for t in sample_increasing_trees(8, 31, 6)]
    assert c == d


def test_sampler_and_enumerator_share_the_history_map():
    # the sampler fed every insertion history in lexicographic order draws
    # the enumeration, tree for tree
    for n in range(6):
        histories = product(*map(range, range(1, 2 * n, 2)))
        assert ([_random_increasing_tree(n, Draws(h)) for h in histories]
                == list(increasing_trees(n)))


def test_below_draws_what_randrange_draws():
    # the sampler's stops, then 1, powers of two and their neighbours, and
    # stops wider than one 32-bit word
    stops = [*range(1, 80, 2), 1, 1, 2, 3, 4, 5, 63, 64, 65, 255, 256, 257,
             2**32 - 1, 2**32, 2**32 + 1, 2**70 + 3]
    for seed in range(200):
        rng = random.Random(seed)
        assert (list(_below(random.Random(seed), stops))
                == [rng.randrange(stop) for stop in stops])


def test_shuffle_draws_what_random_shuffle_draws():
    for seed in range(200):
        for length in range(131):
            got, expected = list(range(length)), list(range(length))
            _shuffle(got, random.Random(seed))
            random.Random(seed).shuffle(expected)
            assert got == expected, (seed, length)


class _BitsOnly:
    """``random.Random`` cut down to ``getrandbits``: reading any other
    attribute raises ``AttributeError``."""

    def __init__(self, rng):
        self.getrandbits = rng.getrandbits


def test_samplers_read_only_getrandbits():
    for n in (0, 1, 2, 5, 30, 200):
        for seed in range(20):
            for draw in (_random_labeled_tree, _random_increasing_tree):
                assert (draw(n, _BitsOnly(random.Random(seed)))
                        == draw(n, random.Random(seed)))


@pytest.mark.parametrize("n", [127, 128, 129, 257, 1000, 3000])
def test_chunk_limit_is_invisible(monkeypatch, n):
    # 10^9 keeps one chunk throughout; a limit of 8 splits chunks from the
    # fifth step on and leaves blocks too long to split; neither the child
    # lists nor the flattened slot list may tell the limits apart
    for seed in range(3):
        rng = random.Random(seed)
        history = [rng.randrange(stop) for stop in range(1, 2 * n, 2)]
        grown = []
        for limit in (10**9, _chunk_limit(n), 64, 8):
            monkeypatch.setattr(families, "_chunk_limit", lambda n: limit)
            kids, chunks = _grow(n, history)
            grown.append((kids, list(chain.from_iterable(chunks))))
        assert all(both == grown[0] for both in grown), seed


def test_chunk_limit_holds_small_trees_in_one_chunk():
    # _grow walks chunks only past step limit // 2, so up to n = 128 the
    # pipe's trees and the enumerator's never reach the chunk walk
    assert all(_chunk_limit(n) >= 2 * n for n in range(129))


def test_different_seeds_differ():
    a = [render_tree(t) for t in sample_labeled_trees(10, 0, 4)]
    b = [render_tree(t) for t in sample_labeled_trees(10, 1, 4)]
    assert a != b


@given(st.integers(0, 16), st.integers(0, 10**9))
def test_sampled_labeled_tree_is_valid(n, seed):
    tree = sample_labeled_tree(n, seed)
    assert tree.edge_count == n
    assert has_canonical_labels(tree)
    assert not tree.is_tagged


@given(st.integers(0, 16), st.integers(0, 10**9))
def test_sampled_increasing_tree_is_valid(n, seed):
    tree = sample_increasing_tree(n, seed)
    assert tree.edge_count == n
    assert is_increasing(tree)
    assert has_canonical_labels(tree)


@pytest.mark.parametrize("one, many", [
    (sample_labeled_tree, sample_labeled_trees),
    (sample_increasing_tree, sample_increasing_trees),
])
def test_single_sample_is_the_first_draw(one, many):
    for n in range(12):
        for seed in range(5):
            assert one(n, seed) == next(many(n, seed, 3))
    for sampler in (lambda: one(-1, 0), lambda: next(many(-1, 0, 1))):
        with pytest.raises(ValueError, match="n must be >= 0"):
            sampler()
    for count in (0, -3):  # checked before n
        with pytest.raises(ValueError, match="^count must be >= 1$"):
            list(many(-1, 0, count))
    for count in (2.5, True, "1"):  # not read as 2 or 1 trees
        with pytest.raises(ValueError, match="^count must be an int$"):
            list(many(2, 0, count))


def test_increasing_sampler_at_scale():
    # the seed -> tree map at n = 10^5, pinned by the sha256 of the text
    started = time.perf_counter()
    tree = sample_increasing_tree(10**5, 1)
    assert time.perf_counter() - started < 3.0
    assert tree.edge_count == 10**5
    assert is_increasing(tree)
    assert has_canonical_labels(tree)
    assert hashlib.sha256(render_tree(tree).encode()).hexdigest() == (
        "037452b53812868dd8a3d5d6b16a869b9aa8030175591bc19639ce44c3994c2f")


def test_labeled_sampler_is_uniform():
    # 12 trees in the n=2 family; 120000 draws, expect 10000 each within 10%
    draws = 120000
    counts = Counter(render_tree(t)
                     for t in sample_labeled_trees(2, 2024, draws))
    assert len(counts) == 12
    for got in counts.values():
        assert abs(got / draws - 1 / 12) < 0.01


def test_increasing_sampler_is_uniform():
    draws = 100000
    counts = Counter(render_tree(t)
                     for t in sample_increasing_trees(2, 99, draws))
    assert len(counts) == 3
    for got in counts.values():
        assert abs(got / draws - 1 / 3) < 0.01


def test_sampler_hits_every_shape():
    # shape marginal of the n=3 labeled sampler: 5 shapes, C_3 = 5
    seen = {render_tree(t) for t in sample_labeled_trees(3, 7, 4000)}
    assert len(seen) == 120  # every single tree of P_3 shows up
