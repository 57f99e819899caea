"""Stirling permutations: validity, blocks, enumeration, and the
depth-first-walk bijection."""

import re
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from planetrees import (
    block_table,
    blocks,
    format_permutation,
    increasing_trees,
    is_stirling,
    odd_double_factorial,
    parse_permutation,
    parse_tree,
    render_tree,
    root_degree_polynomial,
    sample_increasing_tree,
    stirling_permutations,
    stirling_to_tree,
    tree_to_stirling,
)

import oracle
from conftest import FIG_INCREASING, FIG_WALK, LONG_NUMERAL, digit_limit

FOUR_BLOCK_PERM = (6, 6, 3, 4, 5, 5, 4, 3, 1, 1, 2, 7, 7, 2)


# ---- the defining predicate ----

@pytest.mark.parametrize("seq,expect", [
    (FOUR_BLOCK_PERM, True),
    ((1, 2, 1, 2), False),     # 1 sits between the two 2's
    ((), True),
    ((1, 1), True),
    ((2, 2), False),           # not the multiset {1,1}
    ((1, 1, 1), False),        # odd length
    ((1, 1, 1, 1), False),     # wrong multiplicities
    ((1, 2, 2, 1), True),
    ((2, 1, 1, 2), False),     # 1's sit between the two 2's
    ((2, 1, 2, 1), False),
    ((True, True), False),     # a bool is not an int
    ((1, True), False),
    ((1.0, 1.0), False),       # nor is a float or a str
    (("1", "1"), False),
])
def test_is_stirling(seq, expect):
    assert is_stirling(seq) is expect
    if not expect:
        for decode in (stirling_to_tree, blocks):
            with pytest.raises(ValueError,
                               match="^not a Stirling permutation$"):
                decode(seq)


def test_odd_lengths_are_refused_by_the_walk():
    # no length test: of 2n+1 values, the walk refuses the last one read
    # (out of 1..n, or a third copy) if it refused none before it
    for length in range(1, 10, 2):
        for seq in product(range(1, 4), repeat=length):
            assert not oracle.is_stirling(seq)
            assert not is_stirling(seq)
            for decode in (stirling_to_tree, blocks):
                with pytest.raises(ValueError,
                                   match="^not a Stirling permutation$"):
                    decode(seq)


def test_text_round_trip():
    assert parse_permutation(FIG_WALK) == (1, 4, 4, 7, 7, 2, 5, 5, 3, 3, 2, 1, 6, 6)
    assert format_permutation(FOUR_BLOCK_PERM) == "6 6 3 4 5 5 4 3 1 1 2 7 7 2"


@pytest.mark.parametrize("bad", ["", "a b", "1 0", "-1 -1"])
def test_parse_permutation_errors(bad):
    with pytest.raises(ValueError):
        parse_permutation(bad)


@pytest.mark.parametrize("bad, message", [
    ("2 2 +1 1", "not an integer: '+1'"),
    ("1_0 1_0", "not an integer: '1_0'"),
    ("\u0662 \u0662 1 1", "not an integer: '\u0662'"),  # Arabic-Indic two
    ("1 1 \u00b2", "not an integer: '\u00b2'"),
    ("1 1 x 0", "not an integer: 'x'"),
    ("1 0 x", "values must be positive, got 0"),
    ("-1 -1", "values must be positive, got -1"),
])
def test_parse_permutation_takes_ascii_decimal_digits_only(bad, message):
    # the numerals the tree parser accepts as labels, and no others
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_permutation(bad)


@digit_limit
@pytest.mark.parametrize("bad, message", [
    (f"1 1 {LONG_NUMERAL} 2", "value 3 has too many digits"),
    (f"-{LONG_NUMERAL} x", "value 1 has too many digits"),
    (f"0 {LONG_NUMERAL}", "values must be positive, got 0"),
    (f"x {LONG_NUMERAL}", "not an integer: 'x'"),
], ids=["long", "long negative", "zero first", "non-integer first"])
def test_parse_permutation_names_a_value_with_too_many_digits(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_permutation(bad)


# ---- blocks ----

def test_blocks_golden():
    ranges = blocks(FOUR_BLOCK_PERM)
    assert ranges == [(0, 2), (2, 8), (8, 10), (10, 14)]
    pieces = [FOUR_BLOCK_PERM[a:b] for a, b in ranges]
    assert pieces == [(6, 6), (3, 4, 5, 5, 4, 3), (1, 1), (2, 7, 7, 2)]


def test_blocks_of_walk_output():
    assert len(blocks(parse_permutation(FIG_WALK))) == 2


def test_blocks_edge_cases():
    assert blocks((1, 1)) == [(0, 2)]
    assert blocks(()) == []
    with pytest.raises(ValueError):
        blocks((1, 2, 1, 2))


# ---- walk bijection ----

def test_walk_golden(fig_increasing):
    walk = tree_to_stirling(parse_tree(fig_increasing))
    assert format_permutation(walk) == FIG_WALK


@pytest.mark.parametrize("text,expect", [
    ("1", ""),
    ("1(2)", "1 1"),
    ("1(2,3)", "1 1 2 2"),
    ("1(3,2)", "2 2 1 1"),
    ("1(2(3))", "1 2 2 1"),
])
def test_walk_small_trees(text, expect):
    assert format_permutation(tree_to_stirling(parse_tree(text))) == expect


def test_decode_golden():
    tree = stirling_to_tree(FOUR_BLOCK_PERM)
    assert render_tree(tree) == "1(7,4(5(6)),2,3(8))"
    assert (len(oracle.nodes(tree).root.children)
            == len(blocks(FOUR_BLOCK_PERM)) == 4)


def test_decode_small():
    assert render_tree(stirling_to_tree((1, 1))) == "1(2)"
    assert render_tree(stirling_to_tree(())) == "1"


def test_walk_errors():
    with pytest.raises(ValueError, match="^input tree is not increasing$"):
        tree_to_stirling(parse_tree("2(1)"))
    with pytest.raises(ValueError, match=r"^labels must be exactly 1\.\.n\+1$"):
        tree_to_stirling(parse_tree("1(3)"))
    with pytest.raises(ValueError, match="^input tree is already tagged$"):
        tree_to_stirling(parse_tree("1(2:y)"))
    with pytest.raises(ValueError):
        stirling_to_tree((1, 2, 1, 2))


def test_round_trips_exhaustive():
    for n in range(6):
        for tree in increasing_trees(n):
            walk = tree_to_stirling(tree)
            assert is_stirling(walk)
            assert stirling_to_tree(walk) == tree
        for seq in stirling_permutations(n):
            assert tree_to_stirling(stirling_to_tree(seq)) == seq


def test_walk_image_is_whole_family():
    for n in range(6):
        images = {tree_to_stirling(t) for t in increasing_trees(n)}
        assert images == set(stirling_permutations(n))
        assert len(images) == odd_double_factorial(n)


@given(st.integers(0, 20), st.integers(0, 10**9))
def test_round_trip_random(n, seed):
    tree = sample_increasing_tree(n, seed)
    walk = tree_to_stirling(tree)
    assert is_stirling(walk)
    assert len(walk) == 2 * n
    assert stirling_to_tree(walk) == tree


# ---- enumeration ----

def test_enum_small():
    assert list(stirling_permutations(0)) == [()]
    assert list(stirling_permutations(1)) == [(1, 1)]
    assert set(stirling_permutations(2)) == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}


def test_enum_matches_brute_force():
    # oracle: filter every distinct arrangement of the multiset
    for n in range(5):
        multiset = [v for v in range(1, n + 1) for _ in range(2)]
        brute = {p for p in permutations(multiset) if is_stirling(p)}
        assert set(stirling_permutations(n)) == brute


def test_enum_counts():
    for n in range(8):
        assert sum(1 for _ in stirling_permutations(n)) == odd_double_factorial(n)


def test_enum_walks_deep_orders_without_recursion():
    # the first word puts each pair in front of the last: n n ... 1 1
    first = next(stirling_permutations(3000))
    assert first == tuple(v for k in range(3000, 0, -1) for v in (k, k))
    # the first word costs memory in proportion to n: one word is held, not
    # one per order (about 72 MB were all 3000 of them kept)
    tracemalloc.start()
    try:
        next(stirling_permutations(3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_enum_is_duplicate_free():
    for n in range(6):
        seqs = list(stirling_permutations(n))
        assert len(set(seqs)) == len(seqs)


# ---- block statistics ----

def test_block_count_equals_root_degree():
    for n in range(6):
        for tree in increasing_trees(n):
            assert (len(blocks(tree_to_stirling(tree)))
                    == len(oracle.nodes(tree).root.children))


def test_block_table_goldens():
    assert dict(block_table(1)) == {1: 1}
    assert dict(block_table(2)) == {1: 1, 2: 2}
    assert dict(block_table(3)) == {1: 3, 2: 6, 3: 6}


def test_block_table_matches_root_degree_polynomial():
    for n in range(1, 6):
        coeffs = {c: v for (_, _, c), v in root_degree_polynomial(n).coeffs.items()}
        assert dict(block_table(n)) == coeffs


def test_block_table_total():
    for n in range(6):
        assert sum(block_table(n).values()) == odd_double_factorial(n)
