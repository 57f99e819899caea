"""Tree text format, edge identity, and proper/improper classification."""

import re
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from planetrees import (
    EdgeStatus,
    PlaneTree,
    TreeParseError,
    classify_edge,
    edge_id,
    edge_list,
    flip_edge,
    format_permutation,
    has_canonical_labels,
    improper_edges,
    is_increasing,
    labeled_trees,
    parse_tree,
    plane_shapes,
    render_tree,
    sample_labeled_tree,
    to_increasing,
    tree_stats,
    tree_to_stirling,
)
from conftest import (FIG_INCREASING, FIG_LABELED, FIG_TAGGED, LONG_NUMERAL,
                      digit_limit)
import oracle
from oracle import classify_edge_by_min_sets


# ---- parsing and rendering ----

@pytest.mark.parametrize("text", [
    "1",
    "2(1)",
    "1(2)",
    "3(2,1)",
    FIG_LABELED,
    FIG_INCREASING,
    FIG_TAGGED,
    "1(2:t(3:x))",
])
def test_round_trip(text):
    assert render_tree(parse_tree(text)) == text


def test_whitespace_ignored():
    spread = " 5 ( 1 ( 7 ) , 3 ( 8 , 2 , 6 , 4 ) ) "
    assert render_tree(parse_tree(spread)) == FIG_LABELED


def test_str_matches_render(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert str(tree) == render_tree(tree)
    assert repr(tree) == f"PlaneTree({render_tree(tree)!r})"


FAULTS = [
    ("", "expected a label", 0),
    ("(", "expected a label", 0),
    ("1(", "expected a label", 2),
    ("1(2", "expected ',' or ')'", 3),
    ("1(2,)", "expected a label", 4),
    ("1()", "expected a label", 2),
    ("0", "labels must be positive", 0),
    ("-3", "expected a label", 0),
    ("x", "expected a label", 0),
    ("1(2))", "unexpected trailing input", 4),
    ("1 2", "unexpected trailing input", 2),
    ("1(2,2)", "duplicate label 2", 4),
    ("1(1)", "duplicate label 1", 2),
    ("1:x(2)", "the root cannot carry a tag", 1),
    ("1(2:z)", "expected tag x, y, or t", 4),
    ("1(2:x,3)", "either all edges or none must be tagged", 6),
    ("1(2:)", "expected tag x, y, or t", 4),
    ("1(2(3)(4))", "expected ',' or ')'", 6),  # "(" straight after ")"
    ("1(2)3", "unexpected trailing input", 4),  # a label straight after ")"
    ("1(2(3)4)", "expected ',' or ')'", 6),
]


@pytest.mark.parametrize("bad, message, position", FAULTS,
                         ids=[bad for bad, _, _ in FAULTS])
def test_parse_errors(bad, message, position):
    with pytest.raises(TreeParseError) as err:
        parse_tree(bad)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


BIG = 10**5


@pytest.mark.parametrize("shape", ["decreasing path", "star"])
def test_parse_error_at_scale(shape):
    text, fault = {
        # the path's last ")" is missing: the fault is at the very end
        "decreasing path": lambda: (
            "".join(f"{v}(" for v in range(BIG + 1, 1, -1)) + "1"
            + ")" * (BIG - 1), "expected ',' or ')' (at position 688900)"),
        # the star's last leaf repeats the first
        "star": lambda: ("1(" + ",".join(map(str, range(2, BIG + 2))) + ",2)",
                         "duplicate label 2 (at position 588902)"),
    }[shape]()
    started = time.perf_counter()
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert time.perf_counter() - started < 1.0
    assert str(err.value) == fault


def test_error_position_points_at_offender():
    with pytest.raises(TreeParseError) as err:
        parse_tree("1(2,0)")
    assert err.value.position == 4


@pytest.mark.parametrize("text, position", [
    ("1(\u00b2)", 2),        # superscript two: a digit, not a decimal
    ("1(\u0663)", 2),        # Arabic-Indic three: a decimal, not ASCII
    ("1(2:x,\u0663:y)", 6),  # the same on the tagged path
])
def test_labels_are_ascii_digits_only(text, position):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert str(err.value) == f"expected a label (at position {position})"
    assert err.value.position == position


@digit_limit
@pytest.mark.parametrize("text, fault", [
    (f"1({LONG_NUMERAL})", "label has too many digits (at position 2)"),
    (f"1(2:x,{LONG_NUMERAL}:y)", "label has too many digits (at position 6)"),
    (f"1({LONG_NUMERAL}", "label has too many digits (at position 2)"),
    # the fast loop stops at the long label; the first fault is named
    (f"1(0,{LONG_NUMERAL})", "labels must be positive (at position 2)"),
], ids=["untagged", "tagged", "unclosed", "earlier fault"])
def test_label_with_too_many_digits_is_a_positioned_fault(text, fault):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert str(err.value) == fault


def test_equality_is_structural():
    assert parse_tree("1(2,3)") == parse_tree("1(2,3)")
    assert parse_tree("1(2,3)") != parse_tree("1(3,2)")
    assert parse_tree("1(2(3))") != parse_tree("1(2,3)")
    assert parse_tree("1(2:x)") != parse_tree("1(2:y)")
    assert parse_tree("1(2:x)") != parse_tree("1(2)")
    assert (parse_tree("1") == "1") is False


# ---- edge identity ----

def test_edge_ids_follow_first_descent(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert edge_list(tree) == [
        (0, 5, 1), (1, 1, 7), (2, 5, 3), (3, 3, 8),
        (4, 3, 2), (5, 3, 6), (6, 3, 4),
    ]


def test_edge_id_lookup(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert edge_id(tree, 3, 2) == 4
    with pytest.raises(ValueError):
        edge_id(tree, 2, 3)  # wrong orientation is not an edge
    with pytest.raises(ValueError):
        edge_id(tree, 5, 8)


def test_preorder_sequence(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert list(tree.labels) == [5, 1, 7, 3, 8, 2, 6, 4]


# ---- classification ----

def test_subtree_min(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert oracle.subtree_min(tree, 5) == 1
    assert oracle.subtree_min(tree, 1) == 1
    assert oracle.subtree_min(tree, 3) == 2
    assert oracle.subtree_min(tree, 7) == 7


def test_figure_classification(fig_labeled):
    tree = parse_tree(fig_labeled)
    improper = {(p, c) for e, p, c in edge_list(tree)
                if classify_edge(tree, e) is EdgeStatus.IMPROPER}
    assert improper == {(5, 1), (5, 3), (3, 2)}
    st_ = tree_stats(tree)
    assert (st_.improper, st_.proper) == (3, 4)
    assert st_.root_label == 5
    assert st_.degree_of_one == 1


def test_small_classifications():
    tree = parse_tree("3(2,1)")
    assert classify_edge(tree, edge_id(tree, 3, 2)) is EdgeStatus.PROPER
    assert classify_edge(tree, edge_id(tree, 3, 1)) is EdgeStatus.IMPROPER
    tree = parse_tree("2(1)")
    assert classify_edge(tree, 0) is EdgeStatus.IMPROPER
    tree = parse_tree("1(2)")
    assert classify_edge(tree, 0) is EdgeStatus.PROPER
    with pytest.raises(ValueError, match="no edge with id 1"):
        classify_edge(tree, 1)


def test_edge_ids_are_plain_ints():
    # True == 1 and 0.0 == 0, but an edge id is a plain int, as in the
    # checked constructor; -1 is the root's entry in edges, not an edge.
    # Both entry points apply the one rule
    tree = parse_tree("1(2,3)")
    for call in (classify_edge, flip_edge):
        for edge in (True, 1.0, 0.0, "0", 2, -1):
            message = f"^no edge with id {re.escape(str(edge))}$"
            with pytest.raises(ValueError, match=message):
                call(tree, edge)


def test_labels_in_queries_are_plain_ints():
    # True == 1 and 3.0 == 3, but a label is a plain int, as in the checked
    # constructor: a query by any other value names no vertex or edge
    tree = parse_tree("3(1,2(4))")
    assert oracle.subtree_min(tree, 1) == 1 and edge_id(tree, 3, 1) == 0
    for label in (True, 1.0):
        with pytest.raises(ValueError, match=f"no vertex labeled {label}$"):
            oracle.subtree_min(tree, label)
    for parent, child in ((3.0, True), (3.0, 1), (3, True), (3, 1.0)):
        with pytest.raises(ValueError, match=rf"no edge \({parent},{child}\)$"):
            edge_id(tree, parent, child)


@digit_limit
@pytest.mark.parametrize("call, message", [
    (lambda tree, big: PlaneTree(((1, big), (-1, 0), (-1, 0))),
     "label has too many digits"),
    (lambda tree, big: edge_id(tree, 1, big), "no edge (1,<too many digits>)"),
    (lambda tree, big: edge_id(tree, big, 2), "no edge (<too many digits>,2)"),
    (lambda tree, big: oracle.subtree_min(tree, big),
     "no vertex labeled <too many digits>"),
    (lambda tree, big: classify_edge(tree, big),
     "no edge with id <too many digits>"),
    (lambda tree, big: flip_edge(tree, big),
     "no edge with id <too many digits>"),
    (lambda tree, big: format_permutation((1, big, 1)),
     "value 2 has too many digits"),
], ids=["constructor", "edge_id child", "edge_id parent", "subtree_min",
        "classify_edge", "flip_edge", "format_permutation"])
def test_int_with_too_many_digits_is_named(call, message):
    # str() will not write an int of more digits than int() reads: no tree
    # holds such a label, and a query by one, or a permutation holding one,
    # names it without writing it
    with pytest.raises(ValueError) as err:
        call(parse_tree("1(2)"), 10 ** len(LONG_NUMERAL))
    assert str(err.value) == message


def test_improper_edges_in_walk_order(fig_labeled):
    tree = parse_tree(fig_labeled)
    assert improper_edges(tree) == [0, 2, 4]


def test_no_edges():
    tree = parse_tree("1")
    assert tree.edge_count == 0
    assert improper_edges(tree) == []
    st_ = tree_stats(tree)
    assert (st_.improper, st_.proper) == (0, 0)


def test_increasing_trees_have_no_improper_edges():
    # labels grow downward, so every subtree minimum is the child itself
    tree = parse_tree(FIG_INCREASING)
    assert is_increasing(tree)
    assert improper_edges(tree) == []


def test_both_classifiers_agree_exhaustively():
    for n in range(5):
        for tree in labeled_trees(n):
            for eid, _, _ in edge_list(tree):
                assert classify_edge(tree, eid) is classify_edge_by_min_sets(tree, eid)


@given(st.integers(1, 14), st.integers(0, 10**9))
def test_both_classifiers_agree_randomly(n, seed):
    tree = sample_labeled_tree(n, seed)
    for eid, _, _ in edge_list(tree):
        assert classify_edge(tree, eid) is classify_edge_by_min_sets(tree, eid)


# ---- predicates ----

def test_is_increasing():
    assert is_increasing(parse_tree("1(2(3),4)"))
    assert not is_increasing(parse_tree("1(3(2))"))
    assert not is_increasing(parse_tree(FIG_LABELED))
    assert is_increasing(parse_tree("1"))


def test_has_canonical_labels():
    assert has_canonical_labels(parse_tree("2(1,3)"))
    assert not has_canonical_labels(parse_tree("1(3)"))
    assert has_canonical_labels(parse_tree("1"))


def test_repeated_label_is_not_canonical():
    # two vertices labeled 2 make the label set {1, 2}, which is 1..2 but
    # not 1..3 for three vertices; only the unchecked builder makes the tree
    tree = PlaneTree._trusted((1, 2, 2), (-1, 0, 0), (-1, 0, 1))
    assert not has_canonical_labels(tree)
    with pytest.raises(ValueError, match="labels must be exactly"):
        to_increasing(tree)
    with pytest.raises(ValueError, match="labels must be exactly"):
        tree_to_stirling(tree)
    with pytest.raises(ValueError, match="labels must be distinct positive"):
        PlaneTree(tree.root)


@pytest.mark.parametrize("labels", [
    (1, 1),         # repeated: renders as 1(1), which the parser rejects
    ("a", "b"),     # not ints
    (0, -5),        # not positive
    (True, 2),      # a bool is not a label
    (1.0, 2),       # nor is a float
])
def test_checked_constructor_takes_only_what_the_parser_reads(labels):
    with pytest.raises(ValueError, match="labels must be distinct positive"):
        PlaneTree((labels, (-1, 0), (-1, 0)))


@pytest.mark.parametrize("parents, edges", [
    ((-1, 0), (-1, 0.5)),    # a float edge id: improper_edges gave [0.5]
    ((-1, 0.0), (-1, 0)),    # a float parent: render_tree raised TypeError
    ((-1, 0), (-1, "a")),    # a str edge id: min raised TypeError
    ((-1, False), (-1, 0)),  # a bool is not an int here either
])
def test_checked_constructor_takes_only_int_parents_and_edge_ids(parents,
                                                                 edges):
    with pytest.raises(ValueError, match="int parents and int edge ids"):
        PlaneTree(((2, 1), parents, edges))


def test_tags_survive_round_trip():
    tree = parse_tree(FIG_TAGGED)
    assert tree.is_tagged
    assert sorted(tree.tags.values()).count("x") == 3
    assert render_tree(tree) == FIG_TAGGED


def test_repeated_edge_id_is_rejected_where_trees_are_built():
    # the edges into vertices 1 and 2 would both be id 0: every way into
    # the edge-keyed functions goes through the checked constructor
    handle = ((2, 1, 3), (-1, 0, 0), (-1, 0, 0))
    with pytest.raises(ValueError, match="repeated edge id"):
        PlaneTree(handle)
    with pytest.raises(ValueError, match="repeated edge id"):
        flip_edge(PlaneTree(handle), 0)
    with pytest.raises(ValueError, match="repeated edge id"):
        to_increasing(PlaneTree(handle))
    with pytest.raises(ValueError, match="repeated edge id"):
        improper_edges(PlaneTree(handle))
    with pytest.raises(ValueError, match="repeated edge id"):
        oracle.from_nodes(oracle.Node(2, [(0, oracle.Node(1)),
                                          (0, oracle.Node(3))]))


@pytest.mark.parametrize("handle", [
    ((), (), ()),                                 # no root
    ((1, 2), (-1, 0), (-1,)),                     # lengths differ
    ((1, 2), (-1, 0), (0, 1)),                    # the root has an edge
    ((1, 2), (-1, 0), (-1, -2)),                  # a negative edge id
    ((1, 2), (-1, -1), (-1, 0)),                  # two roots
    ((1, 2), (-1, 1), (-1, 0)),                   # a vertex is its own parent
    ((1, 2, 3, 4), (-1, 0, 0, 1), (-1, 0, 1, 2)),  # 2's subtree is split
    (1, 2, 3),                                    # not three sequences
    None,                                         # not a handle at all
    ((1,), (-1,)),                                # two arrays
    ((1,), (-1,), (-1,), ()),                     # four arrays
])
def test_handle_must_list_a_tree_in_preorder(handle):
    # what is not three sequences gets the message for unequal arrays
    three = (isinstance(handle, tuple) and len(handle) == 3
             and isinstance(handle[0], tuple))
    with pytest.raises(ValueError, match=None if three else (
            "^a tree needs equally long labels, int parents and int edge "
            "ids$")):
        PlaneTree(handle)


def test_checked_constructor_takes_exactly_the_preorder_shapes():
    # every parents tuple of length k <= 6 over -1..k-1 (126,125 of them):
    # the checked constructor takes it iff it is one of the C_(k-1) shapes
    for k in range(1, 7):
        shapes = set(plane_shapes(k - 1))
        labels, edges = tuple(range(1, k + 1)), tuple(range(-1, k - 1))
        for parents in product(range(-1, k), repeat=k):
            try:
                PlaneTree((labels, parents, edges))
            except ValueError as exc:
                assert parents not in shapes, parents
                assert str(exc) == "parents must list a tree in preorder"
            else:
                assert parents in shapes, parents


def test_empty_tags_normalize_to_none():
    tree = PlaneTree(parse_tree("1").root, {})
    assert tree.tags is None
    assert not tree.is_tagged


@pytest.mark.parametrize("tags, message", [
    ({0: "x"}, "every edge must carry a tag"),                  # a key missing
    ({0: "x", 1: "y", 2: "y"}, "every edge must carry a tag"),  # a stray key
    ({0: "q", 1: "y"}, "every tag must be x, y, or t"),         # a bad value
])
def test_tags_must_cover_the_edges_with_known_tags(tags, message):
    tree = parse_tree("1(2,3)")
    with pytest.raises(ValueError, match=message):
        PlaneTree(tree.root, tags)


@given(st.integers(1, 40), st.integers(0, 10**9),
       st.lists(st.sampled_from("xyt"), min_size=40, max_size=40))
def test_checked_tags_render_to_text_that_parses_back(n, seed, choices):
    tree = sample_labeled_tree(n, seed)
    tagged = PlaneTree(tree.root, dict(zip(tree.edges[1:], choices)))
    assert parse_tree(render_tree(tagged)) == tagged
