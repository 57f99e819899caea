"""Edge flip involution and the bijection with increasing plane trees.

The sweeps below check every labeled tree with up to four edges; the
larger n=5 family and the randomized large-n regime run in the acceptance
suite.
"""

import random

import pytest
from hypothesis import given, strategies as st

from planetrees import (
    EdgeStatus,
    PlaneTree,
    classify_edge,
    edge_id,
    edge_list,
    flip_edge,
    from_increasing,
    improper_edges,
    increasing_trees,
    is_increasing,
    labeled_trees,
    parse_tree,
    render_tree,
    root_one_trees,
    sample_labeled_tree,
    to_increasing,
    tree_stats,
)

import oracle
from conftest import FIG_LABELED, FIG_TAGGED


def statuses(tree):
    return {e: classify_edge(tree, e) for e, _, _ in edge_list(tree)}


# ---- the pieces at one edge ----

def test_decompose_figure():
    tree = parse_tree(FIG_LABELED)
    dec = oracle.decompose(tree, edge_id(tree, 5, 3))
    assert dec.parent.label == 5
    assert dec.child.label == 3
    assert [oracle.node_render_tree(oracle.NodeTree(node))
            for _, node in dec.left] == ["1(7)"]
    assert [node.label for _, node in dec.below] == [8, 2, 6, 4]
    assert dec.right == ()


def test_decompose_leaf_edge():
    tree = parse_tree("3(2,1)")
    dec = oracle.decompose(tree, edge_id(tree, 3, 1))
    assert [node.label for _, node in dec.left] == [2]
    assert dec.below == ()
    assert dec.right == ()


# ---- single flips ----

def test_flip_figure_edge():
    tree = parse_tree(FIG_LABELED)
    flipped = flip_edge(tree, edge_id(tree, 5, 1))
    assert render_tree(flipped) == "1(5(3(8,2,6,4)),7)"


def test_flip_single_edge_tree():
    tree = parse_tree("2(1)")
    assert render_tree(flip_edge(tree, 0)) == "1(2)"


def test_flip_chain_reaches_increasing_form():
    # freezing the improper edges of the figure tree and flipping them in
    # walk order passes through the two intermediate forms
    tree = parse_tree(FIG_LABELED)
    frozen = improper_edges(tree)
    assert frozen == [0, 2, 4]
    panels = []
    for eid in frozen:
        tree = flip_edge(tree, eid)
        panels.append(render_tree(tree))
    assert panels == [
        "1(5(3(8,2,6,4)),7)",
        "1(3(5,8,2,6,4),7)",
        "1(2(5,8,3(6,4)),7)",
    ]
    assert is_increasing(tree)


def _place(root, label):
    """(parent label, child index, incoming edge id) of a vertex."""
    if root.label == label:
        return None, 0, None
    for node in oracle.preorder(root):
        for k, (eid, child) in enumerate(node.children):
            if child.label == label:
                return node.label, k, eid
    raise ValueError(f"no vertex labeled {label}")


def _subtrees(children):
    return [(eid, oracle.NodeTree(node)) for eid, node in children]


def test_flip_rewires_as_documented():
    # the module docstring's rewiring at e = (i, j), piece by piece, against
    # the pieces A (left), B (below) and C (right) of the input at e
    for n in range(1, 5):
        for tree in labeled_trees(n):
            for e, i, j in edge_list(tree):
                pieces = oracle.decompose(tree, e)
                out = flip_edge(tree, e)
                before, after = oracle.nodes(tree), oracle.nodes(out)
                # j sits where i was, under i's former parent edge
                assert _place(after.root, j) == _place(before.root, i)
                # j's children are roots(A) ++ [i] ++ roots(B), i's are roots(C)
                assert _subtrees(after.node(j).children) == (
                    _subtrees(pieces.left)
                    + [(e, oracle.NodeTree(after.node(i)))]
                    + _subtrees(pieces.below))
                assert _subtrees(after.node(i).children) == _subtrees(pieces.right)
                # ids: e now joins j to i, i's old edge enters j, the A edges
                # leave j, and every other edge keeps both ends
                up = _place(before.root, i)[2]
                left = {eid for eid, _ in pieces.left}
                moved = set()
                for eid, p, c in edge_list(tree):
                    if eid == e:
                        moved.add((e, j, i))
                    elif eid == up:
                        moved.add((eid, p, j))
                    elif eid in left:
                        moved.add((eid, j, c))
                    else:
                        moved.add((eid, p, c))
                assert set(edge_list(out)) == moved


def test_flip_preserves_edge_identity():
    tree = parse_tree(FIG_LABELED)
    eid = edge_id(tree, 5, 1)
    flipped = flip_edge(tree, eid)
    # the flipped edge keeps its id but now joins the endpoints child-first
    assert edge_id(flipped, 1, 5) == eid
    # untouched edges keep both id and endpoints
    assert edge_id(flipped, 3, 2) == edge_id(tree, 3, 2)


def test_flip_rejects_missing_edge():
    tree = parse_tree("1(2)")
    with pytest.raises(ValueError):
        flip_edge(tree, 5)


def test_exhaustive_involution_properties():
    """phi is an involution, flips its edge's status, and leaves every
    other status alone; distinct flips commute."""
    for n in range(1, 5):
        for tree in labeled_trees(n):
            before = statuses(tree)
            eids = list(before)
            for eid in eids:
                once = flip_edge(tree, eid)
                after = statuses(once)
                assert after[eid] is not before[eid]
                for other in eids:
                    if other != eid:
                        assert after[other] is before[other]
                assert flip_edge(once, eid) == tree
            for e1 in eids:
                for e2 in eids:
                    assert (flip_edge(flip_edge(tree, e1), e2)
                            == flip_edge(flip_edge(tree, e2), e1))


@given(st.integers(1, 16), st.integers(0, 10**9))
def test_random_involution_properties(n, seed):
    tree = sample_labeled_tree(n, seed)
    rng = random.Random(seed ^ 0x5EED)
    eids = [e for e, _, _ in edge_list(tree)]
    eid = rng.choice(eids)
    before = statuses(tree)
    once = flip_edge(tree, eid)
    after = statuses(once)
    assert flip_edge(once, eid) == tree
    assert after[eid] is not before[eid]
    assert all(after[e] is before[e] for e in eids if e != eid)


# ---- forward bijection ----

def test_forward_figure():
    out = to_increasing(parse_tree(FIG_LABELED))
    assert render_tree(out) == FIG_TAGGED


def test_forward_trivial_trees():
    assert render_tree(to_increasing(parse_tree("1"))) == "1"
    assert render_tree(to_increasing(parse_tree("1(2)"))) == "1(2:y)"
    assert render_tree(to_increasing(parse_tree("2(1)"))) == "1(2:x)"


def test_forward_rooted_golden():
    out = to_increasing(parse_tree("1(3(2))"), rooted=True)
    assert render_tree(out) == "1(2:t(3:x))"


def test_forward_output_contract():
    for n in range(5):
        for tree in labeled_trees(n):
            out = to_increasing(tree)
            assert is_increasing(out)
            tag_values = sorted((out.tags or {}).values())
            assert tag_values.count("x") == tree_stats(tree).improper


def test_forward_is_injective_onto_tagged_increasing_trees():
    # n=4: 1680 labeled trees against 105 increasing shapes times 2^4 tag
    # choices; equality of counts plus distinctness forces a bijection
    images = {render_tree(to_increasing(t)) for t in labeled_trees(4)}
    assert len(images) == 1680
    everything = set()
    for tree in increasing_trees(4):
        eids = [e for e, _, _ in edge_list(tree)]
        for mask in range(16):
            from planetrees import PlaneTree
            tags = {e: ("x" if mask >> i & 1 else "y")
                    for i, e in enumerate(eids)}
            everything.add(render_tree(PlaneTree(tree.root, tags)))
    assert images == everything


def test_forward_errors():
    with pytest.raises(ValueError, match="^input tree is already tagged$"):
        to_increasing(parse_tree(FIG_TAGGED))
    with pytest.raises(ValueError, match=r"^labels must be exactly 1\.\.n\+1$"):
        to_increasing(parse_tree("1(3)"))
    with pytest.raises(ValueError):
        to_increasing(parse_tree("2(1)"), rooted=True)  # root must be 1


# ---- inverse bijection ----

def test_inverse_figure():
    back = from_increasing(parse_tree(FIG_TAGGED))
    assert render_tree(back) == FIG_LABELED


def test_inverse_accepts_t_as_proper():
    assert render_tree(from_increasing(parse_tree("1(2:t(3:x))"))) == "1(3(2))"


def test_round_trip_exhaustive():
    for n in range(5):
        for tree in labeled_trees(n):
            assert from_increasing(to_increasing(tree)) == tree


def test_rooted_round_trip_exhaustive():
    for n in range(5):
        for tree in root_one_trees(n):
            out = to_increasing(tree, rooted=True)
            assert from_increasing(out) == tree


def test_rooted_mode_tags_and_degree():
    for tree in root_one_trees(4):
        out = to_increasing(tree, rooted=True)
        out_root, in_root = oracle.nodes(out).root, oracle.nodes(tree).root
        assert len(out_root.children) == len(in_root.children)
        root_eids = {e for e, _ in out_root.children}
        t_eids = {e for e, tag in out.tags.items() if tag == "t"}
        assert t_eids == root_eids
        assert root_eids == {e for e, _ in in_root.children}


def test_inverse_errors():
    with pytest.raises(ValueError, match="^input tree is not increasing$"):
        from_increasing(parse_tree("2(1:x)"))
    with pytest.raises(ValueError, match="^every edge must carry a tag$"):
        from_increasing(parse_tree("1(2)"))
    with pytest.raises(ValueError):
        from_increasing(parse_tree("1(2:y(3:t))"))  # t away from the root
    with pytest.raises(ValueError, match=r"^labels must be exactly 1\.\.n\+1$"):
        from_increasing(parse_tree("2(3:x)"))
    with pytest.raises(ValueError):
        from_increasing(parse_tree("1(2:t,3:y)"))  # t on some root edges only


def test_inverse_rejects_tags_off_the_edge_ids():
    # as many tags as edges, but keyed 0 and 5 on a tree whose ids are 0, 1
    tree = parse_tree("1(2,3)")
    with pytest.raises(ValueError, match="every edge must carry a tag"):
        from_increasing(PlaneTree(tree.root, {0: "x", 5: "y"}))
