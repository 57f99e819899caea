"""The flat tree core, the enumeration kernels and the Stirling walk
against the references in ``oracle.py``.

The parser must accept what the oracle's character-by-character parser
accepts and reject the rest with the same message and position.  The flip
and the two bijections must agree with both the path-copying references and
the ``Node`` array core the library had before its flat trees; the in-place
core, flipping any subset of edges in first-descent order, must agree with
one path-copying flip per edge.

Every tree comparison is ``==`` on trees, which checks labels, child order,
edge ids and tags, so the in-place flip, the two bijections, the increasing
sampler and the increasing enumerator must give exactly what rebuilding by
path copying gave; the sampler must also give what the scan descent it
replaced gave, at n up to 2*10^4 and, with tiny chunks, across many chunk
splits.  The scale tests at n = 10^5 run the two shapes on which
finding a parent by walking its sibling list to one fixed end is quadratic.
The enumeration kernels must visit what the old loops built, in the same
order.  Each shape's edge-status histograms, by the per-shape hook
product, must count what recomputing every labeling in full counted and,
on shapes past that oracle's reach too, what the old subset sum over the
vertex sets counted.  Each shape's hook-length count of its increasing
labelings must be what the old subset sum over the vertex sets that hold
the root counted, and past the enumeration bound the root-degree sum of
those counts must be the closed form.  The integer check of the
generating-function identities must flag exactly what multiplying out the
truncated series flagged, on the true tables and on tables with one
coefficient bumped; sympy's own series expansion, when sympy is installed,
must agree.  The single Stirling stack walk must accept, reject and decode
exactly what the multiplicity check, the second blocks walk and the bracket
frames did, and the Stirling enumerator on the shared insertion-history
odometer must list the words the stack of one word per order listed, in
the same order.
"""

import math
import random
import re
from collections import Counter
from itertools import permutations, product, zip_longest

import pytest
from hypothesis import given, strategies as st

import oracle
from planetrees import (
    MAX_SERIES_ORDER,
    PlaneTree,
    Polynomial,
    T,
    TreeParseError,
    X,
    Y,
    blocks,
    edge_list,
    edge_status_closed_form,
    flip_edge,
    from_increasing,
    improper_edges,
    increasing_trees,
    is_stirling,
    labeled_trees,
    parse_tree,
    render_tree,
    root_degree_closed_form,
    root_degree_counts,
    root_degree_polynomial,
    root_one_trees,
    rooted_closed_form,
    sample_increasing_tree,
    sample_increasing_trees,
    sample_labeled_tree,
    stirling_permutations,
    stirling_to_tree,
    to_increasing,
    tree_to_stirling,
    verify_egf_identities,
)
from planetrees import families
from planetrees.counting import plane_shapes
from planetrees.families import _increasing_kids, _labelings, build_tree
from planetrees.involution import _flip_in_order
from planetrees.polynomials import (
    _coefficient_table,
    _edge_status_sums,
    _egf_holds,
    _increasing_labelings,
    _shape_histograms,
)


def test_flip_matches_oracle_exhaustive():
    for n in range(5):
        for tree in labeled_trees(n):
            for eid, _, _ in edge_list(tree):
                assert flip_edge(tree, eid) == oracle.flip_edge(tree, eid)


def test_flip_matches_oracle_on_any_distinct_labels():
    tree = parse_tree("1000000000(7,3(12))")
    for eid, _, _ in edge_list(tree):
        assert flip_edge(tree, eid) == oracle.flip_edge(tree, eid)
    tagged = parse_tree("40(9:x(2:y,70:t),5:y)")
    for eid, _, _ in edge_list(tagged):
        assert flip_edge(tagged, eid) == oracle.flip_edge(tagged, eid)


def test_bijections_match_oracle_exhaustive():
    for n in range(6):
        for tree in labeled_trees(n):
            out = to_increasing(tree)
            assert out == oracle.to_increasing(tree)
            back = from_increasing(out)
            assert back == oracle.from_increasing(out)
            assert back == tree


def test_rooted_bijections_match_oracle_exhaustive():
    for n in range(6):
        for tree in root_one_trees(n):
            out = to_increasing(tree, rooted=True)
            assert out == oracle.to_increasing(tree, rooted=True)
            assert from_increasing(out) == oracle.from_increasing(out) == tree


@given(st.integers(1, 300), st.integers(0, 10**9))
def test_random_trees_match_oracle(n, seed):
    tree = sample_labeled_tree(n, seed)
    out = to_increasing(tree)
    assert out == oracle.to_increasing(tree)
    assert from_increasing(out) == oracle.from_increasing(out) == tree
    eid = random.Random(seed).randrange(n)
    assert flip_edge(tree, eid) == oracle.flip_edge(tree, eid)
    assert flip_edge(out, eid) == oracle.flip_edge(out, eid)


def _oracle_flips(tree, positions):
    # one path-copying flip per edge, taken by its id in the input
    for eid in [tree.edges[j] for j in positions]:
        tree = oracle.flip_edge(tree, eid)
    return tree


def test_flips_in_first_descent_order_match_oracle_exhaustive():
    # the in-place core flips any subset of edges, in first-descent order
    for n in range(5):
        for tree in labeled_trees(n):
            for subset in product((False, True), repeat=n):
                positions = [j for j, on in enumerate(subset, 1) if on]
                assert (_flip_in_order(tree, positions, None)
                        == _oracle_flips(tree, positions))


@given(st.integers(1, 60), st.integers(0, 10**9))
def test_flips_in_first_descent_order_match_oracle(n, seed):
    rng = random.Random(seed)
    plain = sample_labeled_tree(n, seed)
    tree = PlaneTree(plain.root, {eid: rng.choice("xyt")
                                  for eid in plain.edges[1:]})
    density = rng.random()
    positions = [j for j in range(1, n + 1) if rng.random() < density]
    assert (_flip_in_order(tree, positions, tree.tags)
            == _oracle_flips(tree, positions))


def _root_one(tree):
    # swap labels so that the root is 1, keeping the shape
    swap = {tree.labels[0]: 1, 1: tree.labels[0]}
    return parse_tree(re.sub(r"\d+", lambda m: str(swap.get(int(m[0]), m[0])),
                             render_tree(tree)))


@given(st.integers(1, 300), st.integers(0, 10**9))
def test_random_rooted_trees_match_oracle(n, seed):
    rooted = _root_one(sample_labeled_tree(n, seed))
    out = to_increasing(rooted, rooted=True)
    assert out == oracle.to_increasing(rooted, rooted=True)
    assert from_increasing(out) == rooted


# ---- the Node core: text, classification, the flip and the bijections ----

ALPHABET = "0123456789(),:xyzt \t"


def _parsed(parse, text):
    try:
        return parse(text)
    except TreeParseError as err:
        return str(err), err.position


def _parse_like_oracle(text):
    assert _parsed(parse_tree, text) == _parsed(oracle.parse_tree, text)


@given(st.text(ALPHABET, max_size=24))
def test_parser_matches_oracle_parser_on_any_text(text):
    _parse_like_oracle(text)


@given(st.integers(0, 12), st.integers(0, 10**9), st.data())
def test_parser_matches_oracle_parser_on_edited_trees(n, seed, data):
    # a valid text, tagged or not, with a few characters inserted, deleted
    # or replaced, so that faults also sit deep inside long input
    tree = sample_labeled_tree(n, seed)
    text = render_tree(to_increasing(tree) if seed % 2 else tree)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(ALPHABET))
        cut = data.draw(st.integers(0, 1))
        text = text[:at] + new * data.draw(st.integers(0, 1)) + text[at + cut:]
    _parse_like_oracle(text)


def _like_node_core(tree, rooted, check_text=True):
    out = to_increasing(tree, rooted=rooted)
    assert out == oracle.sibling_to_increasing(tree, rooted=rooted)
    assert from_increasing(out) == oracle.sibling_from_increasing(out) == tree
    if not check_text:
        return
    for text in (render_tree(tree), render_tree(out)):
        assert text == oracle.render_tree(parse_tree(text))
        assert parse_tree(text) == oracle.parse_tree(text)
    node = oracle.nodes(tree)
    assert edge_list(tree) == oracle.node_edge_list(node)
    assert improper_edges(tree) == oracle.node_improper_edges(node)


def test_flat_core_matches_node_core_exhaustive():
    # the text and the classifier to n = 4; the hypothesis tests go further
    for n in range(6):
        for tree in labeled_trees(n):
            _like_node_core(tree, False, n < 5)
        for tree in root_one_trees(n):
            _like_node_core(tree, True, n < 5)
        for tree in labeled_trees(min(n, 4)):
            for eid, _, _ in edge_list(tree):
                assert flip_edge(tree, eid) == oracle.sibling_flip_edge(tree, eid)


@given(st.integers(1, 300), st.integers(0, 10**9))
def test_random_trees_match_node_core(n, seed):
    tree = sample_labeled_tree(n, seed)
    _like_node_core(tree, False)
    _like_node_core(_root_one(tree), True)
    eid = random.Random(seed).randrange(n)
    assert flip_edge(tree, eid) == oracle.sibling_flip_edge(tree, eid)


def test_sampler_matches_oracle():
    for n in range(201):
        assert sample_increasing_tree(n, n) == oracle.sample_increasing_tree(n, n)


def test_sampler_stream_matches_oracle():
    assert (list(sample_increasing_trees(30, 1, 200))
            == list(oracle.sample_increasing_trees(30, 1, 200)))


@given(st.integers(0, 200), st.integers(0, 10**9))
def test_random_seeds_sample_like_oracle(n, seed):
    assert sample_increasing_tree(n, seed) == oracle.sample_increasing_tree(n, seed)


@pytest.mark.parametrize("n", [500, 2000, 20000])
def test_sampler_matches_scan_descent(n):
    for seed in range(3):
        assert (sample_increasing_tree(n, seed)
                == oracle.scan_increasing_tree(n, random.Random(seed)))


def test_sampler_matches_scan_descent_across_chunk_splits(monkeypatch):
    # chunks of at most about 8 slots split again and again from n = 5 on,
    # and a vertex with 8 or more children has a block too long to split
    monkeypatch.setattr(families, "_chunk_limit", lambda n: 8)
    for n in range(301):
        for seed in range(3):
            assert (sample_increasing_tree(n, seed)
                    == oracle.scan_increasing_tree(n, random.Random(seed)))


def test_enumerator_matches_oracle_sequence():
    for n in range(7):
        assert list(increasing_trees(n)) == list(oracle.increasing_trees(n))


# ---- the enumeration kernels and the incremental histogram ----

def _same_stream(got, expected):
    missing = object()
    count = 0
    for a, b in zip_longest(got, expected, fillvalue=missing):
        assert a == b, f"item {count}: {a!r} != {b!r}"
        count += 1
    return count


def test_incremental_histogram_matches_oracle_every_shape():
    # both histograms come from the one pass; the oracle walks each afresh
    for n in range(7):
        for shape in plane_shapes(n):
            deg, labeled, root_first = _shape_histograms(shape)
            assert (deg, labeled) == oracle.shape_histogram(shape, False)
            assert (deg, root_first) == oracle.shape_histogram(shape, True)


def _random_shape(count, rng):
    """Preorder parents of a plane tree: each vertex hangs below some
    vertex on the path from the root to the vertex before it."""
    parents, path = [-1], [0]
    for v in range(1, count):
        del path[rng.randrange(len(path)) + 1:]
        parents.append(path[-1])
        path.append(v)
    return tuple(parents)


def test_histogram_matches_hook_product():
    # the old subset sum's histograms against the kernel's per-shape hook
    # product: every shape with n <= 6, then shapes of 8 to 11 vertices: up
    # to 11! labelings, too many to walk, and digits of up to 26 bits in the
    # subset sum's packed histograms
    rng = random.Random(2031)
    shapes = [shape for n in range(7) for shape in plane_shapes(n)]
    shapes += [(-1, *range(10)), (-1,) + (0,) * 10]  # the path and the star
    shapes += [_random_shape(rng.randint(8, 11), rng) for _ in range(10)]
    for shape in shapes:
        histograms = _shape_histograms(shape)
        assert histograms == oracle.subset_sum_histograms(shape)
        assert histograms[0] == shape.count(0)
        assert sum(histograms[1]) == math.factorial(len(shape))


@pytest.mark.parametrize("shape", [
    (-1, 0, 1, 1, 0, 4, 4, 0),
    (-1, 0, 1, 2, 3, 0, 5, 5),
    (-1, 0, 0, 2, 2, 2, 0, 6),
])
def test_histogram_matches_oracle_and_hook_product_at_n7(shape):
    deg, labeled, root_first = _shape_histograms(shape)
    assert (deg, labeled) == oracle.shape_histogram(shape, False)
    assert (deg, root_first) == oracle.shape_histogram(shape, True)
    assert (deg, labeled, root_first) == oracle.subset_sum_histograms(shape)


def test_increasing_labelings_kernel_matches_oracle():
    # every shape with n <= 7, then 10 shapes of 9 to 12 vertices: up to
    # 2^11 sets that hold the root in the oracle's subset sum, and counts up
    # to about 5 million
    rng = random.Random(3107)
    shapes = [shape for n in range(8) for shape in plane_shapes(n)]
    shapes += [_random_shape(rng.randint(9, 12), rng) for _ in range(10)]
    for shape in shapes:
        expected = oracle.increasing_labelings(shape)
        assert _increasing_labelings(shape) == expected


def test_root_degree_sum_past_the_bound_matches_closed_form(cold_memos):
    # n = 8 is one past the enumeration bound: 1,430 shapes, 2,027,025
    # trees; n = 11 is 58,786 shapes and 13,749,310,575 trees
    for n in range(8, 12):
        expected = root_degree_closed_form(n)
        assert root_degree_polynomial(n, force=True) == expected


def test_edge_status_sums_past_the_bound_match_closed_forms(cold_memos):
    # n = 7 is one past the enumeration bound; n = 10 is 16,796 shapes and
    # 39,916,800 labelings of each
    for n in range(7, 11):
        assert _edge_status_sums(n) == (edge_status_closed_form(n),
                                        rooted_closed_form(n))


def test_labelings_kernel_matches_oracle_stream():
    # equal streams have equal lengths, so this also pins the kernel's visit
    # count to the old loops'
    for n in range(7):
        for root_first in (False, True):
            assert _same_stream(_labelings(n, root_first),
                                oracle.labelings(n, root_first))


def test_labeled_wrappers_match_oracle_sequences():
    for n in range(6):
        assert _same_stream(labeled_trees(n), oracle.labeled_trees(n))
    for n in range(7):
        assert _same_stream(root_one_trees(n), oracle.root_one_trees(n))


def test_increasing_kernel_matches_oracle_lengths_and_root_degrees():
    # one pass over the oracle trees per n gives the root-degree Counter;
    # the walk enum I prints from and the shapes' subset sums must give it
    for n in range(8):
        degrees = Counter(len(root.children)
                          for root in oracle.node_increasing_trees(n))
        assert Counter(len(kids[0]) for kids in _increasing_kids(n)) == degrees
        assert root_degree_polynomial(n) == Polynomial(
            {(0, 0, r): c for r, c in degrees.items()})


def test_plane_shapes_match_recursive_oracle():
    # built level by level, the shapes must come out in the recursion's order
    for n in range(10):
        assert list(plane_shapes(n)) == list(oracle.plane_shapes(n))


def test_closed_forms_match_polynomial_powers():
    # the binomial expansion against (x+y)^n and t^r multiplied out
    for n in range(31):
        assert edge_status_closed_form(n) == oracle.edge_status_closed_form(n)
        assert rooted_closed_form(n) == oracle.rooted_closed_form(n)


def test_root_degree_closed_form_matches_recurrence():
    for n in range(60):
        assert root_degree_counts(n) == oracle.root_degree_counts(n)
    # the closed form divides by 2^(n-r); that division leaves no remainder
    for n in range(1, 200):
        for r in range(1, n + 1):
            top = r * math.factorial(n - 1) * math.comb(2 * n - r - 1, n - r)
            assert top % 2 ** (n - r) == 0


# ---- the generating-function identities ----

def test_egf_check_matches_series_check():
    cases = ([("closed", order) for order in range(13)]
             + [("enumerated", order) for order in range(7)]
             + [("auto", order) for order in range(MAX_SERIES_ORDER + 1)])
    for source, order in cases:
        report = verify_egf_identities(order, source=source, force=True)
        tables = [_coefficient_table(n, source) for n in range(order + 1)]
        assert ((report.labeled_ok, report.rooted_ok, report.degree_ok)
                == oracle.series_egf_flags(tables) == (True, True, True))


# (c, s, u) of A(q) ((c-s) + s sqrt(1-2uq)) = c for P, O and S
EGF_SHAPES = [(1, 1, X + Y), (X + Y, T, X + Y), (1, T, 1)]


def test_egf_check_fails_on_a_bumped_coefficient():
    order = 8
    tables = [_coefficient_table(n, "closed") for n in range(order + 1)]
    for n in range(order + 1):
        for which, (c, s, u) in enumerate(EGF_SHAPES):
            coeffs = [row[which] for row in tables]
            terms = sorted(coeffs[n].coeffs)
            key = terms[len(terms) // 2]
            coeffs[n] = coeffs[n] + Polynomial({key: 1})
            assert not _egf_holds(coeffs, c, s, u)
            bumped = [list(row) for row in tables]
            bumped[n][which] = coeffs[n]
            flags = oracle.series_egf_flags(bumped)
            assert flags == tuple(k != which for k in range(3))


def test_egf_check_fails_on_a_scaled_table():
    # the convolutions for N >= 1 are linear in the table, so only A_0 = 1
    # tells a table from its double
    for order in (0, 1, 8):
        tables = [_coefficient_table(n, "closed") for n in range(order + 1)]
        doubled = [[2 * poly for poly in row] for row in tables]
        for which, (c, s, u) in enumerate(EGF_SHAPES):
            assert _egf_holds([row[which] for row in tables], c, s, u)
            assert not _egf_holds([row[which] for row in doubled], c, s, u)
        assert oracle.series_egf_flags(doubled) == (False, False, False)


def _sympy_egf_holds(sympy, coeffs, c, s, u):
    """A(q) ((c-s) + s sqrt(1-2uq)) = c through q^order, order =
    len(coeffs) - 1, with the square root expanded by sympy's own series."""
    x, y, t, q = sympy.symbols("x y t q")

    def sym(value):
        return (value.eval(x, y, t) if isinstance(value, Polynomial)
                else sympy.Integer(value))

    order = len(coeffs) - 1
    root = sympy.series(sympy.sqrt(1 - 2 * sym(u) * q), q, 0, order + 1)
    factor = (sym(c) - sym(s)) + sym(s) * root.removeO()
    egf = sum(sym(poly) * q ** n / sympy.factorial(n)
              for n, poly in enumerate(coeffs))
    product = sympy.Poly(egf, q, x, y, t) * sympy.Poly(factor, q, x, y, t)
    low = {m: v for m, v in product.terms() if m[0] <= order}
    return low == dict(sympy.Poly(sym(c), q, x, y, t).terms())


def test_egf_identities_hold_under_sympy_series():
    # a fourth route for thm2: sympy multiplies out the truncated series
    sympy = pytest.importorskip("sympy")
    tables = [_coefficient_table(n, "auto")
              for n in range(MAX_SERIES_ORDER + 1)]
    for which, (c, s, u) in enumerate(EGF_SHAPES):
        assert _sympy_egf_holds(sympy, [row[which] for row in tables], c, s, u)
    labeled = [row[0] for row in tables[:7]]
    labeled[4] = labeled[4] + Polynomial({(2, 2, 0): 1})
    assert not _sympy_egf_holds(sympy, labeled, *EGF_SHAPES[0])


# ---- the Stirling walk ----

def _outcome(fn, seq):
    try:
        return fn(seq)
    except ValueError:
        return ValueError


def _stirling_like_oracle(seq):
    assert is_stirling(seq) is oracle.is_stirling(seq)
    assert _outcome(blocks, seq) == _outcome(oracle.blocks, seq)
    assert (_outcome(stirling_to_tree, seq)
            == _outcome(oracle.stirling_to_tree, seq))


def test_stirling_walk_matches_oracle_on_every_arrangement():
    for n in range(5):
        multiset = [v for v in range(1, n + 1) for _ in range(2)]
        for seq in sorted(set(permutations(multiset))):
            _stirling_like_oracle(seq)
    assert is_stirling(())
    assert blocks(()) == []
    assert render_tree(stirling_to_tree(())) == "1"


def test_blocks_match_oracle_on_every_word_of_orders_5_and_6():
    # the arrangements above stop at order 4; orders 5 and 6 (945 and
    # 10,395 words) reach blocks through the enumerator
    for n in (5, 6):
        for seq in stirling_permutations(n):
            assert blocks(seq) == oracle.blocks(seq)


def test_stirling_walk_matches_oracle_on_every_short_word():
    # every word of length <= 6 over -1..3: third copies such as 1 1 1 1,
    # zeros, negatives, values past n and odd lengths, all of them
    for length in range(7):
        for seq in product(range(-1, 4), repeat=length):
            _stirling_like_oracle(seq)


@given(st.lists(st.integers(-1, 7), max_size=12))
def test_stirling_walk_matches_oracle_on_any_sequence(seq):
    # odd lengths, zeros, third copies and values past n all occur here
    _stirling_like_oracle(tuple(seq))


def test_stirling_enumerator_matches_oracle_in_order():
    # every word of every order up to the exhaustive bound, 135,135 at n = 7
    for n in range(8):
        assert (list(stirling_permutations(n))
                == list(oracle.stirling_permutations(n)))


# ---- scale: the shapes that defeat a walk to one fixed end ----

BIG = 10**5


def _chain(labels):
    node = oracle.Node(labels[-1])
    for eid in range(len(labels) - 2, -1, -1):
        node = oracle.Node(labels[eid], ((eid, node),))
    return oracle.from_nodes(node)


def test_round_trip_decreasing_path_at_scale():
    # n+1 -> n -> ... -> 1: every edge is improper, and each flip in
    # first-descent order adds one vertex to the left siblings of the next
    tree = _chain(list(range(BIG + 1, 0, -1)))
    out = to_increasing(tree)
    assert out.labels[0] == 1
    assert sum(1 for tag in out.tags.values() if tag == "x") == BIG
    assert from_increasing(out) == tree


def test_round_trip_increasing_star_at_scale():
    # root n+1 over 1..n left to right: every edge is improper, and each
    # flip's child sits at the far left of a long sibling list
    tree = oracle.from_nodes(oracle.Node(BIG + 1, tuple(
        (eid, oracle.Node(eid + 1)) for eid in range(BIG))))
    out = to_increasing(tree)
    assert out.labels[0] == 1
    assert sum(1 for tag in out.tags.values() if tag == "x") == BIG
    assert from_increasing(out) == tree


def _caterpillar(count):
    # preorder: each spine vertex has a leaf and then the next spine vertex,
    # labeled downward so that the spine edges are improper
    kids = [[] for _ in range(count)]
    for v in range(0, count - 2, 2):
        kids[v] = [v + 1, v + 2]
    tree = build_tree(kids)
    return PlaneTree((range(count, 0, -1), tree.parents, tree.edges))


@pytest.mark.parametrize("shape", ["decreasing path", "increasing star",
                                   "caterpillar"])
def test_text_round_trip_at_scale(shape):
    tree = {
        "decreasing path": lambda: _chain(list(range(BIG + 1, 0, -1))),
        "increasing star": lambda: oracle.from_nodes(oracle.Node(1, tuple(
            (eid, oracle.Node(eid + 2)) for eid in range(BIG)))),
        "caterpillar": lambda: _caterpillar(BIG + 1),
    }[shape]()
    assert tree.edge_count == BIG
    assert parse_tree(render_tree(tree)) == tree


def test_stirling_round_trip_increasing_path_at_scale():
    # 1 -> 2 -> ... -> n+1: the walk nests n brackets deep
    tree = _chain(list(range(1, BIG + 2)))
    word = tree_to_stirling(tree)
    assert word[:2] == (1, 2) and word[-2:] == (2, 1)
    assert stirling_to_tree(word) == tree


def test_improper_edges_decreasing_path_at_scale():
    tree = _chain(list(range(BIG + 1, 0, -1)))
    assert improper_edges(tree) == list(range(BIG))
