"""Exact polynomial statistics, closed forms, and the generating-function
identities."""

from fractions import Fraction

import pytest

from planetrees import (
    MAX_SERIES_ORDER,
    Polynomial,
    T,
    X,
    Y,
    edge_status_closed_form,
    edge_status_polynomial,
    family_count,
    labeled_trees,
    odd_double_factorial,
    plane_shapes,
    root_degree_closed_form,
    root_degree_counts,
    root_degree_polynomial,
    root_one_trees,
    rooted_closed_form,
    rooted_edge_status_polynomial,
    to_increasing,
    tree_stats,
    verify_closed_forms,
    verify_egf_identities,
)
from planetrees import polynomials

from oracle import Series, egf_series, shape_histogram, sqrt_series


# ---- arithmetic ----

def test_ring_operations():
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert X - X == Polynomial()
    assert (X + 1) * (X - 1) == X ** 2 - 1
    assert X ** 0 == 1
    assert 3 * T == T + T + T
    assert 1 - T == Polynomial.constant(1) - T


def test_eval():
    p = 2 * T ** 2 + T * X + T * Y
    assert p.eval(1, 1, 1) == 4
    assert p.eval(0, 0, 1) == 2
    assert p.eval(x=2, y=3, t=1) == 2 + 2 + 3
    assert (X + Y).eval(Fraction(1, 2), Fraction(1, 2), 0) == 1


def test_scalars_are_ints_only():
    # rationals live in the test oracle's Series, not in the library
    with pytest.raises(TypeError):
        X * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * X
    with pytest.raises(TypeError):
        X + Fraction(1, 2)
    assert X * 2 == X + X


def test_zero_handling():
    assert not Polynomial({(1, 0, 0): 0}).coeffs
    assert str(Polynomial()) == "0"
    assert Polynomial() == 0
    assert X != 0


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        X ** -1


# ---- canonical rendering ----

def test_rendering_goldens():
    assert str(X) == "x"
    assert str(X + Y) == "x + y"
    assert str(3 * X ** 2 + 6 * X * Y + 3 * Y ** 2) == "3x^2 + 6xy + 3y^2"
    assert str(2 * T ** 2 + T * X + T * Y) == "2t^2 + tx + ty"
    assert str(Polynomial.constant(7)) == "7"
    assert str(T * X ** 2) == "tx^2"
    assert str(Y - X) == "-x + y"
    assert str(-T) == "-t"


def test_rendering_orders_t_then_x_then_y():
    poly = (6 * T ** 3 + 6 * T ** 2 * X + 6 * T ** 2 * Y
            + 3 * T * X ** 2 + 6 * T * X * Y + 3 * T * Y ** 2)
    assert str(poly) == "6t^3 + 6t^2x + 6t^2y + 3tx^2 + 6txy + 3ty^2"


# ---- enumerated statistics ----

# frozen tables, from the defining sums over the enumerated families
P_TABLE = {
    0: Polynomial.constant(1),
    1: X + Y,
    2: 3 * X ** 2 + 6 * X * Y + 3 * Y ** 2,
    3: 15 * X ** 3 + 45 * X ** 2 * Y + 45 * X * Y ** 2 + 15 * Y ** 3,
}
O_TABLE = {
    0: Polynomial.constant(1),
    1: T,
    2: 2 * T ** 2 + T * X + T * Y,
    3: (6 * T ** 3 + 6 * T ** 2 * X + 6 * T ** 2 * Y
        + 3 * T * X ** 2 + 6 * T * X * Y + 3 * T * Y ** 2),
}
S_TABLE = {
    0: Polynomial.constant(1),
    1: T,
    2: 2 * T ** 2 + T,
    3: 6 * T ** 3 + 6 * T ** 2 + 3 * T,
}


@pytest.mark.parametrize("n", range(4))
def test_edge_status_table(n):
    assert edge_status_polynomial(n) == P_TABLE[n]


@pytest.mark.parametrize("n", range(4))
def test_rooted_table(n):
    assert rooted_edge_status_polynomial(n) == O_TABLE[n]


@pytest.mark.parametrize("n", range(4))
def test_root_degree_table(n):
    assert root_degree_polynomial(n) == S_TABLE[n]


def test_rooted_table_against_direct_sum():
    # independent route: weigh each enumerated root-1 tree by hand
    for n in range(4):
        total = Polynomial()
        for tree in root_one_trees(n):
            st = tree_stats(tree)
            d = st.degree_of_one
            total = total + X ** st.improper * Y ** (st.proper - d) * T ** d
        assert total == rooted_edge_status_polynomial(n)


def test_total_mass_is_family_size():
    for n in range(5):
        assert edge_status_polynomial(n).eval(1, 1, 1) == family_count(n).labeled
        assert rooted_edge_status_polynomial(n).eval(1, 1, 1) == family_count(n).root_one
        assert root_degree_polynomial(n).eval(1, 1, 1) == family_count(n).increasing


def test_symmetry_in_x_and_y():
    for n in range(5):
        poly = edge_status_polynomial(n)
        swapped = Polynomial({(b, a, c): v for (a, b, c), v in poly.coeffs.items()})
        assert poly == swapped


def test_zero_improper_labelings_are_the_increasing_ones():
    # if a child subtree of p holds a label below p's, the child whose
    # subtree holds the smallest such label has an improper edge; so the
    # edge-status kernel's x^0 entry is the S_n kernel's count
    for n in range(8):
        for shape in plane_shapes(n):
            labeled = polynomials._shape_histograms(shape)[1]
            assert labeled[0] == polynomials._increasing_labelings(shape)


def test_homogeneity():
    for n in range(5):
        assert all(a + b == n for a, b, c in edge_status_polynomial(n).coeffs)
        assert all(a + b + c == n
                   for a, b, c in rooted_edge_status_polynomial(n).coeffs)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        edge_status_polynomial(7)
    with pytest.raises(ValueError):
        rooted_edge_status_polynomial(7)
    with pytest.raises(ValueError):
        root_degree_polynomial(8)
    with pytest.raises(ValueError):
        edge_status_polynomial(-1)


def test_tag_weights_transport_through_bijection():
    # summing x^(x-tags) y^(y-tags) over the forward images must rebuild
    # the edge-status polynomial
    for n in range(4):
        total = Polynomial()
        for tree in labeled_trees(n):
            tags = list((to_increasing(tree).tags or {}).values())
            total = total + X ** tags.count("x") * Y ** tags.count("y")
        assert total == edge_status_polynomial(n)


# ---- closed forms ----

def test_closed_form_matches_enumeration():
    for n in range(6):
        report = verify_closed_forms(n)
        assert report.labeled_ok and report.rooted_ok and report.passed


def test_root_degree_closed_form_matches_enumeration():
    for n in range(7):
        enumerated = {c: v for (_, _, c), v in root_degree_polynomial(n).coeffs.items()}
        assert root_degree_counts(n) == enumerated


def test_root_degree_counts_beyond_enumeration():
    counts = root_degree_counts(12)
    assert sum(counts.values()) == odd_double_factorial(12)
    assert counts[12] == 479001600  # 12! root-star insertions


def test_closed_form_polynomials():
    assert edge_status_closed_form(2) == 3 * X ** 2 + 6 * X * Y + 3 * Y ** 2
    assert root_degree_closed_form(3) == S_TABLE[3]
    assert rooted_closed_form(3) == O_TABLE[3]


def test_closed_forms_reject_negative_n():
    for closed_form in (odd_double_factorial, edge_status_closed_form,
                        rooted_closed_form, root_degree_closed_form):
        with pytest.raises(ValueError, match="n must be >= 0"):
            closed_form(-1)


# ---- series ----

def test_sqrt_series_coefficients():
    # sqrt(1-2q) = 1 - q - q^2/2 - q^3/2 - 5 q^4/8 - ...
    expansion = sqrt_series(1, 4)
    expected = [1, -1, Fraction(-1, 2), Fraction(-1, 2), Fraction(-5, 8)]
    assert list(expansion.coeffs) == [Polynomial.constant(v) for v in expected]


def test_sqrt_series_squares_back():
    for u in (Polynomial.constant(1), X + Y, 2 * X - T):
        s = sqrt_series(u, 8)
        target = Series.from_polynomial(1, 8) + Series(
            [Polynomial(), -2 * u] + [Polynomial()] * 7)
        assert s * s == target


def test_series_rendering():
    s = egf_series(S_TABLE[n] for n in range(3))
    assert str(s).splitlines() == [
        "q^0: 1 / 1",
        "q^1: t / 1",
        "q^2: 2t^2 + t / 2",
    ]


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Series.from_polynomial(1, 3) + Series.from_polynomial(1, 4)
    with pytest.raises(ValueError):
        Series.from_polynomial(1, 3) * Series.from_polynomial(1, 4)


def test_egf_identities_trivial_order():
    report = verify_egf_identities(0)
    assert report.passed


def test_egf_identities_enumerated():
    report = verify_egf_identities(6, source="enumerated")
    assert report.passed
    assert report.source == "enumerated"


def test_egf_identities_closed():
    report = verify_egf_identities(MAX_SERIES_ORDER, source="closed")
    assert report.passed


def _oracle_sums(n):
    """P_n and O_n from the oracle's separate per-shape passes."""
    labeled, rooted = Polynomial(), Polynomial()
    for shape in plane_shapes(n):
        _, hist = shape_histogram(shape, False)
        deg, root_first = shape_histogram(shape, True)
        labeled += Polynomial({(a, n - a, 0): c for a, c in enumerate(hist)})
        rooted += Polynomial({(a, n - a - deg, deg): c
                              for a, c in enumerate(root_first)})
    return labeled, rooted


def test_enumerated_table_memo_is_transparent(cold_memos):
    cold = verify_egf_identities(6, source="enumerated")
    warm = verify_egf_identities(6, source="enumerated")
    assert cold == warm
    # one entry per n in each memo, computed once
    for memo in (polynomials._edge_status_sums, polynomials._root_degree_sum):
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (7, 7)
    for n in range(6):
        assert polynomials._edge_status_sums(n) == _oracle_sums(n)
    for n in range(7):
        assert polynomials._root_degree_sum(n) == root_degree_closed_form(n)
    for n in range(4):
        assert (edge_status_polynomial(n), rooted_edge_status_polynomial(n),
                root_degree_polynomial(n)) == (P_TABLE[n], O_TABLE[n],
                                               S_TABLE[n])


def test_rooted_sum_alone_on_a_cold_memo(cold_memos):
    # the rooted sum alone runs the edge-status hook products, leaves P_5
    # with O_5 in their memo and computes no root-degree sum
    rooted = rooted_edge_status_polynomial(5)
    assert polynomials._edge_status_sums.cache_info().misses == 1
    assert rooted == polynomials._edge_status_sums(5)[1] == _oracle_sums(5)[1]
    assert polynomials._root_degree_sum.cache_info().currsize == 0


def test_memoized_sums_cannot_be_changed_by_a_caller(cold_memos):
    # the public sums hand out the memo's own Polynomial: every attempt to
    # change a returned sum raises, and the next read is still the closed
    # form
    sums = (edge_status_polynomial(3), rooted_edge_status_polynomial(3),
            root_degree_polynomial(3))
    for poly in sums + (X, T):
        key = next(iter(poly.coeffs))
        with pytest.raises(TypeError):
            poly.coeffs[key] += 1
        with pytest.raises(TypeError):
            poly.coeffs[(9, 9, 9)] = 1
        with pytest.raises(AttributeError):
            poly.coeffs.clear()
        with pytest.raises(AttributeError):
            poly.coeffs = {}
    assert root_degree_polynomial(3) == root_degree_closed_form(3)
    assert edge_status_polynomial(3) == edge_status_closed_form(3)
    assert rooted_edge_status_polynomial(3) == rooted_closed_form(3)
    assert verify_closed_forms(3).passed
    assert X + T == Polynomial({(1, 0, 0): 1, (0, 0, 1): 1})


def test_egf_identities_auto_mixes_sources():
    assert verify_egf_identities(8, source="closed").passed
    assert verify_egf_identities(8).passed  # auto: enumerated through 6


def test_egf_bounds():
    with pytest.raises(ValueError):
        verify_egf_identities(11)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        verify_egf_identities(-1)
    with pytest.raises(ValueError):
        verify_egf_identities(7, source="enumerated")
    with pytest.raises(ValueError):
        verify_egf_identities(3, source="nonsense")
    assert verify_egf_identities(11, source="closed", force=True).passed
