"""Acceptance criteria.

Each test evaluates one criterion completely, prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them), and
then asserts.  Criteria with a stated time budget enforce it on a
wall-clock measurement of the work itself.

Criterion 1 asserts an externally supplied reference table verbatim.  Two
of its rooted entries (n = 1, 2) disagree with the defining enumeration
and with every identity the rest of the suite checks, so that single test
fails by design; see README for the analysis.  The definition-based
values are pinned in test_polynomials.py.
"""

import math
import random
import time

import pytest

from planetrees import (
    T,
    X,
    Y,
    block_table,
    blocks,
    catalan,
    edge_list,
    edge_status_polynomial,
    family_count,
    flip_edge,
    from_increasing,
    improper_edges,
    increasing_trees,
    is_increasing,
    labeled_trees,
    odd_double_factorial,
    parse_tree,
    root_degree_polynomial,
    root_one_trees,
    rooted_edge_status_polynomial,
    sample_labeled_tree,
    stirling_permutations,
    to_increasing,
    tree_to_stirling,
    verify_closed_forms,
    verify_egf_identities,
)
from planetrees.cli import main

import oracle
from conftest import FIG_INCREASING, FIG_LABELED, FIG_TAGGED, FIG_WALK


def report(number, name, ok):
    print(f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_reference_polynomial_tables():
    stated_p = {
        1: X + Y,
        2: 3 * X ** 2 + 6 * X * Y + 3 * Y ** 2,
        3: 15 * X ** 3 + 45 * X ** 2 * Y + 45 * X * Y ** 2 + 15 * Y ** 3,
    }
    stated_o = {
        1: T * Y,
        2: 2 * T ** 2 * Y ** 2 + T * X + T * Y,
        3: (6 * T ** 3 + 6 * T ** 2 * X + 6 * T ** 2 * Y
            + 3 * T * X ** 2 + 6 * T * X * Y + 3 * T * Y ** 2),
    }
    started = time.perf_counter()
    got_p = {n: edge_status_polynomial(n) for n in (1, 2, 3)}
    got_o = {n: rooted_edge_status_polynomial(n) for n in (1, 2, 3)}
    elapsed = time.perf_counter() - started
    mismatches = [f"P_{n}" for n in (1, 2, 3) if got_p[n] != stated_p[n]]
    mismatches += [f"O_{n}" for n in (1, 2, 3) if got_o[n] != stated_o[n]]
    ok = not mismatches and elapsed < 1.0
    report(1, "reference polynomial tables", ok)
    assert ok, (
        f"stated reference values disagree with the defining enumeration "
        f"at {mismatches} (elapsed {elapsed:.2f}s); enumeration gives "
        + "; ".join(f"O_{n} = {got_o[n]}" for n in (1, 2)))


def test_criterion_02_closed_forms_at_desk_scale():
    started = time.perf_counter()
    failing = [n for n in range(7) if not verify_closed_forms(n).passed]
    elapsed = time.perf_counter() - started
    ok = not failing and elapsed < 60.0
    report(2, "closed forms for n <= 6", ok)
    assert ok, f"failing n: {failing}, elapsed {elapsed:.2f}s"


def test_criterion_03_family_counts():
    bad = []
    for n in range(7):
        seen = sum(1 for _ in labeled_trees(n))
        if not (seen == math.factorial(n + 1) * catalan(n)
                == 2 ** n * odd_double_factorial(n)):
            bad.append(("P", n, seen))
    for n in range(8):
        seen = sum(1 for _ in increasing_trees(n))
        if seen != odd_double_factorial(n):
            bad.append(("I", n, seen))
    ok = not bad
    report(3, "family counts", ok)
    assert ok, f"count mismatches: {bad}"


def _forward_round_trip_checks(tree):
    out = to_increasing(tree)
    if not is_increasing(out):
        return "image not increasing"
    x_tags = sum(1 for v in (out.tags or {}).values() if v == "x")
    if x_tags != len(improper_edges(tree)):
        return "x-tag count differs from improper count"
    if from_increasing(out) != tree:
        return "round trip failed"
    return None


def test_criterion_04_bijection_round_trip():
    started = time.perf_counter()
    problems = []
    for tree in labeled_trees(5):
        issue = _forward_round_trip_checks(tree)
        if issue:
            problems.append((str(tree), issue))
            break
    rng = random.Random(20240416)
    for _ in range(10_000):
        tree = sample_labeled_tree(20, rng.getrandbits(63))
        issue = _forward_round_trip_checks(tree)
        if issue:
            problems.append((str(tree), issue))
            break
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    report(4, "bijection round trip", ok)
    assert ok, f"{problems}, elapsed {elapsed:.2f}s"


def test_criterion_05_involution_properties():
    rng = random.Random(97531)
    problems = []
    for _ in range(10_000):
        n = rng.randint(1, 20)
        tree = sample_labeled_tree(n, rng.getrandbits(63))
        eid = rng.randrange(n)
        before = set(improper_edges(tree))
        once = flip_edge(tree, eid)
        after = set(improper_edges(once))
        if flip_edge(once, eid) != tree:
            problems.append(("not an involution", str(tree), eid))
            break
        if before.symmetric_difference(after) != {eid}:
            problems.append(("wrong status changes", str(tree), eid))
            break
    for _ in range(10_000):
        n = rng.randint(1, 20)
        tree = sample_labeled_tree(n, rng.getrandbits(63))
        e1, e2 = rng.randrange(n), rng.randrange(n)
        if (flip_edge(flip_edge(tree, e1), e2)
                != flip_edge(flip_edge(tree, e2), e1)):
            problems.append(("orders disagree", str(tree), e1, e2))
            break
    ok = not problems
    report(5, "involution properties", ok)
    assert ok, f"{problems}"


def test_criterion_06_rooted_mode_invariants():
    problems = []
    for tree in root_one_trees(5):
        out = to_increasing(tree, rooted=True)
        in_root_edges = {e for e, _ in oracle.nodes(tree).root.children}
        out_root_edges = {e for e, _ in oracle.nodes(out).root.children}
        t_tags = {e for e, tag in out.tags.items() if tag == "t"}
        if len(in_root_edges) != len(out_root_edges):
            problems.append((str(tree), "root degree changed"))
            break
        if not (t_tags == in_root_edges == out_root_edges):
            problems.append((str(tree), "t tags off the root edges"))
            break
    ok = not problems
    report(6, "rooted-mode invariants", ok)
    assert ok, f"{problems}"


def test_criterion_07_golden_command_outputs(capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    ok = True
    code, out = run("classify", FIG_LABELED)
    improper_lines = [line for line in out.splitlines() if "improper" in line]
    ok &= code == 0 and improper_lines == [
        "(5,1): improper", "(5,3): improper", "(3,2): improper"]
    ok &= "impr=3 prop=4" in out

    code, out = run("bij", "forward", FIG_LABELED)
    ok &= code == 0 and out == FIG_TAGGED + "\n"

    code, out = run("stirling", "to", FIG_INCREASING)
    ok &= code == 0 and out == FIG_WALK + "\n"

    code, out = run("stirling", "blocks", "6 6 3 4 5 5 4 3 1 1 2 7 7 2")
    ok &= code == 0 and out == "[6 6][3 4 5 5 4 3][1 1][2 7 7 2]\n"

    with capsys.disabled():
        report(7, "golden command outputs", ok)
    assert ok


def test_criterion_08_stirling_cross_check():
    problems = []
    for n in range(7):
        walks = {}
        for tree in increasing_trees(n):
            walk = tree_to_stirling(tree)
            if walk in walks:
                problems.append((n, "walk collision"))
                break
            walks[walk] = tree
            if len(blocks(walk)) != len(oracle.nodes(tree).root.children):
                problems.append((n, "block count differs from root degree"))
                break
        if set(walks) != set(stirling_permutations(n)):
            problems.append((n, "image is not the whole family"))
        poly = root_degree_polynomial(n)
        coeffs = {c: v for (_, _, c), v in poly.coeffs.items()}
        if n >= 1 and dict(block_table(n)) != coeffs:
            problems.append((n, "block table differs from coefficients"))
        if poly.eval(1, 1, 1) != odd_double_factorial(n):
            problems.append((n, "total differs from the double factorial"))
    ok = not problems
    report(8, "stirling cross-check", ok)
    assert ok, f"{problems}"


def test_criterion_09_series_identities():
    started = time.perf_counter()
    closed = verify_egf_identities(10, source="closed")
    elapsed = time.perf_counter() - started
    enumerated = verify_egf_identities(6, source="enumerated")
    ok = closed.passed and enumerated.passed and elapsed < 5.0
    report(9, "series identities", ok)
    assert ok, (f"closed={closed}, enumerated={enumerated}, "
                f"elapsed {elapsed:.2f}s")


def test_criterion_10_x_y_symmetry():
    from planetrees import Polynomial
    bad = []
    for n in range(7):
        poly = edge_status_polynomial(n)
        swapped = Polynomial({(b, a, c): v
                              for (a, b, c), v in poly.coeffs.items()})
        if poly != swapped:
            bad.append(n)
    ok = not bad
    report(10, "x/y symmetry", ok)
    assert ok, f"asymmetric at n: {bad}"
