"""Command-line behavior: exact output, exit codes, stdin handling,
pipe compatibility."""

import gc
import io
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import planetrees
from planetrees import (
    ClosedFormReport,
    Polynomial,
    catalan,
    classify_edge,
    edge_list,
    labeled_trees,
    parse_tree,
    render_tree,
    root_one_trees,
)
from planetrees.cli import main

from conftest import (FIG_INCREASING, FIG_LABELED, FIG_TAGGED, FIG_WALK,
                      LONG_NUMERAL, digit_limit)

# the strict argv reader defers to argparse or agrees with it on every argv
pytestmark = pytest.mark.usefixtures("reader_agrees_with_argparse")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLASSIFY_EXPECTED = """\
(5,1): improper
(1,7): proper
(5,3): improper
(3,8): proper
(3,2): improper
(3,6): proper
(3,4): proper
impr=3 prop=4
"""


def test_classify_figure(capsys):
    code, out, _ = run(capsys, "classify", FIG_LABELED)
    assert code == 0
    assert out == CLASSIFY_EXPECTED


def test_classify_single_vertex(capsys):
    code, out, _ = run(capsys, "classify", "1")
    assert code == 0
    assert out == "impr=0 prop=0\n"


def test_classify_small(capsys):
    code, out, _ = run(capsys, "classify", "3(2,1)")
    assert code == 0
    assert out == "(3,2): proper\n(3,1): improper\nimpr=1 prop=1\n"


def test_classify_matches_classify_edge(capsys):
    # the one-pass CLI output against classify_edge, edge by edge
    _, trees, _ = run(capsys, "enum", "P", "--n", "3")
    for text in trees.splitlines():
        tree = parse_tree(text)
        expected = [f"({p},{c}): {classify_edge(tree, eid).value}"
                    for eid, p, c in edge_list(tree)]
        impr = sum(1 for line in expected if line.endswith("improper"))
        expected.append(f"impr={impr} prop={len(expected) - impr}")
        code, out, _ = run(capsys, "classify", text)
        assert code == 0
        assert out == "\n".join(expected) + "\n"


def test_classify_parse_error(capsys):
    code, out, err = run(capsys, "classify", "1((")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_classify_rejects_non_ascii_digit(capsys):
    code, out, err = run(capsys, "classify", "1(\u00b2)")
    assert code == 2
    assert out == ""
    assert err == "error: expected a label (at position 2)\n"


def test_phi_golden(capsys):
    code, out, _ = run(capsys, "phi", FIG_LABELED, "5,1")
    assert code == 0
    assert out == "1(5(3(8,2,6,4)),7)\n"


def test_phi_is_involution(capsys):
    _, once, _ = run(capsys, "phi", "2(1)", "2,1")
    assert once == "1(2)\n"
    # the flipped edge now runs child-to-parent
    code, twice, _ = run(capsys, "phi", once.strip(), "1,2")
    assert code == 0
    assert twice == "2(1)\n"


def test_phi_rejects_non_edge(capsys):
    code, _, err = run(capsys, "phi", FIG_LABELED, "5,7")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "phi", FIG_LABELED, "5;7")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("edge", ["+5,1", " 5, 1", "5,\u0663"])
def test_phi_edge_labels_are_ascii_decimal(capsys, edge):
    # the tree parser's rule for a label; int() would accept all three
    code, out, err = run(capsys, "phi", "5(1(7),3)", edge)
    assert code == 2 and out == ""
    assert err == f"error: edge labels must be decimal integers, got {edge!r}\n"


@digit_limit
def test_phi_names_an_edge_label_with_too_many_digits(capsys):
    for edge, name in ((f"{LONG_NUMERAL},1", "parent"),
                       (f"5,{LONG_NUMERAL}", "child")):
        code, out, err = run(capsys, "phi", "5(1(7),3)", edge)
        assert code == 2 and out == ""
        assert err == f"error: the {name} label has too many digits\n"


def test_bij_forward_golden(capsys):
    code, out, _ = run(capsys, "bij", "forward", FIG_LABELED)
    assert code == 0
    assert out == FIG_TAGGED + "\n"


def test_bij_inverse_golden(capsys):
    code, out, _ = run(capsys, "bij", "inverse", FIG_TAGGED)
    assert code == 0
    assert out == FIG_LABELED + "\n"


def test_bij_inverse_rejects_what_forward_never_outputs(capsys):
    # labels must be 1..n+1, and t must be absent or on every root edge
    for text in ("2(3:x)", "1(2:t,3:y)"):
        code, out, err = run(capsys, "bij", "inverse", text)
        assert code == 2 and out == "" and "error:" in err


def test_bij_rooted_golden(capsys):
    code, out, _ = run(capsys, "bij", "forward", "--rooted", "1(3(2))")
    assert code == 0
    assert out == "1(2:t(3:x))\n"


def test_bij_rejects_bad_input(capsys):
    code, _, err = run(capsys, "bij", "forward", FIG_TAGGED)
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "bij", "inverse", FIG_LABELED)
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "bij", "forward", "--rooted", "2(1)")
    assert code == 2 and "error:" in err


def test_stirling_to_golden(capsys):
    code, out, _ = run(capsys, "stirling", "to", FIG_INCREASING)
    assert code == 0
    assert out == FIG_WALK + "\n"


def test_stirling_from_golden(capsys):
    code, out, _ = run(capsys, "stirling", "from", FIG_WALK)
    assert code == 0
    assert out == FIG_INCREASING + "\n"
    code, out, _ = run(capsys, "stirling", "from", "1 1")
    assert out == "1(2)\n"


def test_stirling_blocks_golden(capsys):
    code, out, _ = run(capsys, "stirling", "blocks", "6 6 3 4 5 5 4 3 1 1 2 7 7 2")
    assert code == 0
    assert out == "[6 6][3 4 5 5 4 3][1 1][2 7 7 2]\n"


def test_stirling_rejects_invalid(capsys):
    code, _, err = run(capsys, "stirling", "from", "1 2 1 2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "stirling", "to", "2(1)")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("direction", ["from", "blocks"])
@pytest.mark.parametrize("operand, bad", [
    ("2 2 +1 1", "+1"),
    ("1_0 1_0", "1_0"),
    ("\u0662 \u0662 1 1", "\u0662"),
])
def test_stirling_rejects_numerals_the_tree_parser_rejects(capsys, direction,
                                                          operand, bad):
    code, out, err = run(capsys, "stirling", direction, operand)
    assert code == 2
    assert out == ""
    assert err == f"error: not an integer: {bad!r}\n"


# ---- stdin ----

def test_stdin_operand(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1(2)\n\n2(1)\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert out == ("(1,2): proper\nimpr=0 prop=1\n"
                   "(2,1): improper\nimpr=1 prop=0\n")


@digit_limit
def test_classify_names_the_position_of_a_label_with_too_many_digits(
        capsys, monkeypatch):
    # the trees before the faulty line are classified, then exit code 2
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(f"1(2)\n1(3,{LONG_NUMERAL})\n2(1)\n"))
    code, out, err = run(capsys, "classify", "-")
    assert code == 2
    assert out == "(1,2): proper\nimpr=0 prop=1\n"
    assert err == "error: label has too many digits (at position 4)\n"


@pytest.mark.parametrize("argv, text, out, err", [
    (["phi", "-", "1,2"], "1(2,3)\n2(1)\n1(2)\n", "2(1(3))\n",
     "no edge (1,2)"),
    (["bij", "forward", "-"], "2(1)\n1(2\n1(2)\n", "1(2:x)\n",
     "expected ',' or ')' (at position 3)"),
    (["bij", "inverse", "-"], "1(2:x)\n2(1)\n1(2)\n", "2(1)\n",
     "input tree is not increasing"),
    (["stirling", "to", "-"], "1(2)\n2(1)\n1(2)\n", "1 1\n",
     "input tree is not increasing"),
    (["stirling", "from", "-"], "1 1\n1 2\n1 1\n", "1(2)\n",
     "not a Stirling permutation"),
    (["stirling", "blocks", "-"], "1 1\n1 1 2\n1 1\n", "[1 1]\n",
     "not a Stirling permutation"),
], ids=["phi", "bij_forward", "bij_inverse", "stirling_to", "stirling_from",
        "stirling_blocks"])
def test_a_faulty_stdin_line_ends_the_stage_after_the_lines_before(
        capsys, monkeypatch, argv, text, out, err):
    # line 1 is written before line 2 is read; line 3 is never reached
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, *argv) == (2, out, f"error: {err}\n")


# one stdin line, then what bij forward, bij inverse and stirling to each
# write for it: a stdout line, or the error on stderr
READER_LINES = {
    "3(1)": ("error: labels must be exactly 1..n+1",) * 3,
    "2(1)": ("1(2:x)", "error: input tree is not increasing",
             "error: input tree is not increasing"),
    "1(2:x)": ("error: input tree is already tagged", "2(1)",
               "error: input tree is already tagged"),
    "1(2)": ("1(2:y)", "error: every edge must carry a tag", "1 1"),
    "3(1:x)": ("error: labels must be exactly 1..n+1",) * 3,
    "2(1:x)": ("error: input tree is already tagged",
               "error: input tree is not increasing",
               "error: input tree is not increasing"),
}


def test_both_increasing_readers_name_a_non_increasing_line_alike(
        capsys, monkeypatch):
    # the three tree readers refuse a line at its first fault, in the order
    # labels, decreasing edge, tagging, and in the same words
    readers = (["bij", "forward", "-"], ["bij", "inverse", "-"],
               ["stirling", "to", "-"])
    for line, results in READER_LINES.items():
        for argv, result in zip(readers, results):
            monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
            expected = ((2, "", result + "\n") if result.startswith("error: ")
                        else (0, result + "\n", ""))
            assert run(capsys, *argv) == expected, (line, argv)


class LineOnlyStdin(io.StringIO):
    """A stdin that can only be read line by line."""

    def read(self, *args):
        raise AssertionError("stdin was read whole")


def test_stdin_is_streamed_line_by_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", LineOnlyStdin("2(1)\n\n  \n" + FIG_LABELED + "\n"))
    code, out, _ = run(capsys, "bij", "forward", "-")
    assert code == 0
    assert out == "1(2:x)\n" + FIG_TAGGED + "\n"


def test_stdin_bij_round_trip(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIG_TAGGED + "\n"))
    code, out, _ = run(capsys, "bij", "inverse", "-")
    assert code == 0
    assert out == FIG_LABELED + "\n"


@pytest.mark.parametrize("argv, text, expected", [
    (["stirling", "from"], "1 1\x0c2 2", "1(2,3)\n"),
    (["classify"], "1(2,\x0c3)",
     "(1,2): proper\n(1,3): proper\nimpr=0 prop=2\n"),
])
def test_stdin_splits_only_at_line_ends(capsys, monkeypatch, argv, text,
                                        expected):
    # \f, \x1c-\x1e, \x85, \u2028 and the like are whitespace to both text
    # formats, as in an argv operand, and no line end
    code, out, _ = run(capsys, *argv, text)
    assert (code, out) == (0, expected)
    spaces = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    for space in spaces:
        line = text.replace("\x0c", space)
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{line}\r\n{line}\r"
                                                      f"{line}\n"))
        code, out, err = run(capsys, *argv, "-")
        assert (code, out, err) == (0, expected * 3, ""), repr(space)


# ---- verify ----

def test_verify_thm1_single_n(capsys):
    code, out, err = run(capsys, "verify", "thm1", "--n", "3")
    assert code == 0
    assert out == (
        "P_3 = 15x^3 + 45x^2y + 45xy^2 + 15y^3\n"
        "O_3 = 6t^3 + 6t^2x + 6t^2y + 3tx^2 + 6txy + 3ty^2\n"
        "thm1 n=3 PASS\n"
    )
    assert "elapsed" in err


def test_verify_thm2_small_order(capsys):
    code, out, _ = run(capsys, "verify", "thm2", "--order", "2")
    assert code == 0
    assert out == ("thm2 P order=2 PASS\n"
                   "thm2 O order=2 PASS\n"
                   "thm2 S order=2 PASS\n")


def test_verify_counts_single_n(capsys):
    code, out, _ = run(capsys, "verify", "counts", "--n", "2")
    assert code == 0
    assert out == ("counts P n=2 PASS 12 = 12 = 12\n"
                   "counts I n=2 PASS 3 = 3\n")


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--order", "2")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_all_default_sweep_matches_golden(capsys):
    # the whole default sweep: counts, thm1 for n <= 6, thm2 to order 10
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    golden = Path(__file__).with_name("golden") / "verify_all.txt"
    assert out == golden.read_text()


def test_verify_all_counts_the_labelings_it_visits(capsys, monkeypatch,
                                                   cold_memos):
    # a kernel that drops one labeling from the labeled histogram of each
    # n = 6 shape: the counts line reports the labelings the histograms
    # count, not the family's size
    from planetrees import polynomials

    kernel = polynomials._shape_histograms

    def short(parents):
        deg, labeled, root_first = kernel(parents)
        if len(parents) == 7:
            labeled[0] -= 1  # every shape has a labeling with no improper edge
        return deg, labeled, root_first

    monkeypatch.setattr(polynomials, "_shape_histograms", short)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    golden = Path(__file__).with_name("golden") / "verify_all.txt"
    # 132 shapes, one labeling short each; the root-first histograms and O_6
    # are whole, so only the P checks at n = 6 fail
    assert out == (golden.read_text()
                   .replace("counts P n=6 PASS 665280 =",
                            "counts P n=6 FAIL 665148 =")
                   .replace("thm1 n=6 PASS", "thm1 n=6 FAIL")
                   .replace("thm2 P order=10 PASS", "thm2 P order=10 FAIL"))


def test_verify_all_counts_the_increasing_labelings_it_sums(capsys,
                                                           monkeypatch,
                                                           cold_memos):
    # a kernel that drops the one labeling of the 7-edge path: the
    # counts line reports the labelings the kernel counts, and each n's
    # shapes are summed once
    from planetrees import polynomials

    kernel = polynomials._increasing_labelings
    seen = Counter()

    def short(parents):
        seen[len(parents) - 1] += 1
        count = kernel(parents)
        return count - 1 if parents == (-1,) + tuple(range(7)) else count

    monkeypatch.setattr(polynomials, "_increasing_labelings", short)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    golden = Path(__file__).with_name("golden") / "verify_all.txt"
    # S_7 is read by the counts line only: thm1 stops at n = 6 and thm2
    # takes its coefficients past n = 6 from the closed forms
    assert out == golden.read_text().replace(
        "counts I n=7 PASS 135135 =", "counts I n=7 FAIL 135134 =")
    # one kernel call per shape: C_n shapes for each n <= 7
    assert seen == {n: math.comb(2 * n, n) // (n + 1) for n in range(8)}


def test_verify_all_walks_no_increasing_tree(capsys, monkeypatch,
                                             cold_memos):
    # the root-degree sums come from the shapes' hook-length counts: the
    # increasing-tree walk is never started
    from planetrees import families

    def refuse(n):
        raise RuntimeError("verify walked the increasing trees")

    monkeypatch.setattr(families, "_increasing_kids", refuse)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    golden = Path(__file__).with_name("golden") / "verify_all.txt"
    assert out == golden.read_text()


def test_verify_thm1_forced_past_the_bound(capsys, cold_memos):
    # n = 7 is one past the enumeration bound; the shapes' hook products
    # take it in well under a second
    code, out, _ = run(capsys, "verify", "thm1", "--n", "7", "--force")
    assert code == 0
    lines = out.splitlines()
    assert "thm1 n=7 PASS" in lines
    # 135135 (x+y)^7, expanded by hand: 135135 C(7, k) x^(7-k) y^k
    assert ("P_7 = 135135x^7 + 945945x^6y + 2837835x^5y^2 + 4729725x^4y^3"
            " + 4729725x^3y^4 + 2837835x^2y^5 + 945945xy^6 + 135135y^7"
            ) in lines


def test_verify_counts_forced_past_the_bound(capsys, cold_memos):
    # the counts read the same sums as thm1, so n = 7 costs what thm1 costs
    code, out, _ = run(capsys, "verify", "counts", "--n", "7", "--force")
    assert code == 0
    assert out == ("counts P n=7 PASS 17297280 = 17297280 = 17297280\n"
                   "counts I n=7 PASS 135135 = 135135\n")


def test_verify_bound_without_force(capsys):
    code, _, err = run(capsys, "verify", "thm2", "--order", "11")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["verify", "thm2", "--order", "11"],
    ["verify", "thm1", "--n", "7"],
    ["verify", "counts", "--n", "7"],
    ["enum", "P", "--n", "7"],
    ["enum", "I", "--n", "8"],
    ["enum", "stirling", "--n", "8"],
])
def test_bound_refusals_name_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: \S+ exceeds the \w+ bound \d+.*; "
                        r"force to run anyway \(--force\)\n", err)


@pytest.mark.parametrize("order, message", [
    ("11", "order=11 exceeds the default bound 10; force to run anyway "
           "(--force)"),
    ("-1", "order must be >= 0"),
], ids=["past_bound", "negative"])
def test_verify_all_refuses_a_bad_order_before_any_check(capsys, order,
                                                         message):
    # the order is checked before the counts and thm1 sweep runs, so a
    # refusal prints no line of it
    code, out, err = run(capsys, "verify", "all", "--order", order)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    # a target without thm2 reads no order
    code, out, _ = run(capsys, "verify", "counts", "--n", "2", "--order", order)
    assert code == 0 and out.count("PASS") == 2


def test_verify_negative_order_is_refused(capsys):
    code, out, err = run(capsys, "verify", "thm2", "--order", "-1")
    assert code == 2 and out == ""
    assert err == "error: order must be >= 0\n"


def test_verify_force_overrides_order_bound(capsys):
    code, out, _ = run(capsys, "verify", "thm2", "--order", "11", "--force")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_runs_in_one_process(capsys, monkeypatch, cold_memos):
    # the exhaustive sums run serially in this process: no worker pool is
    # started, and there is no option to ask for one
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise RuntimeError("verify started a process pool")

    # with the memos cold, both sums are computed in this run
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    code, out, _ = run(capsys, "verify", "thm1", "--n", "4")
    assert code == 0 and out.endswith("thm1 n=4 PASS\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_failure_exits_one(capsys, monkeypatch):
    # simulate a mismatch to pin the exit code contract
    def broken(n, *, force=False):
        return ClosedFormReport(n=n, labeled=Polynomial(), rooted=Polynomial(),
                                labeled_ok=False, rooted_ok=True)
    monkeypatch.setattr("planetrees.polynomials.verify_closed_forms", broken)
    code, out, _ = run(capsys, "verify", "thm1", "--n", "1")
    assert code == 1
    assert "thm1 n=1 FAIL" in out


# ---- enum ----

def test_enum_increasing(capsys):
    code, out, _ = run(capsys, "enum", "I", "--n", "2")
    assert code == 0
    assert sorted(out.splitlines()) == ["1(2(3))", "1(2,3)", "1(3,2)"]


def test_enum_count_only(capsys):
    code, out, _ = run(capsys, "enum", "P", "--n", "1", "--count-only")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "enum", "stirling", "--n", "4", "--count-only")
    assert code == 0 and out == "105\n"


def test_enum_trivial_family(capsys):
    code, out, _ = run(capsys, "enum", "P", "--n", "0")
    assert code == 0 and out == "1\n"


def test_enum_stirling_lines(capsys):
    code, out, _ = run(capsys, "enum", "stirling", "--n", "2")
    assert code == 0
    assert sorted(out.splitlines()) == ["1 1 2 2", "1 2 2 1", "2 2 1 1"]


def test_enum_bound(capsys):
    code, _, err = run(capsys, "enum", "P", "--n", "7")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "enum", "I", "--n", "8")
    assert code == 2 and "error:" in err


def test_enum_deterministic_order(capsys):
    _, first, _ = run(capsys, "enum", "O", "--n", "3")
    _, second, _ = run(capsys, "enum", "O", "--n", "3")
    assert first == second
    assert len(first.splitlines()) == 30


@pytest.mark.parametrize("family, trees", [("P", labeled_trees),
                                           ("O", root_one_trees)])
def test_enum_writes_the_rendered_family(capsys, family, trees):
    # enum P|O fills one skeleton per shape from the kernel, with no tree
    # built: line for line what render_tree writes of each public wrapper
    for n in range(5):
        code, out, _ = run(capsys, "enum", family, "--n", str(n))
        assert code == 0
        assert out.splitlines() == list(map(render_tree, trees(n)))


@pytest.mark.parametrize("family", ["P", "O"])
def test_enum_builds_one_skeleton_per_shape(capsys, monkeypatch, family):
    shapes = []
    template = planetrees.tree._skeleton

    def skeleton(parents, tagged=False):
        shapes.append(parents)
        return template(parents, tagged)

    monkeypatch.setattr(planetrees.tree, "_skeleton", skeleton)
    assert run(capsys, "enum", family, "--n", "4")[0] == 0
    assert len(shapes) == len(set(shapes)) == catalan(4) == 14


# ---- sample ----

def test_sample_trivial(capsys):
    code, out, _ = run(capsys, "sample", "P", "--n", "0", "--seed", "7")
    assert code == 0 and out == "1\n"


def test_sample_deterministic(capsys):
    _, a, _ = run(capsys, "sample", "I", "--n", "9", "--seed", "3", "--count", "5")
    _, b, _ = run(capsys, "sample", "I", "--n", "9", "--seed", "3", "--count", "5")
    assert a == b
    assert len(a.splitlines()) == 5


def test_sample_rejects_bad_count(capsys):
    code, _, err = run(capsys, "sample", "P", "--n", "2", "--count", "0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("family", ["P", "I"])
def test_sample_rejects_negative_n(capsys, family):
    code, out, err = run(capsys, "sample", family, "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: n must be >= 0\n"


# ---- the CLI as a separate process ----
# These run the CLI in a child process as `python -m planetrees`, so no
# installed console script is needed. The child's PYTHONPATH starts with
# the directory holding the planetrees package this test process imported,
# so it runs that same copy whatever its working directory.

PACKAGE_ROOT = Path(planetrees.__file__).resolve().parents[1]


def child_env(**overrides):
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([inherited] if inherited else [])), **overrides)


def run_cli(*argv, input=None):
    return subprocess.run([sys.executable, "-m", "planetrees", *argv],
                          input=input, capture_output=True, text=True,
                          env=child_env())


def run_pipe(*stages):
    """Run each stage as its own CLI process with the previous stage's stdout
    as its stdin; fail on the first stage that exits nonzero or writes to
    stderr, naming it. Returns the last stage's stdout."""
    out = ""
    for argv in stages:
        proc = run_cli(*argv, input=out)
        assert proc.returncode == 0 and proc.stderr == "", (
            f"pipe stage `planetrees {' '.join(argv)}` exited "
            f"{proc.returncode} with stderr {proc.stderr!r}")
        out = proc.stdout
    return out


def test_script_pipe_enum_bij_classify():
    # format compatibility: enum output feeds bij, whose output feeds
    # classify, with no errors anywhere in the pipe
    direct = run_pipe(["enum", "P", "--n", "2"]).splitlines()
    piped = run_pipe(["enum", "P", "--n", "2"], ["bij", "forward", "-"],
                     ["bij", "inverse", "-"])
    assert sorted(direct) == sorted(piped.splitlines())
    tagged = run_pipe(["enum", "P", "--n", "2"], ["bij", "forward", "-"],
                      ["classify", "-"])
    # one summary line per tree: (n+1)! C_n = 3! * 2 = 12 for n = 2
    summaries = [line for line in tagged.splitlines()
                 if re.fullmatch(r"impr=\d+ prop=\d+", line)]
    assert len(summaries) == len(direct) == 12


def test_script_verify_exit_zero():
    proc = run_cli("verify", "all", "--n", "1", "--order", "1")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout


def test_script_usage_error_exit_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_reader_closing_the_pipe_ends_the_process_quietly(unbuffered):
    # a reader that stops after one line (`| head -1`): the next write
    # breaks the pipe, and the process exits 0 with nothing on stderr
    env = child_env(PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "planetrees", "enum", "P",
                           "--n", "5"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        try:
            assert proc.stdout.readline() == b"1(2,3,4,5,6)\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


# ---- the process entry ----

def test_run_freezes_the_heap_once_before_any_output(monkeypatch):
    events = []

    class Stdout:
        def write(self, text):
            events.append("write")
            return len(text)

    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(sys, "argv",
                        ["planetrees", "verify", "counts", "--n", "0"])
    assert planetrees.cli.run() == 0
    assert events == ["freeze", "write", "write"]


def test_main_freezes_nothing(capsys):
    # tests, library callers and in-process benchmarks keep their own heap
    frozen = gc.get_freeze_count()
    for argv in (["verify", "counts", "--n", "0"], ["classify", "1(2)"],
                 ["enum", "I", "--n", "2"]):
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


ATEXIT_THEN_RUN = """
import atexit, sys
from planetrees.cli import run
atexit.register(lambda: sys.stderr.write("atexit ran\\n"))
sys.argv = ["planetrees", "classify", "1(2)"]
sys.exit(run())
"""


def test_run_exits_through_the_interpreter():
    # run() returns its code and leaves the exit to Python, so atexit
    # handlers run and stdio is flushed
    proc = subprocess.run([sys.executable, "-c", ATEXIT_THEN_RUN],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "(1,2): proper\nimpr=0 prop=1\n"
    assert proc.stderr == "atexit ran\n"
