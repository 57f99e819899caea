"""The CLI's one grammar and its two readers: the strict reader for a
well-formed argv, argparse for help and usage errors.

argparse's stdout, stderr and exit code are pinned by
``tests/golden/usage.json``, recorded before the strict reader existed, and
wherever the strict reader reads an argv it must return argparse's namespace.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees.cli import _COMMANDS, _read_argv, main

from conftest import FIG_LABELED, argparse_reading

USAGE = json.loads((Path(__file__).resolve().parent / "golden"
                    / "usage.json").read_text())
RECORDED_ON = tuple(USAGE["python"])


@pytest.mark.skipif(
    sys.version_info[:2] != RECORDED_ON,
    reason="argparse's help and error text were recorded on CPython "
           + ".".join(map(str, RECORDED_ON)))
@pytest.mark.parametrize("case", USAGE["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_errors_match_golden(case, capsys, monkeypatch):
    # help wraps at the terminal's width; the goldens were taken at 80
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


# argv the process tests run (test_cli, test_imports), each well-formed
PROCESS_ARGV = [
    ["enum", "P", "--n", "2"],
    ["bij", "forward", "-"],
    ["bij", "inverse", "-"],
    ["classify", "-"],
    ["verify", "all", "--n", "1", "--order", "1"],
    ["verify", "thm1", "--n", "1"],
    ["verify", "counts", "--n", "3"],
    ["verify", "all"],
    ["sample", "P", "--n", "8", "--seed", "3", "--count", "5"],
    ["stirling", "blocks", "-"],
    ["phi", FIG_LABELED, "5,1"],
    ["bij", "--rooted", "forward", "1(3(2))"],
    ["enum", "O", "--force", "--n", "4", "--count-only", "--force"],
]


@pytest.mark.parametrize("argv", PROCESS_ARGV, ids=" ".join)
def test_reader_reads_a_well_formed_argv_as_argparse_does(argv):
    args = _read_argv(argv)
    assert args is not None
    assert vars(args) == argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["-h"], ["bij", "-h"], ["enum", "P"],
    ["enum", "P", "--n=3"], ["enum", "P", "--n=3", "5"],
    ["sample", "P", "--n", "2", "--cou", "2"],
    ["sample", "P", "--n", "-1"], ["verify", "thm2", "--order", "-1"],
    ["classify", "--", "1(2)"], ["classify", "1(2)", "2"],
    ["bij", "sideways", "1(2)"], ["enum", "P", "--n"],
    ["enum", "P", "--n", "x"], ["enum", "P", "--n", "-x"],
], ids=lambda argv: " ".join(argv) or "(none)")
def test_reader_defers_the_rest_to_argparse(argv):
    assert _read_argv(argv) is None


# operands that argparse reads as positionals: none starts with "-" but "-"
OPERANDS = st.one_of(
    st.sampled_from(["-", "", "1(2)", FIG_LABELED, "1 1", "5,1", "٥"]),
    st.text(max_size=4).filter(lambda text: not text.startswith("-")))


@st.composite
def well_formed(draw):
    """A command, its positionals in order, each option at most once and
    the required ones always, interleaved at random."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, _, positionals, options = _COMMANDS[command]
    words = [draw(st.sampled_from(choices) if choices else OPERANDS)
             for _, choices, _ in positionals]
    groups = [[flag] if kind is bool else [flag, str(draw(st.integers(0, 99)))]
              for flag, (kind, _, required, _) in options.items()
              if required or draw(st.booleans())]
    slots = draw(st.permutations([None] * len(words) + groups))
    words = iter(words)
    return [command] + [token for slot in slots
                        for token in (slot or [next(words)])]


@settings(max_examples=200)
@given(well_formed())
def test_reader_reads_every_well_formed_argv(argv):
    args = _read_argv(argv)
    assert args is not None
    assert vars(args) == argparse_reading(argv)


TOKENS = sorted({token for command, (_, _, positionals, options)
                 in _COMMANDS.items()
                 for token in [command, *options]
                 + [c for _, choices, _ in positionals for c in choices or []]})
JUNK = ["-", "--", "-h", "--help", "--n=3", "-1", "٥", "--cou", "-n",
        "x", "5", "", " 7", "1(2)"]


@st.composite
def near_miss(draw):
    """A well-formed argv with one token dropped, replaced or put in."""
    argv = draw(well_formed())
    at = draw(st.integers(0, len(argv)))
    token = [draw(st.sampled_from(TOKENS + JUNK))]
    edit = draw(st.sampled_from(["drop", "replace", "insert"]))
    return argv[:at] + ([] if edit == "drop" else token) + argv[
        at + (edit != "insert"):]


@settings(max_examples=300)
@given(st.one_of(st.lists(st.sampled_from(TOKENS + JUNK), max_size=7),
                 near_miss()))
def test_reader_defers_or_agrees_on_any_argv(argv):
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == argparse_reading(argv)
