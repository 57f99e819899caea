import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# worked example pair used across modules: a labeled plane tree with three
# improper edges and the increasing tree the bijection sends it to
FIG_LABELED = "5(1(7),3(8,2,6,4))"
FIG_INCREASING = "1(2(5,8,3(6,4)),7)"
FIG_TAGGED = "1(2:x(5:x,8:y,3:x(6:y,4:y)),7:y)"
FIG_WALK = "1 4 4 7 7 2 5 5 3 3 2 1 6 6"

# a numeral with more digits than int() reads from text: CPython's limit is
# 4300 by default, and a Python without the limit reads it whole
LONG_NUMERAL = "2" * 5000
digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() < len(LONG_NUMERAL),
    reason="int() reads a numeral of 5000 digits here")


class Draws:
    """A stand-in for ``random.Random`` that draws a scripted history:
    ``getrandbits(k)`` returns the next value, and refuses one of more than
    k bits or a history that has run out."""

    def __init__(self, history):
        self._values = iter(history)

    def getrandbits(self, k):
        # refused by name: a StopIteration inside the drawing generator
        # would surface as a bare RuntimeError
        value = next(self._values, None)
        if value is None or not 0 <= value < 2 ** k:
            raise ValueError(f"scripted draw {value} has more than {k} bits")
        return value


@pytest.fixture
def fig_labeled():
    return FIG_LABELED


@pytest.fixture
def fig_increasing():
    return FIG_INCREASING


@pytest.fixture
def cold_memos():
    """Empty the per-n memos of the enumerated statistics before and after
    the test: its sums are computed in it, and whatever it leaves there (a
    patched kernel's sums too) never reaches a later test."""
    from planetrees import polynomials

    memos = (polynomials._edge_status_sums, polynomials._root_degree_sum)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def argparse_reading(argv):
    """vars() of the namespace argparse makes of argv, or None where it
    exits (help or a usage error); whatever it prints is swallowed."""
    from planetrees.cli import build_parser

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.fixture
def reader_agrees_with_argparse(monkeypatch):
    """Every argv the test hands ``planetrees.cli.main`` is read by the
    strict reader and by argparse too: the reader defers or returns
    argparse's namespace."""
    from planetrees import cli

    strict = cli._read_argv

    def checked(argv):
        args = strict(argv)
        assert args is None or vars(args) == argparse_reading(argv), argv
        return args

    monkeypatch.setattr(cli, "_read_argv", checked)
