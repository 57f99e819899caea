"""The CLI pipes against stored stdout, stage by stage.

Each chain runs in-process through ``planetrees.cli.main``, feeding one
stage's stdout to the next stage's stdin, and every stage's stdout must match
its file under ``tests/golden/pipe/`` byte for byte.  The files pin the text
format, the edge ids, the tags and the seed -> tree map across changes to the
tree core.  The long enumerations are pinned by the sha256 of their stdout.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from planetrees.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "pipe"
SIZE = ["--n", "30", "--seed", "1", "--count", "200"]

# (golden file, argv, golden file whose text is the stdin)
CHAINS = {
    "labeled": [
        ("sample_p", ["sample", "P", *SIZE], None),
        ("bij_forward", ["bij", "forward", "-"], "sample_p"),
        ("bij_inverse", ["bij", "inverse", "-"], "bij_forward"),
        ("classify", ["classify", "-"], "bij_inverse"),
    ],
    "increasing": [
        ("sample_i", ["sample", "I", *SIZE], None),
        ("stirling_to", ["stirling", "to", "-"], "sample_i"),
        ("stirling_from", ["stirling", "from", "-"], "stirling_to"),
        ("stirling_blocks", ["stirling", "blocks", "-"], "stirling_to"),
    ],
    "rooted": [
        ("enum_o4", ["enum", "O", "--n", "4"], None),
        ("bij_forward_rooted", ["bij", "forward", "--rooted", "-"], "enum_o4"),
    ],
}


def run_chain(chain, capsys, monkeypatch):
    """{golden file name: stdout} for every stage of one chain."""
    outputs = {}
    for name, argv, source in chain:
        text = "" if source is None else outputs[source]
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        outputs[name] = capsys.readouterr().out
        assert code == 0, name
    return outputs


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_pipe_stdout_matches_golden(chain, capsys, monkeypatch):
    outputs = run_chain(CHAINS[chain], capsys, monkeypatch)
    for name, text in outputs.items():
        assert text == (GOLDEN / f"{name}.txt").read_text(), name


# sha256 of whole families' stdout, too long to store as files; a change in
# shape, labeling or insertion order changes the digest
ENUM_SHA256 = {
    ("enum", "P", "--n", "5"):
        "9879453febdc0cc71794a438619189fbea73f7cf0ee2d20d8794126df73ded20",
    ("enum", "O", "--n", "6"):
        "39f813f40e26c23c7476b9daa162e75b9a0a05bc9cbc1f7903bc69606fbc5e82",
    ("enum", "I", "--n", "6"):
        "698dffea4578b8f7f0210cf248f4fd67f5a37658332ba6a06ecc389c595e627c",
    ("enum", "stirling", "--n", "6"):
        "035e40454bd0faea7e6d937b94cf8edc61f56d8ad6206d7e01443da39fb5d620",
}
# `stirling from -` fed the `enum stirling --n 6` stdout: every increasing
# tree with 6 edges, decoded in word order
STIRLING_FROM_SHA256 = (
    "db91f90f23060c01b1eb6f18918c894d36889f04b890b1d233f68f27f22b2347")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_enum_stdout_matches_pinned_digests(capsys, monkeypatch):
    got = {}
    for argv in ENUM_SHA256:
        assert main(list(argv)) == 0, argv
        got[argv] = capsys.readouterr().out
    assert {argv: _sha256(out) for argv, out in got.items()} == ENUM_SHA256
    words = got[("enum", "stirling", "--n", "6")]
    monkeypatch.setattr(sys, "stdin", io.StringIO(words))
    assert main(["stirling", "from", "-"]) == 0
    assert _sha256(capsys.readouterr().out) == STIRLING_FROM_SHA256
