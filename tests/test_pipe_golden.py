"""The CLI pipes against stored stdout, stage by stage.

Each chain runs in-process through ``planetrees.cli.main``, feeding one
stage's stdout to the next stage's stdin, and every stage's stdout must match
its file under ``tests/golden/pipe/`` byte for byte.  The files pin the text
format, the edge ids, the tags and the seed -> tree map across changes to the
tree core.
"""

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
