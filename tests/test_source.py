"""Properties of the library source itself."""

import ast
from pathlib import Path

import planetrees

SOURCES = sorted(Path(planetrees.__file__).parent.glob("*.py"))


def test_no_assert_as_runtime_check():
    # `python -O` strips assert statements, and every check in the library
    # must survive it: each is an explicit test that raises
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES
    assert found == []
