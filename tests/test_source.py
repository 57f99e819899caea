"""Properties of the library source itself."""

import ast
import doctest
import re
import shlex
from pathlib import Path

import planetrees
from planetrees.cli import main

SOURCES = sorted(Path(planetrees.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_package_keeps_what_the_benchmark_reads():
    # perfbench/spans.py looks every LAYER_OF name up on the package on each
    # run, and the workloads read the rest; read the table without importing
    # the benchmark, so a shrinking __all__ cannot break it unseen
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    tables = [ast.literal_eval(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "LAYER_OF" for t in node.targets)]
    assert len(tables) == 1
    names = [*tables[0], "family_count", "MAX_LABELED_EDGES",
             "MAX_INCREASING_EDGES", "PlaneTree"]
    missing = [name for name in names if not hasattr(planetrees, name)]
    assert missing == []
    # the traced pass counts flips by patching this module attribute
    assert callable(planetrees.involution.flip_edge)


def test_root_handle_rebuilds_trees_as_the_benchmark_does():
    # the bigtree workload tags a tree with PlaneTree(t.root, tags) and
    # strips the tags with PlaneTree(tagged.root)
    for tree in (planetrees.sample_increasing_tree(40, 7),
                 planetrees.sample_labeled_tree(40, 7)):
        tags = {eid: "xy"[eid % 2] for eid in range(tree.edge_count)}
        tagged = planetrees.PlaneTree(tree.root, tags)
        assert tagged.tags == tags
        assert tagged == planetrees.parse_tree(planetrees.render_tree(tagged))
        plain = planetrees.PlaneTree(tagged.root)
        assert not plain.is_tagged
        assert plain == tree
    forward = planetrees.to_increasing(planetrees.sample_labeled_tree(40, 7))
    plain = planetrees.PlaneTree(forward.root)
    assert planetrees.render_tree(plain) == re.sub(
        r":[xyt]", "", planetrees.render_tree(forward))


def test_readme_library_examples_run():
    # the README's Library block is a doctest session; run it as one
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert results.failed == 0
    assert results.attempted == 9


def test_readme_cli_examples_run(capsys):
    # every line of the README's CLI block, comments stripped, exits 0
    fences = re.findall(r"^## CLI\n.*?```sh\n(.*?)```", (ROOT / "README.md")
                        .read_text(), re.M | re.S)
    assert len(fences) == 1
    lines = fences[0].splitlines()
    assert len(lines) == 14
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "planetrees"
        assert main(argv[1:]) == 0, line
        assert capsys.readouterr().out


def test_readme_entry_points_are_exported():
    # every function named in the README's "Key entry points" table is a
    # package attribute listed in __all__
    table = re.search(r"^Key entry points:\n\n((?:\|.*\n)+)",
                      (ROOT / "README.md").read_text(), re.M)
    assert table
    names = re.findall(r"`(\w+)", table[1])
    assert len(names) == 24
    assert [name for name in names if not hasattr(planetrees, name)] == []
    assert [name for name in names if name not in planetrees.__all__] == []


# which sibling modules each module reads with `from .x import`, anywhere in
# its body; `stirling` decodes words into parents tuples itself, so it
# reads `tree` and not `families`, and `polynomials` counts from the shapes
# alone, so it reads `counting` and not `tree`
IMPORT_GRAPH = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"counting", "families", "involution", "polynomials", "stirling",
            "tree"},
    "counting": set(),
    "families": {"counting", "tree"},
    "involution": {"tree"},
    "polynomials": {"counting"},
    "stirling": {"tree"},
    "tree": set(),
}


def test_package_import_graph():
    graph = {}
    for path in SOURCES:
        body = ast.parse(path.read_text(), str(path))
        graph[path.stem] = {node.module for node in ast.walk(body)
                            if isinstance(node, ast.ImportFrom)
                            and node.level == 1}
    assert graph == IMPORT_GRAPH
