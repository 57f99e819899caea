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


def test_no_function_calls_itself():
    # every traversal stays iterative: a deep input must not meet the
    # interpreter's recursion limit
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{call.lineno} {node.name}"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name)
                          and call.func.id == node.name]
    assert SOURCES
    assert found == []


def test_every_process_entry_goes_through_run():
    # python -m planetrees, python -m planetrees.cli and the console script
    # all freeze the start-up heap; main() itself never does
    def called(nodes):
        return {node.func.id for tree in nodes for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    package = Path(planetrees.__file__).parent
    dunder_main = ast.parse((package / "__main__.py").read_text())
    assert called(dunder_main.body) == {"run"}
    guard, = [node for node in ast.parse((package / "cli.py").read_text()).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert called(guard.body) == {"run"}
    scripts = re.search(r"^\[project\.scripts\]\n(.*)$",
                        (ROOT / "pyproject.toml").read_text(), re.M)
    assert scripts[1] == 'planetrees = "planetrees.cli:run"'


def test_cli_writes_stdout_in_one_place():
    # one loop writes every stdout line, one write each; a handler with a
    # loop of its own would restate that rule, and a print is two writes
    path = Path(planetrees.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))

    def writes(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and ast.unparse(n) == "sys.stdout.write"]

    runner, = [node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "_write_lines"]
    assert len(writes(tree)) == 1
    assert writes(runner) == writes(tree)
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "print"]
    assert prints
    assert all("file=sys.stderr" in ast.unparse(node) for node in prints)


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
    assert len(names) == 23
    assert [name for name in names if not hasattr(planetrees, name)] == []
    assert [name for name in names if name not in planetrees.__all__] == []


# which sibling modules each module reads with `from .x import`, anywhere in
# its body; `stirling` decodes words into parents tuples itself, so it
# reads `tree` and not `families`, and reads `counting` only for the
# insertion histories its enumerator steps, as `families` does; `polynomials`
# counts from the shapes alone, so it reads `counting` and not `tree`
IMPORT_GRAPH = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"counting", "families", "involution", "polynomials", "stirling",
            "tree"},
    "counting": set(),
    "families": {"counting", "tree"},
    "involution": {"tree"},
    "polynomials": {"counting"},
    "stirling": {"counting", "tree"},
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


# the underscored names each module imports from a sibling; a module not
# listed imports none.  A private helper gained or lost by a sibling, such
# as a second copy of a check, shows here
PRIVATE_IMPORTS = {
    "cli": {"_improper_flags", "_increasing_kids", "_labelings",
            "_render_labelings", "_require_bound"},
    "families": {"_histories"},
    "involution": {"_edge_position", "_improper_flags", "_require_input"},
    "polynomials": {"_require_bound"},
    "stirling": {"_histories", "_require_input"},
}


# the public names that no module of the package reads (a name or attribute
# load, or a relative import; the strings in _EXPORTS do not count) and no
# file of the benchmark names: only library callers and tests read them,
# so a helper that only tests need shows here
LIBRARY_ONLY = {"block_table", "is_stirling", "root_one_trees"}


def test_library_only_names():
    loaded = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                loaded.update(alias.name for alias in node.names)
    bench = {word for path in (ROOT / "perfbench").glob("*.*")
             for word in re.findall(r"\w+", path.read_text())}
    assert {name for name in planetrees.__all__
            if name not in loaded and name not in bench} == LIBRARY_ONLY


def test_private_imports_across_modules():
    graph = {}
    for path in SOURCES:
        body = ast.parse(path.read_text(), str(path))
        names = {alias.name for node in ast.walk(body)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names if alias.name.startswith("_")}
        if names:
            graph[path.stem] = names
    assert graph == PRIVATE_IMPORTS


def test_reader_messages_live_only_in_tree():
    # to_increasing, from_increasing and tree_to_stirling refuse a tree
    # through tree._require_input; a second copy of one of its messages
    # would be a second copy of the rule
    messages = {"labels must be exactly 1..n+1",
                "input tree is not increasing",
                "input tree is already tagged",
                "every edge must carry a tag"}
    found = {}
    for path in SOURCES:
        held = {node.value for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and node.value in messages}
        if held:
            found[path.stem] = held
    assert found == {"tree": messages}
