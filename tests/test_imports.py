"""What the package and each CLI command load, seen from fresh interpreters,
and the record types that need no ``dataclasses``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planetrees
from planetrees import (
    ClosedFormReport,
    EgfReport,
    FamilyCount,
    TreeStats,
    family_count,
    format_permutation,
    parse_tree,
    render_tree,
    sample_increasing_trees,
    sample_labeled_trees,
    to_increasing,
    tree_stats,
    tree_to_stirling,
    verify_closed_forms,
    verify_egf_identities,
)

from conftest import FIG_LABELED

# the child's PYTHONPATH starts with the directory holding the package this
# process imported, so it runs that same copy whatever its working directory
PACKAGE_ROOT = Path(planetrees.__file__).resolve().parents[1]

# modules no command needs: the polynomial layer takes int scalars only and
# its records are NamedTuples
HEAVY = {"fractions", "decimal", "dataclasses", "inspect"}
# argparse and what it loads: a well-formed argv is read without them, and
# only help and usage errors need argparse's text
PARSER = {"argparse", "gettext", "locale", "shutil"}
# the package modules each command loads besides the package and cli: the
# text commands load tree, and verify counts without it
LAYERS = {
    "classify": {"planetrees.tree"},
    "phi": {"planetrees.involution", "planetrees.tree"},
    "bij": {"planetrees.involution", "planetrees.tree"},
    "stirling": {"planetrees.stirling", "planetrees.tree"},
    "sample": {"planetrees.families", "planetrees.tree"},
    "verify": {"planetrees.counting", "planetrees.polynomials"},
}

IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)$", re.M)


def python(*args, input=""):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, *args], input=input,
                          capture_output=True, text=True, env=env)


def imports(*args, input=""):
    """Exit code, stdout and the modules a fresh interpreter imported.
    ``-S`` skips ``site``, whose ``.pth`` hooks may import ``random`` or a
    heavy module themselves and so hide one the command imports."""
    proc = python("-S", "-X", "importtime", *args, input=input)
    return proc.returncode, proc.stdout, set(IMPORT_LINE.findall(proc.stderr))


def assert_loads_its_layers_only(argv, loaded, bare):
    """The package modules a command loaded are the ones its own layers
    need.  Of the modules the bare interpreter lacks, none is heavy, and
    ``random`` comes only with the samplers, and argparse not at all."""
    package = {m for m in loaded if m.partition(".")[0] == "planetrees"}
    own = LAYERS[argv[0]]
    base = {"planetrees", "planetrees.cli"}
    assert package == base | own, argv
    unwanted = HEAVY | PARSER
    if "planetrees.families" not in own:
        unwanted |= {"random"}
    assert (loaded - bare) & unwanted == set(), argv


def test_pipe_commands_load_no_verify_module():
    # every stage of the benchmark's pipe, and phi, in its own process
    labeled = "".join(render_tree(t) + "\n"
                      for t in sample_labeled_trees(8, 3, 5))
    tagged = "".join(render_tree(to_increasing(parse_tree(line))) + "\n"
                     for line in labeled.splitlines())
    increasing = "".join(render_tree(t) + "\n"
                         for t in sample_increasing_trees(8, 3, 5))
    words = "".join(format_permutation(tree_to_stirling(parse_tree(line))) + "\n"
                    for line in increasing.splitlines())
    stages = [
        (["sample", "P", "--n", "8", "--seed", "3", "--count", "5"], ""),
        (["sample", "I", "--n", "8", "--seed", "3", "--count", "5"], ""),
        (["bij", "forward", "-"], labeled),
        (["bij", "inverse", "-"], tagged),
        (["classify", "-"], labeled),
        (["stirling", "to", "-"], increasing),
        (["stirling", "from", "-"], words),
        (["stirling", "blocks", "-"], words),
        (["phi", FIG_LABELED, "5,1"], ""),
    ]
    # whatever the bare interpreter already imports is no command's doing
    _, _, bare = imports("-c", "pass")
    for argv, stdin in stages:
        code, out, loaded = imports("-m", "planetrees", *argv, input=stdin)
        assert code == 0 and out, argv
        assert_loads_its_layers_only(argv, loaded, bare)


def test_verify_loads_the_polynomial_layer():
    # the positive control: the same reading sees what verify imports
    _, _, bare = imports("-c", "pass")
    argv = ["verify", "thm1", "--n", "1"]
    code, out, loaded = imports("-m", "planetrees", *argv)
    assert code == 0 and out.endswith("thm1 n=1 PASS\n")
    assert_loads_its_layers_only(argv, loaded, bare)


def test_verify_counts_loads_no_heavy_module():
    # counts reads the statistics thm1 checks from the polynomial layer,
    # which needs none of the heavy modules
    _, _, bare = imports("-c", "pass")
    argv = ["verify", "counts", "--n", "3"]
    code, out, loaded = imports("-m", "planetrees", *argv)
    assert code == 0
    assert out == ("counts P n=3 PASS 120 = 120 = 120\n"
                   "counts I n=3 PASS 15 = 15\n")
    assert_loads_its_layers_only(argv, loaded, bare)


def test_every_verify_target_loads_no_tree_layer():
    # every verify target counts from the shapes alone
    _, _, bare = imports("-c", "pass")
    for target in ("all", "counts", "thm1", "thm2"):
        argv = ["verify", target]
        code, out, loaded = imports("-m", "planetrees", *argv)
        assert code == 0 and out, argv
        assert_loads_its_layers_only(argv, loaded, bare)


def loaded_by(statement):
    """The package modules a fresh interpreter holds after the statement,
    and whether it holds ``random``.  ``-S`` skips ``site``, whose ``.pth``
    hooks may import ``random`` themselves."""
    proc = python("-S", "-c", f"import sys; {statement}; print(sorted("
                  "m for m in sys.modules if m.startswith('planetrees.')), "
                  "'random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_module_loads_no_other_package_module():
    # every command's layers, tree too, load in its handler
    assert loaded_by("import planetrees.cli") == "['planetrees.cli'] False\n"


def test_cli_module_loads_no_argparse():
    _, _, bare = imports("-c", "pass")
    _, _, loaded = imports("-c", "import planetrees.cli")
    assert (loaded - bare) & PARSER == set()


def test_help_and_usage_errors_load_argparse():
    # the positive control: the same reading sees argparse where it is used
    _, _, bare = imports("-c", "pass")
    for argv, code in ((["--help"], 0), (["bij", "-h"], 0),
                       (["enum", "P"], 2), (["enum", "P", "--n=1"], 0)):
        got, _, loaded = imports("-m", "planetrees", *argv)
        assert got == code and "argparse" in loaded - bare, argv


def test_counting_module_loads_no_other_package_module():
    # the counting layer is stdlib only: no tree and no sampler's random
    assert (loaded_by("import planetrees.counting")
            == "['planetrees.counting'] False\n")


COLD_PACKAGE = """
import json, sys
import planetrees
facts = {"loaded": sorted(m for m in sys.modules if m.startswith("planetrees."))}
listed = dir(planetrees)
facts["not_in_dir"] = [n for n in planetrees.__all__ if n not in listed]
facts["loaded_by_dir"] = sorted(m for m in sys.modules if m.startswith("planetrees."))
namespace = {}
exec("from planetrees import *", namespace)
facts["not_bound_by_star"] = [n for n in planetrees.__all__
                              if namespace.get(n) is not getattr(planetrees, n)]
print(json.dumps(facts))
"""


def test_package_loads_modules_on_first_use():
    proc = python("-c", COLD_PACKAGE)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts == {"loaded": [], "not_in_dir": [], "loaded_by_dir": [],
                     "not_bound_by_star": []}


AFTER_CLI = """
import json, sys
import planetrees.cli
import planetrees
facts = {"modules": [type(planetrees.polynomials).__name__,
                     planetrees.polynomials.__name__,
                     planetrees.involution.__name__]}
values = {n: getattr(planetrees, n) for n in planetrees.__all__}
library = [getattr(planetrees, m) for m in
           ("tree", "involution", "counting", "families", "polynomials",
            "stirling")]
facts["not_home"] = []
for name, value in values.items():
    holders = [m for m in library if name in vars(m)]
    if not holders or any(vars(m)[name] is not value for m in holders):
        facts["not_home"].append(name)
facts["unknown"] = []
for name in ("no_such_name", "main", "build_tree", "import_module",
             "__main__"):
    try:
        getattr(planetrees, name)
    except AttributeError:
        facts["unknown"].append(name)
print(json.dumps(facts))
"""


def test_package_names_are_their_home_modules_objects():
    # the benchmark reads planetrees.polynomials and planetrees.involution
    # right after importing planetrees.cli
    proc = python("-c", AFTER_CLI)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts == {
        "modules": ["module", "planetrees.polynomials", "planetrees.involution"],
        "not_home": [],
        "unknown": ["no_such_name", "main", "build_tree", "import_module",
                    "__main__"],
    }
    assert len(planetrees.__all__) == len(set(planetrees.__all__)) == 55


def test_record_types_keep_fields_immutability_and_repr():
    stats = tree_stats(parse_tree(FIG_LABELED))
    assert TreeStats._fields == ("improper", "proper", "root_label",
                                 "degree_of_one")
    assert repr(stats) == ("TreeStats(improper=3, proper=4, root_label=5, "
                           "degree_of_one=1)")
    counts = family_count(3)
    assert FamilyCount._fields == ("n", "labeled", "root_one", "increasing",
                                   "catalan")
    assert repr(counts) == ("FamilyCount(n=3, labeled=120, root_one=30, "
                            "increasing=15, catalan=5)")
    closed = verify_closed_forms(1)
    assert ClosedFormReport._fields == ("n", "labeled", "rooted",
                                        "labeled_ok", "rooted_ok")
    assert repr(closed) == ("ClosedFormReport(n=1, labeled=Polynomial(x + y), "
                            "rooted=Polynomial(t), labeled_ok=True, "
                            "rooted_ok=True)")
    assert closed.passed
    egf = verify_egf_identities(2, source="closed")
    assert EgfReport._fields == ("order", "source", "labeled_ok", "rooted_ok",
                                 "degree_ok")
    assert repr(egf) == ("EgfReport(order=2, source='closed', "
                         "labeled_ok=True, rooted_ok=True, degree_ok=True)")
    assert egf.passed and not egf._replace(rooted_ok=False).passed
    for record, field in ((stats, "proper"), (counts, "labeled"),
                          (closed, "n"), (egf, "order")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
