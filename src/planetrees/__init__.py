"""Exact combinatorics of labeled plane trees, increasing plane trees and
Stirling permutations: edge classification, the flip involution and the
bijections built from it, exhaustive enumeration and uniform sampling, and
exact polynomial / generating-function identity checks.

Importing the package loads none of its modules.  Each module loads the
first time one of its names, or the module itself, is looked up on the
package (PEP 562), so a CLI command imports only the modules it runs.
"""

# Every module of the package, with the public names it defines.
_EXPORTS = {
    "tree": (
        "EdgeStatus", "PlaneTree", "TreeParseError", "TreeStats",
        "classify_edge", "edge_id", "edge_list",
        "has_canonical_labels", "improper_edges", "is_increasing",
        "parse_tree", "render_tree", "tree_stats",
    ),
    "involution": ("flip_edge", "from_increasing", "to_increasing"),
    "counting": (
        "MAX_INCREASING_EDGES", "MAX_LABELED_EDGES", "FamilyCount",
        "catalan", "family_count", "odd_double_factorial", "plane_shapes",
    ),
    "families": (
        "increasing_trees", "labeled_trees", "root_one_trees",
        "sample_increasing_tree", "sample_increasing_trees",
        "sample_labeled_tree", "sample_labeled_trees",
    ),
    "polynomials": (
        "MAX_SERIES_ORDER", "ClosedFormReport", "EgfReport", "Polynomial",
        "T", "X", "Y", "edge_status_closed_form", "edge_status_polynomial",
        "root_degree_closed_form", "root_degree_counts",
        "root_degree_polynomial", "rooted_closed_form",
        "rooted_edge_status_polynomial", "verify_closed_forms",
        "verify_egf_identities",
    ),
    "stirling": (
        "block_table", "blocks", "format_permutation", "is_stirling",
        "parse_permutation", "stirling_permutations", "stirling_to_tree",
        "tree_to_stirling",
    ),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
