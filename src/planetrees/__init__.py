"""Exact combinatorics of labeled plane trees, increasing plane trees and
Stirling permutations: edge classification, the flip involution and the
bijections built from it, exhaustive enumeration and uniform sampling, and
exact polynomial / generating-function identity checks."""

from .tree import (
    EdgeRef,
    EdgeStatus,
    PlaneTree,
    TreeParseError,
    TreeStats,
    classify_edge,
    edge_id,
    edge_list,
    has_canonical_labels,
    improper_edges,
    is_increasing,
    parse_tree,
    render_tree,
    subtree_min,
    tree_stats,
)
from .involution import (
    flip_edge,
    from_increasing,
    to_increasing,
)
from .families import (
    MAX_INCREASING_EDGES,
    MAX_LABELED_EDGES,
    FamilyCount,
    catalan,
    family_count,
    increasing_trees,
    labeled_trees,
    odd_double_factorial,
    plane_shapes,
    root_one_trees,
    sample_increasing_tree,
    sample_increasing_trees,
    sample_labeled_tree,
    sample_labeled_trees,
)
from .polynomials import (
    MAX_SERIES_ORDER,
    ClosedFormReport,
    EgfReport,
    Polynomial,
    T,
    X,
    Y,
    edge_status_closed_form,
    edge_status_polynomial,
    root_degree_closed_form,
    root_degree_counts,
    root_degree_polynomial,
    rooted_closed_form,
    rooted_edge_status_polynomial,
    verify_closed_forms,
    verify_egf_identities,
)
from .stirling import (
    block_table,
    blocks,
    format_permutation,
    is_stirling,
    parse_permutation,
    stirling_permutations,
    stirling_to_tree,
    tree_to_stirling,
)

__all__ = [
    "EdgeRef", "EdgeStatus", "PlaneTree", "TreeParseError",
    "TreeStats", "classify_edge", "edge_id", "edge_list",
    "has_canonical_labels", "improper_edges", "is_increasing", "parse_tree",
    "render_tree", "subtree_min", "tree_stats",
    "flip_edge", "from_increasing", "to_increasing",
    "MAX_INCREASING_EDGES", "MAX_LABELED_EDGES", "FamilyCount", "catalan",
    "family_count", "increasing_trees", "labeled_trees",
    "odd_double_factorial", "plane_shapes", "root_one_trees",
    "sample_increasing_tree", "sample_increasing_trees",
    "sample_labeled_tree", "sample_labeled_trees",
    "MAX_SERIES_ORDER", "ClosedFormReport", "EgfReport", "Polynomial",
    "T", "X", "Y", "edge_status_closed_form", "edge_status_polynomial",
    "root_degree_closed_form", "root_degree_counts", "root_degree_polynomial",
    "rooted_closed_form", "rooted_edge_status_polynomial",
    "verify_closed_forms", "verify_egf_identities",
    "block_table", "blocks", "format_permutation", "is_stirling",
    "parse_permutation", "stirling_permutations", "stirling_to_tree",
    "tree_to_stirling",
]

__version__ = "0.1.0"
