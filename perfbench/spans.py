"""In-memory spans around calls into planetrees, recorded from the benchmark side.

Nothing under ``src/`` is instrumented.  A traced pass either calls the
library through :meth:`Tracer.library` or swaps the names a module looked
up at import time (``planetrees.cli.parse_tree`` and the like) for timing
wrappers with :meth:`Tracer.patched`, and puts the originals back after.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

# Library functions that get a span, by the layer (module) that owns them.
LAYER_OF = {
    "parse_tree": "tree", "render_tree": "tree", "edge_list": "tree",
    "classify_edge": "tree", "tree_stats": "tree", "improper_edges": "tree",
    "is_increasing": "tree",
    "to_increasing": "involution", "from_increasing": "involution",
    "tree_to_stirling": "stirling", "stirling_to_tree": "stirling",
    "blocks": "stirling", "format_permutation": "stirling",
    "parse_permutation": "stirling",
    "labeled_trees": "families", "increasing_trees": "families",
    "sample_labeled_tree": "families", "sample_increasing_tree": "families",
    "sample_labeled_trees": "families", "sample_increasing_trees": "families",
    "edge_status_polynomial": "polynomials",
    "rooted_edge_status_polynomial": "polynomials",
    "root_degree_polynomial": "polynomials",
    "edge_status_closed_form": "polynomials",
    "rooted_closed_form": "polynomials",
    "root_degree_closed_form": "polynomials",
    "verify_closed_forms": "polynomials",
    "verify_egf_identities": "polynomials",
}

# A generator's span runs from its creation to its exhaustion.
GENERATORS = {"labeled_trees", "increasing_trees",
              "sample_labeled_trees", "sample_increasing_trees"}


def _edges(args):
    return args[0].edge_count


def _labelings(pt, rooted):
    def work(args):
        counts = pt.family_count(args[0])
        return counts.root_one if rooted else counts.labeled
    return work


def work_functions(pt):
    """Units of work per call (per item, for generators), where a rate needs
    them; every other call counts as 1.  Evaluated after the span ends."""
    return {
        "to_increasing": _edges,
        "from_increasing": _edges,
        "sample_increasing_tree": lambda args: args[0],
        "sample_increasing_trees": lambda args: args[0],
        "edge_status_polynomial": _labelings(pt, False),
        "rooted_edge_status_polynomial": _labelings(pt, True),
    }


class Tracer:
    """Spans as [name, start, end, parent index, op, items, work]."""

    def __init__(self, pt):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ops = 0
        self.flips = 0
        self._work = work_functions(pt)

    def open(self, name: str) -> int:
        # a span with no parent starts a new op; its descendants share it
        index = len(self.spans)
        if self.stack:
            parent = self.stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
            self.ops += 1
            op = self.ops
        self.spans.append([name, time.perf_counter(), None, parent, op, 0, 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self.stack[-1] == index:
            self.stack.pop()
        else:  # a generator abandoned before exhaustion
            self.stack.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        qualified = f"{LAYER_OF[name]}.{name}"
        work = self._work.get(name)
        if name in GENERATORS:
            def traced_generator(*args, **kwargs):
                index = self.open(qualified)
                return self._drain(index, fn(*args, **kwargs),
                                   work(args) if work else 1)
            return traced_generator

        def traced(*args, **kwargs):
            index = self.open(qualified)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                record = self.spans[index]
                record[5] = 1
                record[6] = work(args) if work else 1
        return traced

    def _drain(self, index, items, per_item):
        record = self.spans[index]
        try:
            for item in items:
                record[5] += 1
                yield item
        finally:
            record[6] = record[5] * per_item
            self.close(index)

    def library(self, pt) -> SimpleNamespace:
        """The public functions of ``pt``, each wrapped in a span, and
        ``span`` to group a workload's calls into one op."""
        return SimpleNamespace(span=self.span, **{
            name: self.wrap(name, getattr(pt, name)) for name in LAYER_OF})

    def _count_flip(self, fn):
        def counted(*args, **kwargs):
            self.flips += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self, pt):
        """Wrap the library names that the CLI and ``verify_closed_forms``
        call, and count every flip ``to_increasing``/``from_increasing`` make."""
        saved = []
        targets = [(module, name) for module in (pt.cli, pt.polynomials)
                   for name in LAYER_OF if hasattr(module, name)]
        try:
            for module, name in targets:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(name, original))
            original = pt.involution.flip_edge
            saved.append((pt.involution, "flip_edge", original))
            pt.involution.flip_edge = self._count_flip(original)
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def untraced_library(pt) -> SimpleNamespace:
    return SimpleNamespace(span=lambda name: nullcontext(), **{
        name: getattr(pt, name) for name in LAYER_OF})


# CLI stages whose process wall time and peak RSS are per-layer metrics.
CLI_STAGES = ("sample_p", "bij_forward", "bij_inverse", "classify",
              "sample_i", "stirling_to", "stirling_from", "stirling_blocks",
              "verify")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, stages, sweep, overhead) -> dict:
    """Every per-layer metric from one traced pass.

    ``stages`` maps a CLI stage to (wall_s, peak_rss_mb) of its untraced
    subprocess, ``sweep`` maps a swept function to its fitted slope, and
    ``overhead`` is (untraced wall_s, traced wall_s).  A layer this
    workload never calls reads 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    durations: dict[str, list] = {}
    items: dict[str, int] = {}
    work: dict[str, int] = {}
    cli_self = 0.0
    for i, (name, start, end, parent, op, count, units) in enumerate(spans):
        length = end - start
        if name == "cli.main":
            cli_self += length - child_time[i]
        layer, _, short = name.partition(".")
        if LAYER_OF.get(short) != layer:
            continue  # a span grouping a workload's calls, not a library call
        # between yields a generator's consumer runs; its spans are children
        busy[short] = busy.get(short, 0.0) + (
            length - child_time[i] if short in GENERATORS else length)
        durations.setdefault(short, []).append(length)
        items[short] = items.get(short, 0) + count
        work[short] = work.get(short, 0) + units

    def total(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    out = {}

    def timed(metric, *names):
        out[f"{metric}.busy_s"] = total(*names)

    timed("tree.parse_tree", "parse_tree")
    timed("tree.render_tree", "render_tree")
    timed("tree.classify", "classify_edge", "edge_list", "tree_stats")
    out["tree.classify.us_per_edge"] = 1e6 * rate(
        out["tree.classify.busy_s"], items.get("classify_edge", 0))
    timed("tree.improper_edges", "improper_edges")
    for name in ("to_increasing", "from_increasing"):
        metric = f"involution.{name}"
        timed(metric, name)
        out[f"{metric}.us_per_edge"] = 1e6 * rate(total(name), work.get(name, 0))
        out[f"{metric}.slope"] = sweep.get(name, 0.0)
        calls = durations.get(name, [])
        out[f"{metric}.p50_us"] = 1e6 * percentile(calls, 0.50)
        out[f"{metric}.p99_us"] = 1e6 * percentile(calls, 0.99)
    out["involution.flips"] = tracer.flips
    timed("stirling.tree_to_stirling", "tree_to_stirling")
    out["stirling.tree_to_stirling.slope"] = sweep.get("tree_to_stirling", 0.0)
    timed("stirling.stirling_to_tree", "stirling_to_tree")
    timed("stirling.blocks", "blocks")
    for name in ("labeled_trees", "increasing_trees"):
        timed(f"families.{name}", name)
        out[f"families.{name}.trees_per_s"] = rate(items.get(name, 0), total(name))
    samplers = ("sample_increasing_tree", "sample_increasing_trees")
    timed("families.sample_increasing_tree", *samplers)
    out["families.sample_increasing_tree.us_per_edge"] = 1e6 * rate(
        total(*samplers), sum(work.get(n, 0) for n in samplers))
    out["families.sample_increasing_tree.slope"] = sweep.get(
        "sample_increasing_tree", 0.0)
    timed("families.sample_labeled_tree",
          "sample_labeled_tree", "sample_labeled_trees")
    out["families.trees_visited"] = sum(
        items.get(n, 0) for n in ("labeled_trees", "increasing_trees",
                                  "sample_labeled_tree", "sample_increasing_tree",
                                  "sample_labeled_trees", "sample_increasing_trees"))
    histogram = ("edge_status_polynomial", "rooted_edge_status_polynomial")
    for name in (*histogram, "root_degree_polynomial", "verify_egf_identities"):
        timed(f"polynomials.{name}", name)
    out["polynomials.histogram.labelings_per_s"] = rate(
        sum(work.get(n, 0) for n in histogram), total(*histogram))
    timed("polynomials.closed_forms", "edge_status_closed_form",
          "rooted_closed_form", "root_degree_closed_form")
    for stage in CLI_STAGES:
        wall, rss = stages.get(stage, (0.0, 0.0))
        out[f"cli.{stage}.wall_s"] = wall
        out[f"cli.{stage}.peak_rss_mb"] = rss
    out["cli.self_s"] = cli_self
    untraced, traced = overhead
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return out
