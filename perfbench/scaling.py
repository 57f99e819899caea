"""Scaling sweep for the traced run: per-call time against tree size.

Each swept function runs three times per size, smallest first, and the
fastest call counts.  Before a size is run its time is projected from the
sizes already measured; a projection over the per-call cap is recorded as
skipped, with the projected time, and so is every larger size.  The two
smallest sizes, which are the ``bigtree`` sizes, always run.  The slope is
the least-squares log-log fit over the measured sizes, so about 1 means
linear and about 2 quadratic.
"""

from __future__ import annotations

import math
import re
import time

from workloads import random_tags

SIZES = (1000, 2000, 10_000, 100_000)
CAP_S = 2.0
REPEATS = 3  # per size; the fastest call counts, as the machine is shared


def timed(call, arg) -> float:
    start = time.perf_counter()
    call(arg)
    return time.perf_counter() - start


def fitted_slope(points) -> float:
    if len(points) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def increasing_tree(pt, n: int, seed: int):
    """An increasing tree with n edges in linear time: a uniform labeled
    shape relabeled in preorder, which is the order labels appear in text."""
    text = pt.render_tree(pt.sample_labeled_tree(n, seed))
    labels = iter(range(1, n + 2))
    return pt.parse_tree(re.sub(r"\d+", lambda _: str(next(labels)), text))


def sweep(pt, seed: int) -> dict:
    """{function: {"slope": s, "points": [...]}} for the four swept paths."""
    def tagged_increasing(n):
        return random_tags(pt, increasing_tree(pt, n, seed), seed)

    cases = {  # name: (call, its argument at size n)
        "to_increasing": (pt.to_increasing,
                          lambda n: pt.sample_labeled_tree(n, seed)),
        "from_increasing": (pt.from_increasing, tagged_increasing),
        "sample_increasing_tree": (lambda n: pt.sample_increasing_tree(n, seed),
                                   lambda n: n),
        "tree_to_stirling": (pt.tree_to_stirling,
                             lambda n: increasing_tree(pt, n, seed)),
    }
    out = {}
    for name, (call, make_input) in cases.items():
        measured: list[tuple[int, float]] = []
        points = []
        slope = 0.0
        for n in SIZES:
            if len(measured) >= 2:  # the two smallest sizes always run
                last_n, last_t = measured[-1]
                projected = last_t * (n / last_n) ** slope
                if projected > CAP_S or points[-1].get("skipped"):
                    points.append({"n": n, "projected_s": projected,
                                   "skipped": "quadratic" if slope >= 1.5
                                   else "over_cap"})
                    continue
            arg = make_input(n)
            elapsed = min(timed(call, arg) for _ in range(REPEATS))
            measured.append((n, elapsed))
            points.append({"n": n, "seconds": elapsed})
            slope = fitted_slope(measured)
        out[name] = {"slope": slope, "points": points}
    return out
