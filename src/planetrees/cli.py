"""Command-line interface.

Exit codes: 0 success (all verifications passed), 1 a verification found a
mismatch, 2 usage or parse error.  Wherever a tree or permutation operand
is expected, "-" reads standard input instead and processes every nonempty
line, so ``enum`` output pipes straight into ``classify``, ``bij`` or
``stirling``.  :func:`_write_lines` writes each stdout line in one write,
and writes line k before it reads line k+1.  All stdout is deterministic
for a fixed argv (and seed); timing goes to stderr.

Each stage of a pipe is a fresh interpreter, so each handler imports the
modules its command runs and this module imports none: the text commands
load ``tree``, and ``verify`` counts without it.  A well-formed argv is
read from ``_COMMANDS``; help, errors and ``--n=5`` spellings load argparse.

A process enters through :func:`run` (``python -m planetrees``, ``python -m
planetrees.cli`` and the ``planetrees`` script), which freezes the start-up
heap with ``gc.freeze()`` so that no collection during the run or at exit
walks it again: in a short process those walks are most of the teardown.
:func:`main` freezes nothing, so tests and library callers keep their heap.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace
from typing import Iterator


def _operand_lines(operand: str) -> Iterator[str]:
    if operand == "-":
        # line by line as stdin arrives, so memory does not grow with the pipe;
        # split at line ends only, as \f or \x1c is a space to both formats
        for line in sys.stdin:
            for text in line.rstrip("\n").split("\r"):
                if text.strip():
                    yield text
    else:
        yield operand


def _parse_edge_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"edge must be 'parent,child', got {text!r}")
    # the tree parser's rule for a label: ASCII decimal digits, nothing else
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"edge labels must be decimal integers, got {text!r}")
    labels = []
    for name, part in zip(("parent", "child"), parts):
        try:
            labels.append(int(part))
        except ValueError:  # from int(), on a label with too many digits
            raise ValueError(f"the {name} label has too many digits") from None
    return tuple(labels)


def _write_lines(items, *steps) -> int:
    for step in steps:
        items = map(step, items)
    write = sys.stdout.write
    for text in items:
        write(text + "\n")
    return 0


def _cmd_classify(args) -> int:
    from .tree import EdgeStatus, _improper_flags, parse_tree

    names = {True: EdgeStatus.IMPROPER.value, False: EdgeStatus.PROPER.value}

    def record(tree):
        # one template per tree, filled with (parent, child, status) per edge
        labels, n = tree.labels, tree.edge_count
        improper = _improper_flags(tree)
        count = sum(improper)
        values = [None] * (3 * n)
        values[0::3] = map(labels.__getitem__, tree.parents[1:])
        values[1::3] = labels[1:]
        values[2::3] = map(names.__getitem__, improper[1:])
        values += count, n - count
        return ("(%d,%d): %s\n" * n + "impr=%d prop=%d") % tuple(values)
    return _write_lines(_operand_lines(args.tree), parse_tree, record)


def _cmd_phi(args) -> int:
    from .involution import flip_edge
    from .tree import edge_id, parse_tree, render_tree

    parent, child = _parse_edge_arg(args.edge)

    def flip(tree):
        return flip_edge(tree, edge_id(tree, parent, child))
    return _write_lines(_operand_lines(args.tree), parse_tree, flip,
                        render_tree)


def _cmd_bij(args) -> int:
    from .involution import from_increasing, to_increasing
    from .tree import parse_tree, render_tree

    step = (from_increasing if args.direction == "inverse"
            else lambda tree: to_increasing(tree, rooted=args.rooted))
    return _write_lines(_operand_lines(args.tree), parse_tree, step,
                        render_tree)


def _cmd_stirling(args) -> int:
    from .stirling import (blocks, format_permutation, parse_permutation,
                           stirling_to_tree, tree_to_stirling)
    from .tree import parse_tree, render_tree

    steps = {"to": (parse_tree, tree_to_stirling, format_permutation),
             "from": (parse_permutation, stirling_to_tree, render_tree),
             "blocks": (parse_permutation, lambda seq: "".join(
                 f"[{format_permutation(seq[a:b])}]" for a, b in blocks(seq)))}
    return _write_lines(_operand_lines(args.input), *steps[args.direction])


def _report(check: str, ok: bool, detail: str = "") -> int:
    """Write one verify line, ``<check> PASS|FAIL<detail>``; 1 on a failure."""
    _write_lines([f"{check} {'PASS' if ok else 'FAIL'}{detail}"])
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from .counting import (MAX_INCREASING_EDGES, MAX_LABELED_EDGES,
                           family_count, odd_double_factorial)
    from .polynomials import (MAX_SERIES_ORDER, edge_status_polynomial,
                              root_degree_polynomial, verify_closed_forms,
                              verify_egf_identities)

    order = MAX_SERIES_ORDER if args.order is None else args.order
    failures = 0
    started = time.perf_counter()
    # thm2 runs first, so a bad order is refused before any line is written,
    # and its lines are written last
    thm2 = (verify_egf_identities(order, force=args.force)
            if args.target in ("thm2", "all") else None)
    ns = range(MAX_LABELED_EDGES + 1) if args.n is None else [args.n]
    if args.target in ("counts", "all"):
        for n in ns:
            seen = edge_status_polynomial(n, force=args.force).eval(1, 1, 1)
            lhs = family_count(n).labeled  # (n+1)! C_n
            rhs = 2 ** n * odd_double_factorial(n)
            failures += _report(f"counts P n={n}", seen == lhs == rhs,
                                f" {seen} = {lhs} = {rhs}")
        for n in range(MAX_INCREASING_EDGES + 1) if args.n is None else ns:
            seen = root_degree_polynomial(n, force=args.force).eval(1, 1, 1)
            expect = family_count(n).increasing
            failures += _report(f"counts I n={n}", seen == expect,
                                f" {seen} = {expect}")
    if args.target in ("thm1", "all"):
        for n in ns:
            report = verify_closed_forms(n, force=args.force)
            if args.n is not None:
                _write_lines([f"P_{n} = {report.labeled}",
                              f"O_{n} = {report.rooted}"])
            failures += _report(f"thm1 n={n}", report.passed)
    if thm2 is not None:
        for name, ok in (("P", thm2.labeled_ok), ("O", thm2.rooted_ok),
                         ("S", thm2.degree_ok)):
            failures += _report(f"thm2 {name} order={order}", ok)
    print(f"elapsed {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0 if failures == 0 else 1


def _cmd_enum(args) -> int:
    from .counting import (MAX_INCREASING_EDGES, MAX_LABELED_EDGES,
                           _require_bound)
    from .families import _increasing_kids, _labelings, build_tree
    from .tree import _render_labelings, render_tree

    n = args.n
    if args.family in ("P", "O"):
        what = "labeled" if args.family == "P" else "root-1"
        _require_bound(n, MAX_LABELED_EDGES, args.force, f"{what} trees")
        # the text straight from the kernel, one skeleton per shape
        visits = _labelings(n, args.family == "O")
        lines = _render_labelings(visits)
    elif args.family == "I":
        _require_bound(n, MAX_INCREASING_EDGES, args.force, "increasing trees")
        visits = _increasing_kids(n)
        lines = map(render_tree, map(build_tree, visits))
    else:
        from .stirling import format_permutation, stirling_permutations
        _require_bound(n, MAX_INCREASING_EDGES, args.force,
                       "Stirling permutations")
        visits = stirling_permutations(n)
        lines = map(format_permutation, visits)
    if args.count_only:
        # count the kernel's visits: every object is visited, none is built
        return _write_lines([str(sum(1 for _ in visits))])
    return _write_lines(lines)


def _cmd_sample(args) -> int:
    from .families import sample_increasing_trees, sample_labeled_trees
    from .tree import render_tree

    maker = sample_labeled_trees if args.family == "P" else sample_increasing_trees
    return _write_lines(maker(args.n, args.seed, args.count), render_tree)


_TREE = ("tree", None, "tree text, or - for stdin")
# the one grammar: per command its help, handler, positionals (name, choices,
# help) and options (flag: int or bool for store_true, default, required, help)
_COMMANDS = {
    "classify": ("classify each edge as proper or improper", _cmd_classify,
                 [_TREE], {}),
    "phi": ("apply the edge involution once", _cmd_phi,
            [_TREE, ("edge", None, "edge as parent,child")], {}),
    "bij": ("bijection with increasing plane trees", _cmd_bij,
            [("direction", ["forward", "inverse"], None), _TREE],
            {"--rooted": (bool, False, False,
                          "root-1 mode: mark edges at vertex 1 with t")}),
    "stirling": ("bijection with Stirling permutations", _cmd_stirling,
                 [("direction", ["to", "from", "blocks"], None),
                  ("input", None, "tree text (to) or permutation (from, "
                                  "blocks); - for stdin")], {}),
    "verify": ("run the identity checks", _cmd_verify,
               [("target", ["thm1", "thm2", "counts", "all"], None)],
               {"--n": (int, None, False, "single n instead of the default sweep"),
                "--order": (int, None, False, "series truncation order for thm2"),
                "--force": (bool, False, False, "ignore the feasibility bounds")}),
    "enum": ("stream a whole family, one per line", _cmd_enum,
             [("family", ["P", "O", "I", "stirling"], None)],
             {"--n": (int, None, True, None),
              "--count-only": (bool, False, False, None),
              "--force": (bool, False, False, None)}),
    "sample": ("draw uniform random trees", _cmd_sample,
               [("family", ["P", "I"], None)],
               {"--n": (int, None, True, None), "--seed": (int, 0, False, None),
                "--count": (int, 1, False, None)}),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="planetrees", description=(
        "Labeled plane trees, increasing plane trees and Stirling "
        "permutations: bijections and exact identity checks."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(handler=handler)
        for name, choices, help in positionals:
            p.add_argument(name, choices=choices, help=help)
        for flag, (kind, default, required, help) in options.items():
            how = {"action": "store_true"} if kind is bool else {
                "type": int, "default": default, "required": required}
            p.add_argument(flag, help=help, **how)
    return parser


def _read_argv(argv):
    """``build_parser().parse_args(argv)`` for a well-formed argv; None for
    help, abbreviations, ``--n=5``, ``--``, ``--n -1`` or any error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positionals, options = _COMMANDS[argv[0]]
    values = {flag: default for flag, (_, default, required, _)
              in options.items() if not required}
    words, tokens = [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            words.append(token)
            continue
        kind = options.get(token, (None,))[0]
        text = "" if kind is bool else next(tokens, "-")
        if kind is None or text[:1] == "-":
            return None
        try:
            values[token] = True if kind is bool else int(text)
        except ValueError:
            return None
    if len(words) != len(positionals) or len(values) != len(options):
        return None
    for (name, choices, _), word in zip(positionals, words):
        if choices is not None and word not in choices:
            return None
        values[name] = word
    return SimpleNamespace(command=argv[0], handler=handler, **{
        name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        try:
            sys.stderr.close()
        except OSError:
            pass
        return 0
    except ValueError as exc:  # includes TreeParseError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: :func:`main` over ``sys.argv``, the start-up heap
    frozen first.  Exit, atexit handlers and stdio flushing are Python's."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
