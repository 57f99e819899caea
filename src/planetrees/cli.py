"""Command-line interface.

Exit codes: 0 success (all verifications passed), 1 a verification found a
mismatch, 2 usage or parse error.  Wherever a tree or permutation operand
is expected, "-" reads standard input instead and processes every
nonempty line, so ``enum`` output pipes straight into ``classify``,
``bij`` or ``stirling``.  All stdout is deterministic for a fixed argv
(and seed); timing goes to stderr.

Each stage of a pipe is a fresh interpreter, so each handler imports the
modules its command runs and this module imports none: the text commands
load ``tree``, and ``verify`` counts without it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterator


def _operand_lines(operand: str) -> Iterator[str]:
    if operand == "-":
        # line by line as stdin arrives, so memory does not grow with the pipe
        for line in sys.stdin:
            for text in line.splitlines():
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
    return int(parts[0]), int(parts[1])


def _cmd_classify(args) -> int:
    from .tree import EdgeStatus, _improper_flags, edge_list, parse_tree

    names = {True: EdgeStatus.IMPROPER.value, False: EdgeStatus.PROPER.value}
    for line in _operand_lines(args.tree):
        tree = parse_tree(line)
        improper = _improper_flags(tree)
        count = sum(improper)
        edges = zip(edge_list(tree), improper[1:])
        record = [f"({parent},{child}): {names[flag]}\n"
                  for (_, parent, child), flag in edges]
        record.append(f"impr={count} prop={tree.edge_count - count}\n")
        # one write per tree: on an unbuffered stdout each print is two writes
        sys.stdout.write("".join(record))
    return 0


def _cmd_phi(args) -> int:
    from .involution import flip_edge
    from .tree import edge_id, parse_tree, render_tree

    parent, child = _parse_edge_arg(args.edge)
    for line in _operand_lines(args.tree):
        tree = parse_tree(line)
        print(render_tree(flip_edge(tree, edge_id(tree, parent, child))))
    return 0


def _cmd_bij(args) -> int:
    from .involution import from_increasing, to_increasing
    from .tree import parse_tree, render_tree

    for line in _operand_lines(args.tree):
        tree = parse_tree(line)
        if args.direction == "forward":
            out = to_increasing(tree, rooted=args.rooted)
        else:
            out = from_increasing(tree)
        print(render_tree(out))
    return 0


def _cmd_stirling(args) -> int:
    from .stirling import (blocks, format_permutation, parse_permutation,
                           stirling_to_tree, tree_to_stirling)
    from .tree import parse_tree, render_tree

    for line in _operand_lines(args.input):
        if args.direction == "to":
            print(format_permutation(tree_to_stirling(parse_tree(line))))
        elif args.direction == "from":
            print(render_tree(stirling_to_tree(parse_permutation(line))))
        else:  # blocks
            seq = parse_permutation(line)
            pieces = [format_permutation(seq[a:b]) for a, b in blocks(seq)]
            print("".join(f"[{piece}]" for piece in pieces))
    return 0


def _verify_thm1(ns, force: bool, show_polys: bool) -> int:
    from .polynomials import verify_closed_forms

    failures = 0
    for n in ns:
        report = verify_closed_forms(n, force=force)
        if show_polys:
            print(f"P_{n} = {report.labeled}")
            print(f"O_{n} = {report.rooted}")
        print(f"thm1 n={n} {'PASS' if report.passed else 'FAIL'}")
        failures += 0 if report.passed else 1
    return failures


def _verify_thm2(order: int, force: bool) -> int:
    from .polynomials import verify_egf_identities

    report = verify_egf_identities(order, force=force)
    for name, ok in (("P", report.labeled_ok), ("O", report.rooted_ok),
                     ("S", report.degree_ok)):
        print(f"thm2 {name} order={order} {'PASS' if ok else 'FAIL'}")
    return 0 if report.passed else 1


def _verify_counts(ns_labeled, ns_increasing, force: bool) -> int:
    from .counting import family_count, odd_double_factorial
    from .polynomials import edge_status_polynomial, root_degree_polynomial

    failures = 0
    for n in ns_labeled:
        seen = edge_status_polynomial(n, force=force).eval(1, 1, 1)
        lhs = family_count(n).labeled  # (n+1)! C_n
        rhs = 2 ** n * odd_double_factorial(n)
        ok = seen == lhs == rhs
        print(f"counts P n={n} {'PASS' if ok else 'FAIL'} "
              f"{seen} = {lhs} = {rhs}")
        failures += 0 if ok else 1
    for n in ns_increasing:
        seen = root_degree_polynomial(n, force=force).eval(1, 1, 1)
        expect = family_count(n).increasing
        ok = seen == expect
        print(f"counts I n={n} {'PASS' if ok else 'FAIL'} {seen} = {expect}")
        failures += 0 if ok else 1
    return failures


def _cmd_verify(args) -> int:
    from .counting import MAX_INCREASING_EDGES, MAX_LABELED_EDGES

    failures = 0
    started = time.perf_counter()
    ns = range(MAX_LABELED_EDGES + 1) if args.n is None else [args.n]
    if args.target in ("counts", "all"):
        ns_increasing = (range(MAX_INCREASING_EDGES + 1) if args.n is None
                         else ns)
        failures += _verify_counts(ns, ns_increasing, args.force)
    if args.target in ("thm1", "all"):
        failures += _verify_thm1(ns, args.force, show_polys=args.n is not None)
    if args.target in ("thm2", "all"):
        failures += _verify_thm2(args.order, args.force)
    elapsed = time.perf_counter() - started
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return 0 if failures == 0 else 1


def _cmd_enum(args) -> int:
    from .counting import (MAX_INCREASING_EDGES, MAX_LABELED_EDGES,
                           _require_bound)
    from .families import (_increasing_kids, _labelings, increasing_trees,
                           labeled_trees, root_one_trees)
    from .tree import render_tree

    n = args.n
    if args.family in ("P", "O"):
        _require_bound(n, MAX_LABELED_EDGES, args.force, "labeled trees")
        rooted = args.family == "O"
        visits = _labelings(n, rooted)
        items = root_one_trees(n) if rooted else labeled_trees(n)
        text = render_tree
    elif args.family == "I":
        _require_bound(n, MAX_INCREASING_EDGES, args.force, "increasing trees")
        visits = _increasing_kids(n)
        items = increasing_trees(n)
        text = render_tree
    else:
        from .stirling import format_permutation, stirling_permutations
        _require_bound(n, MAX_INCREASING_EDGES, args.force,
                       "Stirling permutations")
        visits = items = stirling_permutations(n)
        text = format_permutation
    if args.count_only:
        # count the kernel's visits: every object is visited, none is built
        print(sum(1 for _ in visits))
    else:
        for item in items:
            print(text(item))
    return 0


def _cmd_sample(args) -> int:
    from .families import sample_increasing_trees, sample_labeled_trees
    from .tree import render_tree

    if args.count < 1:
        raise ValueError("count must be >= 1")
    maker = sample_labeled_trees if args.family == "P" else sample_increasing_trees
    for tree in maker(args.n, args.seed, args.count):
        print(render_tree(tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planetrees",
        description="Labeled plane trees, increasing plane trees and "
                    "Stirling permutations: bijections and exact identity "
                    "checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify each edge as proper or improper")
    p.add_argument("tree", help="tree text, or - for stdin")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("phi", help="apply the edge involution once")
    p.add_argument("tree", help="tree text, or - for stdin")
    p.add_argument("edge", help="edge as parent,child")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("bij", help="bijection with increasing plane trees")
    p.add_argument("direction", choices=["forward", "inverse"])
    p.add_argument("tree", help="tree text, or - for stdin")
    p.add_argument("--rooted", action="store_true",
                   help="root-1 mode: mark edges at vertex 1 with t")
    p.set_defaults(handler=_cmd_bij)

    p = sub.add_parser("stirling", help="bijection with Stirling permutations")
    p.add_argument("direction", choices=["to", "from", "blocks"])
    p.add_argument("input", help="tree text (to) or permutation (from, blocks); - for stdin")
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("verify", help="run the identity checks")
    p.add_argument("target", choices=["thm1", "thm2", "counts", "all"])
    p.add_argument("--n", type=int, default=None,
                   help="single n instead of the default sweep")
    p.add_argument("--order", type=int, default=10,
                   help="series truncation order for thm2")
    p.add_argument("--force", action="store_true",
                   help="ignore the feasibility bounds")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enum", help="stream a whole family, one per line")
    p.add_argument("family", choices=["P", "O", "I", "stirling"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("sample", help="draw uniform random trees")
    p.add_argument("family", choices=["P", "I"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
