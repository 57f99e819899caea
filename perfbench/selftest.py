"""Check the benchmark's output checks: each must pass a good output and count
one failure for a corrupted one.

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if a checker missed a corruption or
failed a good output.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_planetrees  # noqa: E402
from spans import untraced_library  # noqa: E402
from workloads import (WORKLOADS, Checks, InProcessCLI, check_pipe,  # noqa: E402
                       check_verify, verify_expected)


def verify_output(pt) -> str:
    """What ``verify all`` prints when every check passes."""
    lines = []
    for head, count in verify_expected(pt):
        if count is None:
            lines.append(f"{head} PASS")
        elif head.startswith("counts P"):
            lines.append(f"{head} PASS {count} = {count} = {count}")
        else:
            lines.append(f"{head} PASS {count} = {count}")
    return "\n".join(lines) + "\n"


def main() -> int:
    pt = import_planetrees()
    cases = []  # (name, run checks on a Checks, failures expected)

    good = verify_output(pt)

    def verify_case(code, text):
        return lambda c: check_verify(pt, c, code, text)

    cases += [
        ("verify good", verify_case(0, good), False),
        ("verify exit code", verify_case(1, good), True),
        ("verify FAIL line", verify_case(0, good.replace("PASS", "FAIL", 1)), True),
        ("verify wrong count",
         verify_case(0, good.replace("665280", "665281", 1)), True),
        ("verify missing line", verify_case(0, good.split("\n", 1)[1]), True),
    ]

    bigtree = WORKLOADS["bigtree"]
    inputs = [(n, pt.sample_labeled_tree(n, n), n + 1) for n in (20, 40)]
    lib = untraced_library(pt)
    broken = untraced_library(pt)
    broken.from_increasing = lambda tree: pt.PlaneTree(tree.root)  # no flips
    cases += [
        ("bigtree good", lambda c: bigtree.run(pt, lib, inputs, c), False),
        ("bigtree from_increasing skips flips",
         lambda c: bigtree.run(pt, broken, inputs, c), True),
    ]

    pipe = WORKLOADS["pipe"]
    stages = pipe.prepare(lib, 1)
    cli = InProcessCLI(pt)
    codes, outputs = {}, {}
    for stage, argv, source in stages:
        codes[stage], outputs[stage], _, _ = cli(stage, argv, source)

    def pipe_case(stage, old, new):
        changed = dict(outputs)
        changed[stage] = outputs[stage].replace(old, new, 1)
        assert changed[stage] != outputs[stage], (stage, old)
        return lambda c: check_pipe(c, codes, changed)

    cases += [
        ("pipe good", lambda c: check_pipe(c, codes, outputs), False),
        ("pipe bij inverse", pipe_case("bij_inverse", "(", "(9999,"), True),
        ("pipe classify impr", pipe_case("classify", "impr=", "impr=1"), True),
        ("pipe stirling blocks", pipe_case("stirling_blocks", "[", "[1 1]["), True),
        ("pipe exit code",
         lambda c: check_pipe(c, {**codes, "classify": 2}, outputs), True),
    ]

    missed = 0
    for name, run, expect_failure in cases:
        checks = Checks("selftest", 1)
        run(checks)
        ok = bool(checks.failures) == expect_failure and checks.attempted > 0
        missed += not ok
        print(f"{'ok' if ok else 'MISSED'} {name}: {checks.attempted} checks, "
              f"{len(checks.failures)} failed"
              + (f" ({checks.failures[0]})" if checks.failures else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
