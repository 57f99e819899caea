"""The three workloads: their inputs, one checked pass, and the output checks.

``verify`` and ``pipe`` run the command-line interface, as subprocesses for
the end-to-end metrics and in-process through ``planetrees.cli.main`` for
the traced run.  ``bigtree`` calls the library in-process.  A pass calls
the library through ``lib``, which the traced run swaps for span wrappers.
"""

from __future__ import annotations

import io
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Checks:
    """Output checks of one run; a failure names its workload, op and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, op: str, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(
                f"{self.workload} seed={self.seed} op={op}: {what}")


@dataclass
class PassResult:
    """One checked pass: its wall time, the work it carried and its peak
    RSS, plus (wall s, peak RSS MB) per CLI stage where it ran any."""

    wall_s: float
    edges: int
    lines: int
    peak_rss_mb: float
    stages: dict = field(default_factory=dict)


# ---- running the CLI ----

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Runs ``python <args>`` to completion through launcher.py, which
    reaps each process with ``wait4`` and slices it with reference units;
    see there why.  The units go into ``meter``."""

    def __init__(self, meter: Meter):
        self.meter = meter
        # its own process group, so that an interrupted run can stop the
        # launcher and the stage it is waiting for together
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=cli_env(), start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()  # the launcher exits once its stage ends
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args, stdin_path, stdout_path, stderr_path):
        """(exit code, wall s, peak RSS MB) of one process."""
        fields = [str(stdin_path or os.devnull), str(stdout_path),
                  str(stderr_path), sys.executable, *args]
        self.proc.stdin.write("\0".join(fields) + "\n")
        self.proc.stdin.flush()
        code, wall, rss_kib, ref_s, refs, paused_s = self.proc.stdout.readline().split()
        self.meter.add(float(ref_s), int(refs), float(paused_s))
        return int(code), float(wall), int(rss_kib) / 1024


class SubprocessCLI:
    """Each stage is one ``python -m planetrees`` process; a stage's stdin
    is the file the stage it reads from wrote."""

    def __init__(self, launcher: Launcher, tmp: Path):
        self.launcher = launcher
        self.tmp = tmp

    def __call__(self, stage, argv, source):
        out = self.tmp / f"{stage}.out"
        err = self.tmp / f"{stage}.err"
        stdin = self.tmp / f"{source}.out" if source else None
        code, wall, rss = self.launcher.run(["-m", "planetrees", *argv],
                                            stdin, out, err)
        text = out.read_text()
        if code:
            text += err.read_text()
        return code, text, wall, rss


class InProcessCLI:
    """Each stage is one ``planetrees.cli.main(argv)`` call with stdin and
    stdout redirected; with a tracer the call is a ``cli.main`` span."""

    def __init__(self, pt, tracer=None):
        self.pt = pt
        self.tracer = tracer
        self.outputs: dict[str, str] = {}

    def __call__(self, stage, argv, source):
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(self.outputs.get(source, ""))
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is None:
                    code = self.pt.cli.main(argv)
                else:
                    with self.tracer.span("cli.main"):
                        code = self.pt.cli.main(argv)
        finally:
            sys.stdin = saved_stdin
        wall = time.perf_counter() - start
        text = out.getvalue()
        self.outputs[stage] = text
        return code, text + (err.getvalue() if code else ""), wall, 0.0


def self_peak_rss_mb() -> float:
    """This process's own high-water RSS.  ``ru_maxrss`` would also count
    whatever process started this one (see launcher.py)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


# ---- verify: the CLI default sweep ----

def verify_expected(pt):
    """(line head, expected family count or None) for every output line."""
    rows = []
    for n in range(pt.MAX_LABELED_EDGES + 1):
        rows.append((f"counts P n={n}", pt.family_count(n).labeled))
    for n in range(pt.MAX_INCREASING_EDGES + 1):
        rows.append((f"counts I n={n}", pt.family_count(n).increasing))
    for n in range(pt.MAX_LABELED_EDGES + 1):
        rows.append((f"thm1 n={n}", None))
    for name in "POS":
        rows.append((f"thm2 {name} order=10", None))
    return rows


def check_verify(pt, checks: Checks, code: int, text: str) -> None:
    checks.expect(code == 0, "verify", f"exit code {code}")
    lines = text.splitlines()
    expected = verify_expected(pt)
    checks.expect(len(lines) == len(expected), "verify",
                  f"{len(lines)} lines, expected {len(expected)}")
    seen = {}  # line head -> (status, the numbers after it)
    for line in lines:
        words = line.split()
        for i, word in enumerate(words):
            if word in ("PASS", "FAIL"):
                seen[" ".join(words[:i])] = (word, words[i + 1::2])
                break
    for head, count in expected:
        status, numbers = seen.get(head, ("missing", []))
        checks.expect(status == "PASS", head, f"status {status}")
        if count is not None:
            checks.expect(bool(numbers) and set(numbers) == {str(count)}, head,
                          f"counts {numbers} != family_count {count}")


def verify_work(pt):
    """(edges, lines) one sweep carries: the edges of every tree and labeling
    it enumerates (counts: P_n and I_n; thm1 and the enumerated part of thm2:
    P_n, R_n and I_n for n up to the labeled bound), and its output lines."""
    edges = 0
    for n in range(pt.MAX_LABELED_EDGES + 1):
        c = pt.family_count(n)
        edges += n * (c.labeled + 2 * (c.labeled + c.root_one + c.increasing))
    for n in range(pt.MAX_INCREASING_EDGES + 1):
        edges += n * pt.family_count(n).increasing
    return edges, len(verify_expected(pt))


class Verify:
    name = "verify"
    runs_cli = True

    def prepare(self, lib, seed):
        return None  # no randomness: the seed is recorded and otherwise ignored

    def run(self, pt, lib, inputs, checks, cli) -> PassResult:
        start = time.perf_counter()
        code, text, stage_wall, rss = cli("verify", ["verify", "all"], None)
        check_verify(pt, checks, code, text)
        wall = time.perf_counter() - start
        edges, lines = verify_work(pt)
        return PassResult(wall, edges, lines, rss, {"verify": (stage_wall, rss)})


# ---- bigtree: few large trees through both chains ----

BIGTREE_SIZES = (1000, 2000)


def random_tags(pt, tree, seed: int):
    rng = random.Random(seed)
    return pt.PlaneTree(tree.root, {eid: rng.choice("xy")
                                    for eid in range(tree.edge_count)})


class Bigtree:
    name = "bigtree"
    runs_cli = False

    def prepare(self, lib, seed):
        rng = random.Random(seed)
        return [(n, lib.sample_labeled_tree(n, rng.randrange(2 ** 32)),
                 rng.randrange(2 ** 32)) for n in BIGTREE_SIZES]

    def run(self, pt, lib, inputs, checks, cli=None) -> PassResult:
        start = time.perf_counter()
        for n, labeled, seed in inputs:
            with lib.span("bigtree.labeled_chain"):
                op = f"labeled n={n}"
                parsed = lib.parse_tree(lib.render_tree(labeled))
                checks.expect(parsed == labeled, op, "parse(render(t)) != t")
                tagged = lib.to_increasing(parsed)
                checks.expect(lib.is_increasing(tagged), op,
                              "to_increasing output is not increasing")
                x_tags = sum(1 for tag in tagged.tags.values() if tag == "x")
                improper = len(lib.improper_edges(parsed))
                checks.expect(x_tags == improper, op,
                              f"{x_tags} x-tags but {improper} improper edges")
                checks.expect(lib.from_increasing(tagged) == labeled, op,
                              "from_increasing(to_increasing(t)) != t")
                plain = pt.PlaneTree(tagged.root)
                walked = lib.stirling_to_tree(lib.tree_to_stirling(plain))
                checks.expect(lib.render_tree(walked) == lib.render_tree(plain), op,
                              "stirling_to_tree(tree_to_stirling(t)) != t")

            with lib.span("bigtree.sampler_chain"):
                op = f"sampler n={n} seed={seed}"
                sampled = lib.sample_increasing_tree(n, seed)
                checks.expect(lib.is_increasing(sampled), op,
                              "sampled tree is not increasing")
                tagged = random_tags(pt, sampled, seed)
                checks.expect(lib.to_increasing(lib.from_increasing(tagged)) == tagged,
                              op, "to_increasing(from_increasing(t)) != t")
        wall = time.perf_counter() - start
        edges = 2 * sum(n for n, _, _ in inputs)
        return PassResult(wall, edges, len(inputs), self_peak_rss_mb())


# ---- pipe: many small trees through eight CLI stages ----

PIPE_EDGES = 30
PIPE_LINES = 1000


def pipe_stages(seed: int):
    """(stage, argv, stage whose output is the stdin) in run order."""
    size = ["--n", str(PIPE_EDGES), "--seed", str(seed), "--count", str(PIPE_LINES)]
    return [
        ("sample_p", ["sample", "P", *size], None),
        ("bij_forward", ["bij", "forward", "-"], "sample_p"),
        ("bij_inverse", ["bij", "inverse", "-"], "bij_forward"),
        ("classify", ["classify", "-"], "bij_inverse"),
        ("sample_i", ["sample", "I", *size], None),
        ("stirling_to", ["stirling", "to", "-"], "sample_i"),
        ("stirling_from", ["stirling", "from", "-"], "stirling_to"),
        ("stirling_blocks", ["stirling", "blocks", "-"], "stirling_to"),
    ]


def root_degree(text: str) -> int:
    depth = degree = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth == 1:
                degree = 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            degree += 1
    return degree


def check_pipe(checks: Checks, codes: dict, outputs: dict) -> None:
    for stage, code in codes.items():
        checks.expect(code == 0, stage, f"exit code {code}")
    lines = {stage: text.splitlines() for stage, text in outputs.items()}
    for stage in ("sample_p", "bij_forward", "bij_inverse", "sample_i",
                  "stirling_to", "stirling_from", "stirling_blocks"):
        checks.expect(len(lines[stage]) == PIPE_LINES, stage,
                      f"{len(lines[stage])} lines, expected {PIPE_LINES}")
    checks.expect(outputs["bij_inverse"] == outputs["sample_p"], "bij_inverse",
                  "output differs from the sample P output")
    checks.expect(outputs["stirling_from"] == outputs["sample_i"], "stirling_from",
                  "output differs from the sample I output")
    improper = [line for line in lines["classify"] if line.startswith("impr=")]
    checks.expect(len(improper) == PIPE_LINES, "classify",
                  f"{len(improper)} impr= lines, expected {PIPE_LINES}")
    for i, (stats, tagged) in enumerate(zip(improper, lines["bij_forward"])):
        impr = stats.split()[0][len("impr="):]
        checks.expect(impr == str(tagged.count(":x")), f"classify line {i + 1}",
                      f"impr={impr} but bij forward has {tagged.count(':x')} x-tags")
    for i, (found, tree) in enumerate(zip(lines["stirling_blocks"], lines["sample_i"])):
        count = found.count("[")
        checks.expect(count == root_degree(tree), f"stirling_blocks line {i + 1}",
                      f"{count} blocks but root degree {root_degree(tree)}")


class Pipe:
    name = "pipe"
    runs_cli = True

    def prepare(self, lib, seed):
        return pipe_stages(seed)  # the sample stages make the trees

    def run(self, pt, lib, inputs, checks, cli) -> PassResult:
        start = time.perf_counter()
        codes, outputs, stages = {}, {}, {}
        for stage, argv, source in inputs:
            code, text, wall, rss = cli(stage, argv, source)
            codes[stage], outputs[stage], stages[stage] = code, text, (wall, rss)
        check_pipe(checks, codes, outputs)
        wall = time.perf_counter() - start
        peak = max(rss for _, rss in stages.values())
        return PassResult(wall, 2 * PIPE_LINES * PIPE_EDGES, PIPE_LINES, peak, stages)


WORKLOADS = {w.name: w for w in (Verify(), Bigtree(), Pipe())}
