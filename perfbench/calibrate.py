"""Reference units interleaved with the measured work, to take the machine's
own speed out of the timings.

On a shared machine other tenants slow the CPU by up to about 2x, for a
fraction of a second to minutes at a time, and a timing of the program
moves with them.  So the benchmark runs a fixed unit of pure-Python work,
independent of planetrees, every ``SLICE_S`` seconds of measured work, and
divides each measured time by the speed the units saw while it ran:

    normalized = (raw wall time - time paused for units)
                 * REFERENCE_S / (mean time of one unit)

A change to the program moves the normalized time as it moves the raw
one; a change in machine speed moves the units too and cancels.  Work in
another process (a CLI stage) is sliced by ``launcher.py``, which stops the
process with SIGSTOP, runs a unit and continues it; work in this process is
sliced by a SIGALRM timer whose handler runs the unit.

This module imports only ``gc``, ``signal`` and ``time``, so that the
launcher stays small.
"""

import gc
import signal
import time

# A fixed scale: about one unit's time on an undisturbed vCPU of the
# machine the benchmark was built on (Intel Xeon, Python 3.11), where the
# fastest runs measured a speed of about 0.95.  Normalized times are seconds
# on a machine where one unit takes this long.
REFERENCE_S = 0.0105
SLICE_S = 0.1
ROUNDS = 24
EXPECTED = 561439  # what reference_unit returns; checked on every call


class _Node:
    __slots__ = ("label", "children")

    def __init__(self, label: int, children: tuple = ()):
        self.label = label
        self.children = children


def _preorder(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for _, child in reversed(node.children))


def reference_unit() -> int:
    """Fixed work with the library's mix: an immutable plane tree grown by
    leaf insertion from a fixed pseudo-random sequence (each insertion
    rebuilds the path to the new leaf), walked by a generator, indexed by
    ``id`` and rendered to text, then dict, tuple and small-int churn."""
    seed = 12345
    acc = 0
    for _ in range(ROUNDS):
        root = _Node(0)
        for label in range(1, 100):
            path = []
            node = root
            while node.children and seed % 3:
                seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
                at = seed % len(node.children)
                path.append((node, at))
                node = node.children[at][1]
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
            pos = seed % (len(node.children) + 1)
            grown = _Node(node.label, node.children[:pos]
                          + ((label, _Node(label)),) + node.children[pos:])
            for parent, at in reversed(path):
                ch = parent.children
                grown = _Node(parent.label,
                              ch[:at] + ((ch[at][0], grown),) + ch[at + 1:])
            root = grown
        order = list(_preorder(root))
        index = {id(node): i for i, node in enumerate(order)}
        text = ",".join(str(node.label) for node in order)
        acc += sum(index[id(node)] * len(node.children) for node in order)
        acc += len(text)
        counts = {}
        for i in range(200):
            key = (i % 17, i % 5)
            counts[key] = counts.get(key, 0) + i
        acc += sum(counts.values())
    return acc


def timed_unit() -> float:
    """Seconds one reference unit took.  The cyclic garbage collector is
    off meanwhile: the unit makes no cycles, and a collection it triggered
    would time the measured program's heap, not the unit."""
    gc.disable()
    try:
        start = time.perf_counter()
        result = reference_unit()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference unit returned {result}, not {EXPECTED}")
    return elapsed


class Meter:
    """Reference units run so far, their total time, and the wall time the
    measured work was paused for them (units plus stopping and resuming)."""

    def __init__(self):
        self.ref_s = 0.0
        self.refs = 0
        self.paused_s = 0.0
        self._slicing = False

    def add(self, ref_s: float, refs: int, paused_s: float) -> None:
        self.ref_s += ref_s
        self.refs += refs
        self.paused_s += paused_s

    def reading(self) -> tuple:
        return self.ref_s, self.refs, self.paused_s

    def normalized(self, raw_s: float, since: tuple) -> tuple:
        """(normalized seconds, speed) of work that took ``raw_s`` of wall
        time since ``since``, a :meth:`reading`; speed is the mean unit
        time over ``REFERENCE_S``, so 1.5 means 1.5x slower."""
        ref_s, refs, paused_s = (now - then for now, then
                                 in zip(self.reading(), since))
        if refs == 0:
            raise RuntimeError("no reference unit ran during the measured work")
        speed = ref_s / refs / REFERENCE_S
        return (raw_s - paused_s) / speed, speed

    def _tick(self, signum, frame):
        start = time.perf_counter()
        ref_s = timed_unit()
        if self._slicing:
            signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        self.add(ref_s, 1, time.perf_counter() - start)

    def __enter__(self):
        """Slice work in this process: one unit now, then one every
        ``SLICE_S`` seconds of work until the block ends."""
        self._slicing = True
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        self._slicing = False  # a tick already due must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
