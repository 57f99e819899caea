"""The planetrees benchmark.

    python3 perfbench/run.py --workload {verify,bigtree,pipe,all} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it sets up, then repeats checked passes of the workload
for about S seconds and reports every end-to-end metric, with tracing off;
every time is normalized to the machine's speed by the reference units of
``calibrate.py``.
With ``--trace 1`` it makes one untraced and one traced pass, plus the
scaling sweep, and reports every per-layer metric; the spans go to
``.perfbench_out/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scaling  # noqa: E402
from calibrate import Meter  # noqa: E402
from spans import Tracer, layer_metrics, untraced_library  # noqa: E402
from workloads import (ROOT, SRC, WORKLOADS, Checks, InProcessCLI,  # noqa: E402
                       Launcher, SubprocessCLI)

SETUP_REPEATS = 15
OUT_DIR = ROOT / ".perfbench_out"


def import_planetrees():
    """Import planetrees from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import planetrees
        import planetrees.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import planetrees from {SRC}: {exc}")
    where = Path(planetrees.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: planetrees was imported from {where}, not {SRC}")
    return planetrees


def pin_to_one_cpu():
    """Keep this process, the launcher and every stage on one CPU, so that
    the reference units and the work they normalize share it."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": commit, "load_before": os.getloadavg()}


def set_up(workload, pt, seed, checks, launcher, tmp):
    """Median over repeats of a fresh interpreter importing planetrees plus
    making the workload's inputs, each normalized by the reference units
    run around it; returns (setup_s, raw seconds of each repeat, inputs).
    The fresh interpreter imports what every CLI stage imports, so it also
    checks that the stages run this checkout's ``src/``."""
    lib = untraced_library(pt)
    meter = launcher.meter
    out = tmp / "import.out"
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = meter.reading()
        start = time.perf_counter()
        code, _, _ = launcher.run(
            ["-c", "import planetrees.cli; print(planetrees.cli.__file__)"],
            None, out, tmp / "import.err")
        with meter:
            inputs = workload.prepare(lib, seed)
        raw.append(time.perf_counter() - start)
        times.append(meter.normalized(raw[-1], before)[0])
        where = Path(out.read_text().strip()).resolve()
        checks.expect(code == 0 and where.is_relative_to(SRC.resolve()), "setup",
                      f"a fresh interpreter imported planetrees from {where}, "
                      f"exit code {code}")
    return statistics.median(times), raw, inputs


def measured_run(workload, pt, seed, seconds, launcher, tmp):
    """End-to-end metrics, tracing off."""
    checks = Checks(workload.name, seed)
    setup_s, setup_raw, inputs = set_up(workload, pt, seed, checks, launcher, tmp)
    lib = untraced_library(pt)
    meter = launcher.meter
    # the launcher slices CLI stages; in-process work is sliced here
    slicer = nullcontext() if workload.runs_cli else meter
    cli = SubprocessCLI(launcher, tmp) if workload.runs_cli else None
    walls, raw, speeds = [], [], []
    peak = 0.0
    start = time.perf_counter()
    while True:
        before = meter.reading()
        pass_start = time.perf_counter()
        with slicer:
            result = workload.run(pt, lib, inputs, checks, cli)
        raw.append(time.perf_counter() - pass_start)
        wall, speed = meter.normalized(raw[-1], before)
        walls.append(wall)
        speeds.append(speed)
        peak = max(peak, result.peak_rss_mb)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(raw) > seconds:
            break
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "edges_per_s": (result.edges / wall, "1/s"),
        "lines_per_s": (result.lines / wall, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {"passes": len(walls), "pass_wall_s": [round(w, 4) for w in walls],
              "pass_raw_wall_s": [round(w, 4) for w in raw],
              "pass_speed": [round(s, 3) for s in speeds],
              "setup_raw_s": round(statistics.median(setup_raw), 4),
              "edges_per_pass": result.edges, "lines_per_pass": result.lines}
    return checks, metrics, detail


UNITS = (("_per_s", "1/s"), ("_us", "us"), ("us_per_edge", "us"),
         ("_mb", "MB"), ("_s", "s"), ("slope", "1"))


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in UNITS if metric.endswith(suffix)),
                "count")


def traced_run(workload, pt, seed, launcher, tmp):
    """Per-layer metrics: an untraced and a traced in-process pass, the
    untraced subprocess stages of CLI workloads, and the scaling sweep."""
    checks = Checks(workload.name, seed)
    tracer = Tracer(pt)
    inputs = workload.prepare(tracer.library(pt), seed)
    stages = {}
    if workload.runs_cli:
        stages = workload.run(pt, None, inputs, checks,
                              SubprocessCLI(launcher, tmp)).stages
    untraced = workload.run(pt, untraced_library(pt), inputs, checks,
                            InProcessCLI(pt)).wall_s
    with tracer.patched(pt):
        traced = workload.run(pt, tracer.library(pt), inputs, checks,
                              InProcessCLI(pt, tracer)).wall_s
    sweep = scaling.sweep(pt, seed)
    values = layer_metrics(tracer, stages,
                           {name: s["slope"] for name, s in sweep.items()},
                           (untraced, traced))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "sweep": sweep, "spans": len(tracer.spans)}
    OUT_DIR.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT_DIR / f"trace-{workload.name}-seed{seed}.json", "w") as out:
        json.dump({"workload": workload.name, "seed": seed, "detail": detail,
                   "metrics": values,
                   "span_fields": ["name", "start_s", "end_s", "parent", "op",
                                   "items", "work"],
                   "spans": [[n, s - origin, e - origin, p, op, i, w]
                             for n, s, e, p, op, i, w in tracer.spans]},
                  out, separators=(",", ":"))
    return checks, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stop like an exception, so that started processes are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pt = import_planetrees()
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    merged = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        with Launcher(Meter()) as launcher:
            for name in names:
                workload = WORKLOADS[name]
                if args.trace:
                    checks, metrics, detail = traced_run(
                        workload, pt, args.seed, launcher, Path(tmp))
                else:
                    checks, metrics, detail = measured_run(
                        workload, pt, args.seed, args.seconds, launcher, Path(tmp))
                for failure in checks.failures[:20]:
                    print(f"FAILED {failure}", file=sys.stderr)
                attempted += checks.attempted
                failed += len(checks.failures)
                ratio = len(checks.failures) / max(checks.attempted, 1)
                print(f"{name}: checks={checks.attempted} "
                      f"failed={len(checks.failures)} fail_ratio={ratio:.6g} "
                      f"{json.dumps(detail)}")
                for metric, (value, unit) in metrics.items():
                    print(f"  {metric} = {value:.6g} {unit}")
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    merged[key] = {"value": value, "unit": unit}
    env["load_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
