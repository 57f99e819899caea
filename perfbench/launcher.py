"""Start commands for the benchmark and report each one's exit code, wall
time, peak RSS and the reference units run while it ran.

Linux carries the high-water RSS of the process that starts a child into
the child's ``ru_maxrss`` at exec, so a stage started by the benchmark
process would report the benchmark's RSS whenever that is the larger.  This
process imports nothing beyond what the interpreter already holds and
``calibrate.py``, and stays smaller than any stage, so ``wait4`` gives each
stage's own peak.

It runs one reference unit (see ``calibrate.py``) before it starts a
command, and one every ``SLICE_S`` seconds the command runs, with the
command stopped by SIGSTOP meanwhile.  The wall time it reports leaves the
stops out.

Protocol, one line per command on stdin: stdin path, stdout path, stderr
path, then argv, separated by NUL.  One line back per command, separated by
spaces: exit code, wall seconds, ``ru_maxrss`` in KiB, seconds spent in
reference units, their number, and seconds the command was paused for them.
"""

import os
import select
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import SLICE_S, timed_unit  # noqa: E402


def run_sliced(argv, fds):
    ref_s = timed_unit()
    refs = 1
    paused = ref_s
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(fds)])
    pidfd = os.pidfd_open(pid)
    wall = 0.0
    resumed = time.perf_counter()
    try:
        while True:
            if select.select([pidfd], [], [], SLICE_S)[0]:
                _, status, usage = os.wait4(pid, 0)
                wall += time.perf_counter() - resumed
                break
            os.kill(pid, signal.SIGSTOP)
            stopped = time.perf_counter()
            wall += stopped - resumed
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the stop
                break
            ref_s += timed_unit()
            refs += 1
            os.kill(pid, signal.SIGCONT)
            resumed = time.perf_counter()
            paused += resumed - stopped
    finally:
        os.close(pidfd)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, ref_s, refs, paused


def main():
    for line in sys.stdin:
        stdin_path, stdout_path, stderr_path, *argv = line.rstrip("\n").split("\0")
        fds = [os.open(stdin_path, os.O_RDONLY),
               os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        try:
            result = run_sliced(argv, fds)
        finally:
            for fd in fds:
                os.close(fd)
        print(*map(repr, result), flush=True)


if __name__ == "__main__":
    main()
