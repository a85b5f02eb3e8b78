#!/usr/bin/env python3
"""Build the benchmark and schedtool from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build (dune's
shared cache off, so nothing is written outside the checkout); the
serve daemon's socket goes to .perfbench_tmp.  Build output goes to
stderr; the last line of stdout is the benchmark's JSON result.  The
exit code is the benchmark's: 0, or non-zero when the build or an
output check fails.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TMP_DIR = ".perfbench_tmp"
TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe", "./bin/schedtool.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return False


def main():
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(exe, "perfbench", "bench.exe"), *sys.argv[1:],
           "--schedtool", os.path.abspath(os.path.join(exe, "bin", "schedtool.exe")),
           "--tmp", TMP_DIR]
    # One CPU for the benchmark and the daemon it starts: every workload
    # is a closed loop with one thread busy at a time, so nothing runs in
    # parallel anyway, and no hand-off waits for an idle CPU to wake up.
    # The host-speed kernel then also runs on the CPU doing the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # its own process group, so nothing it starts outlives the run
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {TIMEOUT_S}s", file=sys.stderr)
        code = 1
    stop_group(proc.pid)
    proc.wait()
    return code


def stop_group(pgid):
    """Kill what is left of the benchmark's process group (a serve daemon
    after a crash, say) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
