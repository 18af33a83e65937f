#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
jps_serve daemon and the jps_perfbench load generator from source into
.bench_build/ (later calls rebuild only what changed); build output goes to
stderr.  The load generator's last stdout line is the result JSON.  The
exit code is non-zero when the build or any check fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["jps_serve_tool", "jps_perfbench"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "jps_perfbench")
    args = sys.argv[1:]
    if args != ["--self-test"]:
        args += ["--daemon", os.path.join(BUILD, "jps", "tools", "jps_serve")]
    child = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        print("perfbench: run did not finish", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
