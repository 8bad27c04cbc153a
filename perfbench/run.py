#!/usr/bin/env python3
"""Build and run the end-to-end verdict benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configure once, then build both targets; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def tree_commit():
    """The git commit of the checkout, or "unknown" outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("no llm4vv sources next to perfbench/; run from a full "
                    "checkout")
    if not build():
        return fail("build failed")
    if "--self-test" in argv:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    command = [os.path.join(BUILD, "perfbench")] + argv + [
        "--commit", tree_commit()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
