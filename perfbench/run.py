#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  dune builds perfbench/main.exe (its output
goes to stderr, so the result stays the last line of stdout), then the
executable runs with the same arguments and its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/main.exe"], stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
