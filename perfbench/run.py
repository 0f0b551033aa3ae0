#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (the shared dune cache
is disabled so nothing is written outside the checkout), then runs it
from the checkout root with the same arguments.  The last line of
standard output is the result object.  Exits non-zero when the build
fails, the run fails a correctness check, or the run overruns its time
limit.  See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_LIMIT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def main():
    build()
    try:
        done = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
