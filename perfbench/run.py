#!/usr/bin/env python3
"""Build the ProvMark benchmark program from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Every argument is passed to perfbench.exe (see perfbench/README.md).  The
build goes to the checkout's _build directory with the dune cache off, so
nothing is written outside the checkout.  The exit code is dune's when
the build fails, else the benchmark program's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        sys.stderr.write("perfbench: %s is not a ProvMark checkout (no dune-project or lib/)\n" % ROOT)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
