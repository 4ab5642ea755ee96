#!/usr/bin/env python3
"""Build and run the bwclusterd reactor benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload query_live --seed 1 --seconds 10 --trace 0

Builds perfbench/bwcbench.exe with dune (dune's shared cache off, so
nothing is written outside the checkout), then runs it with the same
arguments.  The last line of standard output is the result JSON; the
exit code is non-zero when the build or any correctness check fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bwcbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ missing)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bwcbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
