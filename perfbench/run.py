#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-8n --seed 42 --seconds 20 --trace 0

The script builds perfbench/perfbench.exe with dune (into _build/), then
runs it with the given arguments and the pinned reference results.  The
benchmark's last line of standard output is one JSON object; its exit
status is non-zero when a correctness check fails.  The metric catalogue
is perfbench/METRICS.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
REFERENCE = os.path.join(HERE, "reference.json")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        sys.stderr.write(
            "perfbench: %s is not the simulator's source tree "
            "(no dune-project or lib/)\n" % ROOT
        )
        return 2
    dune = dune_command()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    # Build output goes to stderr: standard output ends with the result.
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--build-dir", "_build",
                "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    run = subprocess.run([EXE, "--reference", REFERENCE] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
