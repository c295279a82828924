#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload failover --seed 1 --seconds 30 --trace 0

The arguments go to perfbench/main.exe unchanged; see perfbench/README.md.
Build output goes to stderr, so the last stdout line is the result JSON.
Exits non-zero without a result when the tree holds no OCaml project to
build the benchmark from.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    # opam installs put dune on PATH only through the login profile.
    try:
        found = subprocess.run(
            ["bash", "-lc", "command -v dune"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return found or None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project or lib/ here)\n")
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    run = subprocess.run(
        [os.path.join("_build", "default", "perfbench", "main.exe")] + sys.argv[1:],
        timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
