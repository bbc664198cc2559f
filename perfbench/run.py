#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload bpf-sat --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune's release profile into
.bench_build/ at the repository root, then replaces this process with the
benchmark, passing every argument through.  Exits non-zero without running
anything when the build fails (e.g. outside a full checkout).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROFILE = "release"
TARGET = "./perfbench/perfbench.exe"


def git_rev():
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    # No shared dune cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", PROFILE, TARGET],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    env = dict(os.environ, PERFBENCH_PROFILE=PROFILE, PERFBENCH_GIT_REV=git_rev())
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
