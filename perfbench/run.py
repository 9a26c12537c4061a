#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <train_fekf|serve_fleet|md_deepmd> \
        --seed <n> --seconds <s> --trace <0|1> [serving options]

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build
output goes to stderr; stdout carries only the benchmark's own lines,
the last of which is the JSON result. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_stamp():
    """The checkout's git revision and dirty flag, when it is a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return "none", "unknown"
        status = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True, timeout=30)
        return rev.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "none", "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    rev, dirty = git_stamp()
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--git-rev", rev, "--git-dirty", dirty], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
