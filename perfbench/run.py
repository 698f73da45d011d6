#!/usr/bin/env python3
"""Builds the benchmark and the hard-serve binary, then runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|replay|serve --seed N \
        --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; the benchmark's JSON result is the last line of
standard output. The exit code is the benchmark's, or 1 if a build fails.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for build in (
        cargo + ["--manifest-path", "perfbench/Cargo.toml"],
        cargo + ["-p", "hard-serve", "--bin", "hard-serve"],
    ):
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(build), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:]]
    bench += ["--serve-bin", os.path.join(release, "hard-serve")]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
