#!/usr/bin/env python3
"""Build and run the iFDK time-to-volume benchmark.

    python3 perfbench/run.py --arrival-rate 40 \
        --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR, default `.bench_build` at the repository root, then
runs it with every argument given here. Cargo's output goes to stderr, so
stdout carries only the benchmark's report, whose last line is the JSON
result. Exits non-zero without a result line if the build fails (for
example when the repository's crates are not beside this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ifdk-perfbench")
    out_dir = os.path.join(target, "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
