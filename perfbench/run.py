#!/usr/bin/env python3
"""Build and run the distcommit host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 42 --seconds 10 --trace 0

Builds the `perfbench` package (release profile) into
$CARGO_TARGET_DIR, default `.bench_build` under the current directory,
then runs it with the given arguments. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
