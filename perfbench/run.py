#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <hot-keys|ycsb-shift|write-burst> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
`$CARGO_TARGET_DIR` (default `perfbench/target`); stores, temporary files
and the traced run's spans go to `.perfbench/` at the root. The last line
of standard output is the run's JSON result; everything else goes to
standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    work = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target, TMPDIR=tmp)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--work", work], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
