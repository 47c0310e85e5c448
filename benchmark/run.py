#!/usr/bin/env python3
"""One benchmark run: build the `e2e` binary from source, run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Everything it writes stays inside the
checkout: build output under $CARGO_TARGET_DIR (default target/e2e-bench),
durable_site's scratch directories under <target>/e2e-tmp (removed again),
and, with --trace 1, the span file benchmark/results/trace-<workload>.json.
The last line of standard output is the result object; the exit code is
non-zero if the build, any operation or any correctness check failed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(os.path.join(ROOT, configured))
    return os.path.join(ROOT, "target", "e2e-bench")


def build(target):
    """Builds the release binary; cargo's own up-to-date check makes every
    run after the first a no-op."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"run.py: build failed ({built.returncode})")
    return os.path.join(target, "release", "e2e")


def main():
    target = target_dir()
    binary = build(target)
    tmp = os.path.join(target, "e2e-tmp")
    cmd = [binary, *sys.argv[1:], "--tmp-dir", tmp,
           "--out-dir", os.path.join(HERE, "results")]
    try:
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        # The binary removes its own scratch directories, also when it
        # panics; this catches what a kill would leave behind.
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
