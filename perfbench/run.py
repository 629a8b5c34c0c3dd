#!/usr/bin/env python3
"""Build the iotax release binaries and the benchmark harness offline, then
run one benchmark workload.

    python3 perfbench/run.py --workload taxonomy-theta-2k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test      # the harness's own tests, tiny traces

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); generated traces go to `.bench_work` and are
removed when the run ends. The last line of standard output is the run's
JSON result; everything else (cargo, progress) goes to standard error.
"""

import os
import subprocess
import sys

BIN_PACKAGES = ["-p", "iotax-cli", "-p", "iotax-report"]


def build(root, target, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo writes diagnostics to stderr; keep stdout for the result line.
    return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("perfbench: run from a full iotax checkout (Cargo.toml and crates/ missing)",
              file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if build(root, target, BIN_PACKAGES) != 0:
        print("perfbench: building the iotax binaries failed", file=sys.stderr)
        return 3
    bin_dir = os.path.join(target, "release")
    if sys.argv[1:] == ["--self-test"]:
        env = dict(os.environ, CARGO_TARGET_DIR=target, IOTAX_BIN_DIR=bin_dir)
        cmd = ["cargo", "test", "--release", "--offline", "--quiet"] + manifest
        return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
    if build(root, target, manifest) != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return 3
    harness = os.path.join(bin_dir, "iotax-perfbench")
    cmd = [harness] + sys.argv[1:] + [
        "--bin-dir", bin_dir, "--work-dir", os.path.join(root, ".bench_work")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
