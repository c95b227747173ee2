#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <steady_100k|zap_event> \
        --seed <n> --seconds <n> --trace <0|1> [--scale full|toy]

The binary is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target).  Its standard output is passed through unchanged; the
last line is the JSON result.  The exit code is the build's when the build
fails, the benchmark's otherwise.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SOURCE_SUFFIXES = {".rs", ".toml", ".lock"}
SKIPPED_DIRS = {".git", "target", ".bench_build"}


def revision():
    """The git revision, or a digest of the Rust sources when the checkout
    is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
        return "git-" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
        for name in sorted(files):
            path = pathlib.Path(root, name)
            if path.suffix in SOURCE_SUFFIXES:
                digest.update(str(path.relative_to(REPO_ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "toy"])
    args = parser.parse_args()

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH_DIR / "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or BENCH_DIR / "target")
    binary = target / "release" / "perfbench"
    run = subprocess.run(
        [
            str(binary),
            "--workload", args.workload,
            "--seed", args.seed,
            "--seconds", args.seconds,
            "--trace", args.trace,
            "--scale", args.scale,
            "--rev", revision(),
        ]
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
