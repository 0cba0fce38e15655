#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --rate singleton-start=34 ... \
        --workload singleton-start --seed 1 --seconds 40 --trace 0

Every argument is passed to the `perfbench` binary (see
perfbench/src/main.rs and perfbench/NOTES.md). The binary is built from
the checkout's sources with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), and rebuilt only when a
source file changed. The last line of standard output is the result.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

# Sources the binary is built from, relative to the checkout root.
SOURCES = ["Cargo.toml", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/Cargo.lock",
           "perfbench/src"]
# Leaves room under the 180 s per-run limit for start-up and teardown.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """SHA-256 over the path and bytes of every source file."""
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = root / entry
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            if file.is_file():
                digest.update(str(file.relative_to(root)).encode())
                digest.update(file.read_bytes())
    return digest.hexdigest()


def build(root, target):
    """Builds the binary unless the stamp says these sources are built."""
    binary = target / "release" / "perfbench"
    stamp = target / "perfbench.stamp"
    digest = source_digest(root)
    if binary.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return binary
    if shutil.which("cargo") is None:
        fail("cargo not found")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = ["cargo", "build", "--release", "--offline", "--manifest-path",
               str(root / "perfbench" / "Cargo.toml")]
    # Cargo's output goes to stderr so standard output stays the result.
    status = subprocess.run(command, env=env, stdout=sys.stderr, check=False).returncode
    if status != 0 or not binary.is_file():
        fail(f"build failed (cargo exit {status})")
    stamp.write_text(digest)
    return binary


def main():
    root = pathlib.Path.cwd()
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not (root / needed).exists():
            fail(f"run from the repository root: {needed} not found in {root}")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target)
    try:
        status = subprocess.run([str(binary), *sys.argv[1:]], timeout=RUN_TIMEOUT_S,
                                check=False).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=124)
    sys.exit(status)


if __name__ == "__main__":
    main()
