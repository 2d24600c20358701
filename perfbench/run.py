#!/usr/bin/env python3
"""Build and run the doebench benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <campaign|daemon|storm|lint> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), unpacks the pinned lint input next to the build, runs
the benchmark binary and relays its output. The last line of standard
output is the result JSON. Any failure exits non-zero without printing
a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile

PINNED = "b6313f1"
# Wall-clock cap on the benchmark binary (the build is not counted).
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["campaign", "daemon", "storm", "lint"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's progress goes to stderr; keep stdout for the result alone.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed ({' '.join(cmd)} exited {r.returncode})")
    return os.path.join(target, "release", "doebench-perf")


def unpack_pinned(target):
    """Unpack the pinned lint input once per build directory."""
    base = os.path.join(target, "perfbench")
    dest = os.path.join(base, f"pinned-{PINNED}")
    if os.path.isfile(os.path.join(dest, ".complete")):
        return dest
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    with tarfile.open(os.path.join("perfbench", "pinned", f"lint-{PINNED}.tar.gz")) as tf:
        try:
            tf.extractall(tmp, filter="data")
        except TypeError:  # Python before 3.11.4 has no extraction filters.
            tf.extractall(tmp)
    open(os.path.join(tmp, ".complete"), "w").close()
    shutil.rmtree(dest, ignore_errors=True)
    os.rename(tmp, dest)
    return dest


def main():
    args = parse_args()
    for need in ("crates/core/Cargo.toml", "crates/doebenchd/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(need):
            fail(f"{need} not found: run from the root of a doebench checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target)
    pinned = unpack_pinned(target)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pinned", pinned,
        "--out", os.path.join(target, "perfbench", "traces"),
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("benchmark result has unexpected keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
