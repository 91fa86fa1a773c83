#!/usr/bin/env python3
"""Build the serve-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload fleet_flood|storm_paced \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built offline with
cargo into $CARGO_TARGET_DIR (default `.bench_build`); working files go to
`perfbench-work/` under that directory. The last line of standard output
is the JSON result. See perfbench/NOTES.md for what is measured.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark process itself must finish well inside three minutes.
RUN_LIMIT_S = 170
# Environment that would change what is measured: DESH_SHARDS fixes the
# order in which training sums gradients, DESH_THREADS its thread count.
PINNED_ENV = ("DESH_SHARDS", "DESH_THREADS")
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench")


def source_digest():
    """Digest of the program and benchmark sources, which identifies the
    code where no git metadata is available."""
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        if os.path.isfile(base):
            paths = [base]
        else:
            paths = []
            for d, dirs, names in os.walk(base):
                dirs.sort()
                paths.extend(os.path.join(d, n) for n in sorted(names))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
        capture_output=True,
        text=True,
    )
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fleet_flood", "storm_paced"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    for k in PINNED_ENV:
        env.pop(k, None)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [
        os.path.join(target, "release", "desh-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work", os.path.join(target, "perfbench-work"),
        "--commit", commit(),
        "--source", source_digest(),
    ]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 4
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
