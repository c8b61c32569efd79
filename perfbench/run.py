#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload am-stream --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in perfbench/, which uses the repository's
packages through a replace directive. This script builds it into
.bench_build/ (build cache, temporary files and outputs included, so the run
writes nothing outside the checkout) and runs it. The benchmark's report and
its JSON result line go to standard output; the exit code is the
benchmark's: 0 with a result, non-zero on a build failure, an error, a
correctness violation or a loaded host.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("am-stream", "rpc-mix", "kv-zipf")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a full checkout", file=sys.stderr)
        return 1
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1

    build = os.path.join(root, ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "tmp", "home", "out", "bin")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        HOME=dirs["home"],
        XDG_CONFIG_HOME=os.path.join(dirs["home"], ".config"),
        XDG_CACHE_HOME=os.path.join(dirs["home"], ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(dirs["bin"], "perfbench")
    build_cmd = [go, "build", "-o", exe, "."]
    try:
        r = subprocess.run(build_cmd, cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        exe,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-out", dirs["out"],
        "-go", go,
    ]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
