#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload alloc-small --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the kv heap files and traced-run span
dumps all live under .bench_build/ in the checkout. The build fails, and
so does this script, when the repository's sources are not there.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nvbench-e2e")


def main():
    # Keep every file the go command writes (build cache, module cache,
    # its config and telemetry directories) inside the checkout, and never
    # fetch anything: the module has no dependencies outside the repository.
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="")
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "benchmark"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
