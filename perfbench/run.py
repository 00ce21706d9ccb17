#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live-small --seed 1 --seconds 10 --trace 0

The Go module in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with its own Go build cache there,
then run with the given arguments. The program's standard output is passed
through; its last line is the JSON result. The exit code is the program's,
or 2 when the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(here, "..", "go.mod")):
        print("perfbench: the repository's Go module is not beside this directory", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench-trace")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
