#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paging --seed 1 --seconds 10 --trace 0

The Go build keeps its cache, its output and the toolchain's own state
under .bench_build/ in the repository root, so nothing is written outside
the checkout. The arguments are passed to the benchmark unchanged; its last
line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(src, "go.mod")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build under a private name and rename, so concurrent runs in one
    # checkout never execute a half-written binary.
    tmp = "%s.%d" % (binary, os.getpid())
    built = subprocess.run(["go", "build", "-o", tmp, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(tmp, binary)
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
