#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload login --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the write workload's durable stores
all live under .bench_build/ in the checkout, so the benchmark reads and
writes nothing outside it. The build needs the repository's Go module
one directory up; without it the build fails and the script exits
non-zero without printing a result. Every argument is passed to the
benchmark binary (see perfbench/main.go).
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTMPDIR=tmp,
        # The go command keeps its settings and telemetry counters under
        # the user config directory; keep those in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        CGO_ENABLED="0",
    )
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    # The build's own output goes to stderr: the last line of stdout is
    # the benchmark's result.
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary, "--dir", build] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
