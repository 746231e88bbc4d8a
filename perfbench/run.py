#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload agg-steady --seed 1 --seconds 10 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that links the
repository's packages through a local replace directive.  Everything the
build and the run write -- the Go build cache, temporary files, the
binary and the run's scratch directories -- stays under .bench_build/ in
the repository root.  Arguments are passed to the harness unchanged; its
last line of standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Each run ends within 180 seconds; the first one also compiles.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "go-cache"),
        ("GOMODCACHE", "go-mod"),
        ("GOPATH", "go-path"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    env["GOPROXY"] = "off"
    return env


def main():
    # Exiting through SystemExit makes subprocess.run kill the build or the
    # harness and wait for it, so a terminated benchmark leaves no process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    try:
        built = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run: {err}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
