#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 10 --trace 0

It builds cmd/embedserver and the perfbench binary into .bench_build/
(with the Go build cache there too, so nothing is written outside the
checkout), then runs perfbench, which boots the server, drives it, checks
every output and prints one JSON line last.  The exit code is perfbench's.
"""
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "embedserver")):
        sys.stderr.write("perfbench: run from the repository root (no go.mod or cmd/embedserver here)\n")
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    builds = [
        (["go", "build", "-o", os.path.join(BUILD, "embedserver"), "./cmd/embedserver"], ROOT),
        (["go", "build", "-o", os.path.join(BUILD, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in builds:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "-server", os.path.join(BUILD, "embedserver"), "-work", BUILD] + sys.argv[1:]
    # perfbench runs in its own process group so that a timeout also stops
    # the servers it booted.
    p = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return p.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
