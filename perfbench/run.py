#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/), print one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig7-quick --seed 1 --seconds 20 --trace 0

The Go benchmark is built from source into .bench_build/ with every Go
cache kept inside the checkout. With --trace 0 the result holds the
end-to-end metrics plus setup_s: the median, over several launches, of the
time from starting the benchmark process to the start of its timed region.
With --trace 1 it holds the per-layer metrics. The last line of standard
output is the result; every other line is informational.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
READY = "perfbench: timed region starts"
SETUP_LAUNCHES = 5  # set-up-only launches; the measured run is one more sample
DEADLINE_S = 170  # the whole command must end within 180 s


def go_env():
    env = dict(os.environ)
    env.pop("LOCKILLER_WORKERS", None)  # measure the default worker count
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOENV="off",
    )
    return env


def build(env):
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: no go toolchain on PATH")
    os.makedirs(env["XDG_CONFIG_HOME"], exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: build failed")


def launch(args, env, deadline):
    """Run the benchmark binary; return (seconds to the ready line, stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen([BINARY] + args, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.rstrip("\n") == READY:
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready is None:
        sys.exit(f"run.py: benchmark exited with status {proc.returncode}")
    return ready, lines


def main():
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = go_env()
    build(env)
    deadline = t0 + DEADLINE_S
    args = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds),
            "-trace", str(a.trace), "-workdir", os.path.join(BUILD, "work")]
    setup = []
    if a.trace == 0:
        for _ in range(SETUP_LAUNCHES):
            ready, _ = launch(args + ["-setup-only"], env, deadline)
            setup.append(ready)
    ready, lines = launch(args, env, deadline)
    setup.append(ready)
    if not lines:
        sys.exit("run.py: benchmark printed no result")
    result = json.loads(lines[-1])
    if a.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
