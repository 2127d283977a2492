#!/usr/bin/env python3
"""Builds the release `tpnc` and the benchmark harness, then runs one
benchmark workload and relays its one-line JSON result.

    python3 tpnbench/run.py --workload cold-frustum --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); per-run sockets and stores live under `.bench_work/` and
are removed when the run ends, whether it succeeded or not.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-frustum", "cold-analytic", "fleet-restart")


def fail(message, code=2):
    print(f"tpnbench: {message}", file=sys.stderr)
    sys.exit(code)


def cargo_build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"{' '.join(cmd)} failed", 1)


def kill_leftovers(tpnc):
    """Stops any tpnc started from this checkout's build that outlived the
    harness (the harness tears its own tree down; this is the backstop),
    and waits until each has stopped running."""
    killed = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            continue
        if os.path.realpath(exe) == os.path.realpath(tpnc):
            try:
                os.kill(int(pid), signal.SIGKILL)
                killed.append(pid)
            except OSError:
                pass
    deadline = time.monotonic() + 10
    for pid in killed:
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                break
            if state in ("Z", "X"):
                break
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "cli"))
    ):
        fail("run from the repository root: no Cargo.toml with crates/cli here")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(target, "-p", "tpn-cli")
    cargo_build(target, "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml"))
    tpnc = os.path.join(target, "release", "tpnc")
    harness = os.path.join(target, "release", "tpnbench")

    # Relative paths keep Unix socket names short wherever the checkout is.
    workdir = os.path.join(".bench_work", f"run-{os.getpid()}")
    code = 1
    try:
        result = subprocess.run(
            [
                harness,
                "--tpnc", tpnc,
                "--workdir", workdir,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        code = result.returncode
        if code == 0:
            sys.stdout.write(result.stdout)
    finally:
        kill_leftovers(tpnc)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
