#!/usr/bin/env python3
"""Run the ranm benchmark once.

    python3 perfbench/run.py --workload nominal|drift --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds the ranm library, the `ranm_serve`
daemon and the load generator from source (Release, in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs
one measurement: set-up, frames, robust_build and adapt_swap against real
`ranm_serve` children. The report goes to stdout; its last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit status
is non-zero when the build fails, a check fails or an operation fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take its set-ups plus twice its measured time before it is
# killed.
SETUP_ALLOWANCE_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once and builds incrementally; a lock serialises runs."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the ranm sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "ranm_serve", "perfbench_loadgen"])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["nominal", "drift"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    expected = expected_metrics(args.trace)

    loadgen = os.path.join(out, "perfbench_loadgen")
    serve = os.path.join(out, "ranm", "tools", "ranm_serve")
    work = os.path.join(out, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", serve, "--work", work]
    # Its own process group, so the daemons go down with it on a timeout.
    timeout_s = SETUP_ALLOWANCE_S + 2 * args.seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {timeout_s} s")
    finally:
        # Whatever the load generator left behind goes too; wait (up to 5 s,
        # as an orphan is reaped by init) until the whole group has ended.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            for _ in range(100):
                time.sleep(0.05)
                os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
        trace = os.path.join(work, "trace.json")
        if os.path.isfile(trace):
            shutil.copy(trace, os.path.join(out, "last_trace.json"))
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"load generator exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    reported = set(result["metrics"])
    if reported != expected:
        sys.stdout.write(stdout)
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - reported)}, extra "
             f"{sorted(reported - expected)}")
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
