#!/usr/bin/env python3
"""Builds the daemon and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload serve-1k --seed 1 --seconds 10 --trace 0

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); runs write their journals and span files to
`.bench_run`. The last line of standard output is the result object of
the run; everything else (build progress, diagnostics) goes before it or
to standard error. Exits non-zero, without a result line, when a build
or the run fails.
"""

import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run takes well under this; past it the process group is killed.
RUN_TIMEOUT_S = 170


def build(env):
    """The shipped daemon from the repository's workspace, then this
    package against the repository's crates."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ef-lora-serve", "--bin", "ef-lora-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)


def stop_group(pgid):
    """Kills what is left of a process group and waits, up to 5 s, until
    none of it remains."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Every workload sets its worker count itself.
    env.pop("EF_LORA_THREADS", None)
    build(env)

    workdir = os.path.join(ROOT, ".bench_run")
    cmd = [os.path.join(target, "release", "perfbench"), *args,
           "--daemon", os.path.join(target, "release", "ef-lora-serve"),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s; killed", file=sys.stderr)
        sys.exit(1)
    finally:
        # The daemon shares the benchmark's process group.
        stop_group(proc.pid)
    lines = out.decode().rstrip("\n").split("\n")
    if proc.returncode == 0:
        result = json.loads(lines[-1])
        expected = expected_metrics(trace)
        if expected is not None and set(result["metrics"]) != expected:
            print("\n".join(lines[:-1]))
            print("run.py: printed metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
            sys.exit(1)
    # Exit code 3: the result line was printed and an output check failed.
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
