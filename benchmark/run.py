#!/usr/bin/env python3
"""Build and run the exsel benchmark.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds benchmark/exbench.exe with
dune (shared cache off, so the build reads and writes only the tree),
runs it, and re-prints its output.  On an untraced run it adds the
program's peak resident set size, from its rusage, to the metrics of
the final JSON line as peak_rss_mb.

Exit code: the benchmark's (0 correct, 1 correctness failure or crash,
2 usage), or 2 when the build fails, or 3 on a timeout.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

WORKLOADS = ("rename-oneshot", "lease-poisson", "sim-campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "benchmark", "exbench.exe")


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            sys.exit(f"run.py: unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            sys.exit(f"run.py: {flag} needs a value")
        opts[flag[2:]] = value
    missing = [f for f in ("workload", "seed", "seconds", "trace") if f not in opts]
    if missing:
        sys.exit("run.py: missing " + ", ".join("--" + m for m in missing))
    if opts["workload"] not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {opts['workload']!r} (one of {', '.join(WORKLOADS)})")
    if opts["trace"] not in ("0", "1"):
        sys.exit("run.py: --trace must be 0 or 1")
    return opts


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--display", "quiet", "./benchmark/exbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        sys.exit(3)
    if done.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        sys.exit(2)


def execute(args):
    """Run the benchmark program; return its exit code, its standard
    output and its rusage (the process is always waited for)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        sys.stdout.write(out)
        print(f"run.py: benchmark killed by signal {-code}", file=sys.stderr)
        sys.exit(3)
    return code, out, rusage


def run(opts):
    args = [EXE, "--workload", opts["workload"], "--seed", opts["seed"],
            "--seconds", opts["seconds"], "--trace", opts["trace"]]
    code, out, rusage = execute(args)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        return code or 1
    if opts["trace"] == "0":
        # the whole run's peak resident set (Linux reports KiB)
        result["metrics"]["peak_rss_mb"] = {"value": rusage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    return code


def main():
    opts = parse_args(sys.argv[1:])
    build()
    sys.exit(run(opts))


if __name__ == "__main__":
    main()
