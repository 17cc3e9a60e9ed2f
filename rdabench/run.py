#!/usr/bin/env python3
"""Builds the rdabench binary from source and runs one workload.

Run from the repository root:

    python3 rdabench/run.py --workload force_uniform --seed 1 --seconds 20 --trace 0

The engine (../src) and the benchmark (this directory) are compiled into
.bench_build/ with CMake on first use; later runs rebuild incrementally.
The binary's report is passed through, followed by a host fingerprint line
and, last, the one-line JSON result {"correct", "attempted", "failed",
"metrics"}. Exits non-zero without a result when the engine sources are
missing or the build or run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
BINARY = os.path.join(BUILD_DIR, "rdabench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("rdabench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found at %s" % os.path.join(ROOT, "src"))
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, env=env)
    if result.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def source_digest():
    """sha256 over the engine and benchmark sources: names the code under
    test even where no git metadata is available."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fields(report_lines):
    """The binary's 'host {...}' line: nproc, cpu, compiler, build type."""
    for line in report_lines:
        if line.startswith("host {"):
            return json.loads(line[len("host "):])
    return {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["force_uniform", "noforce_skewed",
                                 "crash_restart"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes, for the benchmark's own tests")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        fail("run produced no result (exit code %d)" % run.returncode)
    if run.returncode != 0:
        fail("run exited with code %d" % run.returncode)

    fingerprint = host_fields(lines)
    fingerprint.update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
