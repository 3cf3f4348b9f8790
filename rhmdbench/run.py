#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source and run
one workload.

    python3 rhmdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every path is resolved from this file's location, so the command works
from any directory. The build goes to .bench_build/rhmdbench under the
checkout root and scratch files to a per-run directory beside it; both
are checked for writability before anything runs.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each with its unit. A missing metric, a
metric with the wrong unit, a missing correctness check or a failed one
makes the run incorrect and the exit code non-zero.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "rhmdbench"
BINARY = BUILD_DIR / "rhmd_benchmark"
DEFAULT_DIGESTS = BENCH_DIR / "digests.json"
RUN_TIMEOUT_S = 170

# Checks every run of a workload must report as passed.
COMMON_CHECKS = [
    "serve_answers_equal_serial_replay",
    "serve_no_failed_requests",
]
WORKLOAD_CHECKS = {
    "study_fresh": ["repetitions_identical"],
    "study_replay": [
        "repetitions_identical",
        "corpus_written",
        "corpus_replayed",
        "replay_matches_fresh_extraction",
    ],
    "serve_open_loop": [],
    "serve_retrain": ["retrain_cycles_decided"],
}
# Output digests every run must reproduce: digests.json pins them per
# workload and size (the populations are the same on every seed).
WORKLOAD_DIGESTS = {
    "study_fresh": ["corpus_windows", "fig16_table", "pool_models"],
    "study_replay": ["corpus_content_hash", "families_table", "pool_models"],
    "serve_open_loop": ["corpus_windows", "pool_models"],
    "serve_retrain": ["corpus_windows", "pool_models", "evasive_windows"],
}
TRACE_CHECKS = ["probe_stream_complete"]


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def require_writable(directory):
    """Create @directory and prove a file can be written in it."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=directory):
            pass
    except OSError as err:
        fail(f"output location {directory} is not writable: {err}", 2)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = subprocess.run(
            [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run([cmake, "--build", str(BUILD_DIR), "-j", jobs],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-8000:])
        fail("build failed")


def check_digests(pinned, prefix, expected, computed):
    """Compare the run's digests to the pinned ones; return problems."""
    problems = []
    for name in expected:
        key = prefix + name
        got = computed.get(name)
        print(f"digest {key} = {got}")
        if got is None:
            problems.append(f"digest {name} was not computed")
        elif pinned.get(key) != got:
            problems.append(f"digest {key} computed {got}, "
                            f"pinned {pinned.get(key)}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="CI-sized population (self-test)")
    parser.add_argument("--digests", type=Path, default=DEFAULT_DIGESTS,
                        help="pinned output digests to check against")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}", 2)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (known: {workloads})", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        pinned = json.loads(args.digests.resolve().read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read pinned digests {args.digests}: {err}", 2)

    require_writable(BUILD_DIR)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-",
                                    dir=BUILD_DIR))
    try:
        require_writable(workdir)
        build()
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(workdir)]
        if args.small:
            command.append("--small")
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark binary exited with code {proc.returncode}")

    lines = proc.stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if len(results) != 1:
        fail("benchmark binary printed no result")
    result = json.loads(results[0][len("RESULT "):])

    problems = []
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"expected {unit}")
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {name} is not a finite number")
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
        if not args.trace and got is not None and got["value"] == 0:
            problems.append(f"end-to-end metric {name} is 0")

    required = COMMON_CHECKS + WORKLOAD_CHECKS[args.workload]
    if args.trace:
        required += TRACE_CHECKS
    checks = result["checks"]
    for name in required:
        if name not in checks:
            problems.append(f"check {name} did not run")
    for name, ok in sorted(checks.items()):
        if not ok:
            problems.append(f"check {name} failed")
    prefix = f"{args.workload}.{'small' if args.small else 'full'}."
    problems += check_digests(pinned, prefix,
                              WORKLOAD_DIGESTS[args.workload],
                              result["digests"])

    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
