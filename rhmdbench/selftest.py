#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 rhmdbench/selftest.py

Runs every workload at CI size (--small) in the untraced and the traced
mode and checks that each run is correct and prints every metric
BENCHMARK.json names, with its unit. Then checks the failure paths: a
corrupted pinned digest and an unwritable work directory must each make
the command fail without a correct result. Exits non-zero on the first
failed expectation.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "selftest"


def run(workload, trace, *extra):
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", "1", "--seconds", "3", "--trace", str(trace),
               "--small", *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def expect(condition, message, proc=None):
    if condition:
        return
    print(f"selftest FAILED: {message}")
    if proc is not None:
        print(proc.stderr[-4000:])
    sys.exit(1)


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}", proc)
            expect(result is not None and set(result) ==
                   {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: bad result line", proc)
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{workload} trace={trace}: not correct", proc)
            for metric in SPEC[group]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"],
                       f"{workload} trace={trace}: {metric['name']} missing "
                       f"or not in {metric['unit']}", proc)
            print(f"ok {workload} trace={trace}")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    key = next(k for k in sorted(pinned) if k.startswith("serve_open_loop.small."))
    corrupted = dict(pinned)
    corrupted[key] = "0" * 16 if pinned[key] != "0" * 16 else "1" * 16
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=SCRATCH,
                                     delete=False) as out:
        json.dump(corrupted, out)
    try:
        proc, result = run("serve_open_loop", 0, "--digests", out.name)
    finally:
        Path(out.name).unlink()
    expect(proc.returncode != 0, "a corrupted digest did not fail the run")
    expect(result is None or result["correct"] is False,
           "a corrupted digest still reported a correct run")
    print("ok corrupted digest fails the run")

    # A work directory below a regular file can never be created.
    blocker = SCRATCH / "not-a-directory"
    blocker.write_text("")
    binary = ROOT / ".bench_build" / "rhmdbench" / "rhmd_benchmark"
    proc = subprocess.run(
        [str(binary), "--workload", "serve_open_loop", "--seed", "1",
         "--seconds", "3", "--trace", "0", "--small",
         "--workdir", str(blocker / "work")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    blocker.unlink()
    expect(proc.returncode != 0 and "RESULT" not in proc.stdout,
           "an unwritable work directory did not fail before running")
    print("ok unwritable work directory fails before running")
    print("selftest passed")


if __name__ == "__main__":
    main()
