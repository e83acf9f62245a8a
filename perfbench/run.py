#!/usr/bin/env python3
"""Build the benchmark from source and run one workload once.

    python3 perfbench/run.py --workload feed-replay --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The benchmark is built in .bench_build/
(CMake, from perfbench/CMakeLists.txt, which compiles the repository's
library with the repository's own build file). Its arithmetic is tested
(perfbench_stats_test) before anything is measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant,
prints the per-layer metrics and checks its Chrome trace with
scripts/validate_trace.py. Either way the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
correctness gate exits non-zero without printing it.

Seeds: the default is 1. Seed 7919 is held out: a later change that claims a
gain must also show it on --seed 7919, which was not used to tune anything.
Host facts (CPUs, git SHA or source hash, build type, compiler) are printed
with every result and saved with it under .bench_build/results/.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("feed-replay", "news-replay")
RUN_TIMEOUT_S = 170

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no sources to build: {ROOT} lacks CMakeLists.txt or src/", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_stats_test"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git SHA when the checkout is a repository, else a hash of the
    files the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return {"git_sha": None, "source_sha256": h.hexdigest()}


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text(encoding="utf-8"))
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held out: "
                         f"{HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build()
    test = subprocess.run([str(BUILD / "perfbench_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        fail("the benchmark's arithmetic tests failed")

    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    trace_path = results / f"{stem}.trace.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail(f"{args.workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])

    if args.trace:
        check = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "validate_trace.py"),
             str(trace_path)], capture_output=True, text=True)
        print(check.stdout.strip())
        if check.returncode:
            sys.stderr.write(check.stderr)
            fail("the Chrome trace does not validate")

    want = expected_metrics(args.trace)
    if want is not None and want != set(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(want - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - want)}")

    host = source_id()
    print("source: " + json.dumps(host))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "log": lines[:-1], "result": result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
