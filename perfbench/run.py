#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source on first use (CMake, into
`$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`, relative
to the repository root), runs the workload, echoes its metric table and
record line, and prints as the last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: every `end_to_end` metric of
BENCHMARK.json for `--trace 0`, every `per_layer` metric for `--trace 1`.
The traced run also writes a Chrome trace-event file next to the build.

Exits 0 only when the build succeeded, every output check passed and
every metric BENCHMARK.json names was reported with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RECORD_PREFIX = "PERFBENCH_RECORD "
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def quiet(cmd):
    """Run a build step; its log goes to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(out_dir, target="perfbench"):
    """Configure (once) and build `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    quiet(["cmake", "--build", out_dir, "-j", jobs, "--target", target])
    return os.path.join(out_dir, target)


def parse_record(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith(RECORD_PREFIX):
            return json.loads(line[len(RECORD_PREFIX):])
    return None


def summarize(record, spec, traced):
    """The contract's last line: BENCHMARK.json's metric set only."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    correct = bool(record.get("correct"))
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or got.get("value") is None:
            print("perfbench: metric %s missing or with the wrong unit" % m["name"],
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    try:
        binary = build(build_dir())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    record = parse_record(proc.stdout)
    if record is None:
        print("perfbench: no record (exit code %d)" % proc.returncode,
              file=sys.stderr)
        return 3
    result = summarize(record, spec, args.trace == 1)
    if proc.returncode != 0:
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
