#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every output.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--runs N]
                               [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, and
stores each run's standard output as DIR/<workload>-seed<N>-trace<T>.out,
the input `compare.py` reads. Seeds are 1..N (`--runs`, default 10);
workloads default to every workload in BENCHMARK.json and the run length
to its `run_seconds`. Prints the one-set spread report at the end.
"""

import argparse
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    spec = compare.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seeds = range(1, args.runs + 1)
    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for workload in args.workloads.split(","):
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            name = "%s-seed%d-trace%d.out" % (workload, seed, args.trace)
            with open(os.path.join(args.out, name), "w") as f:
                f.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s exit %d: %s" % (name, proc.returncode, last[0][:160]), flush=True)
            failed += proc.returncode != 0
    out = []
    ok = compare.report_one(compare.load_runs(args.out), spec, out)
    print("\n".join(out))
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
