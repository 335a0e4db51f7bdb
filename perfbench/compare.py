#!/usr/bin/env python3
"""Compare two sets of benchmark runs (or check the spread of one set).

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

A set is a directory of captured `perfbench/run.py` outputs (one file per
run, as `perfbench/sweep.py` writes them). For each workload and metric the
tool reports the median and quartiles of each set. With two sets it labels
every metric:

- improved: better by more than the base set's own quartile spread, and
  (where both sets ran the same seeds) the new run wins at least 9 of 10
  seed pairs;
- regressed: worse by more than the metric's bound in BENCHMARK.json (for
  metrics without a bound: by more than the base spread, losing 9 of 10
  pairs), however wide the spread;
- unresolved: within the bound, but the run-to-run spread is wider than
  the bound, and not every new run is better than every base run;
- unchanged: otherwise.

Every ratio is printed with its base. Simulated counts (`counts` in the
record) are deterministic for a seed: runs of one seed within a set must
agree exactly, and any difference between the sets for the same seed is
flagged as "model changed". Exit code 1 when a metric regressed, the model
changed, a run was incorrect, or (one set) a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PREFIX = "PERFBENCH_RECORD "


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_output(text):
    """One run's record, with the contract line's verdict folded in."""
    record, result = None, None
    for line in text.splitlines():
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
    if record is None:
        return None
    if result is not None:
        record["correct"] = bool(record.get("correct")) and bool(result.get("correct"))
    return record


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            run = parse_output(f.read())
        if run is not None:
            run["_file"] = name
            runs.append(run)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0


def group(runs):
    """{(workload, trace): {metric: {"unit", "values": {seed: [v...]}}}}"""
    out = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        metrics = out.setdefault(key, {})
        for name, m in run["metrics"].items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "base": m.get("base", ""),
                                              "values": {}})
            entry["values"].setdefault(run["seed"], []).append(m["value"])
    return out


def flat(entry):
    return [v for vs in entry["values"].values() for v in vs]


def bounds(spec):
    b = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        b.setdefault(m["name"], m)
    return b


def better_sign(meta):
    return 1.0 if meta and meta.get("better") == "higher" else -1.0


def label(base, new, meta):
    """Label one metric (see module doc). base/new: metric entries."""
    bv, nv = flat(base), flat(new)
    _, bmed, _ = quartiles(bv)
    _, nmed, _ = quartiles(nv)
    sign = better_sign(meta)
    if bmed == 0:
        return ("unchanged" if nmed == 0 else "unresolved"), None
    gain = sign * (nmed - bmed) / abs(bmed)  # > 0: better
    bspread = spread(bv)
    nspread = spread(nv)
    bound = meta.get("bound") if meta else None

    pairs = [(statistics.median(base["values"][s]), statistics.median(new["values"][s]))
             for s in base["values"] if s in new["values"]]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = all(sign * (n - b) > 0 for n in nv for b in bv)

    if gain > bspread and (len(pairs) < 2 or wins >= 0.9 * len(pairs)):
        return "improved", gain
    if bound is not None:
        if -gain > bound:
            return "regressed", gain
        if max(bspread, nspread) > bound and not all_better:
            return "unresolved", gain
        return "unchanged", gain
    if -gain > bspread and (len(pairs) < 2 or losses >= 0.9 * len(pairs)):
        return "regressed", gain
    return "unchanged", gain


def count_sets(runs):
    """{(workload, trace, seed): [counts dict per run]}"""
    out = {}
    for run in runs:
        out.setdefault((run["workload"], run["trace"], run["seed"]), []).append(
            run.get("counts", {}))
    return out


def count_diffs(a, b):
    keys = sorted(set(a) | set(b))
    return [(k, a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)]


def check_repeats(runs):
    """Runs of one seed in one set must report identical counts."""
    problems = []
    for key, sets in sorted(count_sets(runs).items()):
        for other in sets[1:]:
            d = count_diffs(sets[0], other)
            if d:
                problems.append((key, d))
    return problems


def fmt(v):
    return "%.6g" % v


def report_one(runs, spec, out):
    ok = True
    meta = bounds(spec)
    for (workload, trace), metrics in sorted(group(runs).items()):
        out.append("== %s (trace %d, %d runs)" % (workload, trace,
                                                 len([r for r in runs if r["workload"] == workload and r["trace"] == trace])))
        for name, entry in sorted(metrics.items()):
            vals = flat(entry)
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            m = meta.get(name)
            flag = ""
            if trace == 0 and m and "bound" in m:
                limit = m["bound"]
                if sp > limit:
                    flag = "  SPREAD > bound %.3g" % limit
                    ok = False
                elif sp > limit / 3:
                    flag = "  spread > bound/3 (%.3g)" % (limit / 3)
            out.append("  %-38s median %-12s q1 %-12s q3 %-12s %-10s spread %.4f of median%s"
                       % (name, fmt(med), fmt(q1), fmt(q3), entry["unit"], sp, flag))
    for run in runs:
        if not run.get("correct"):
            out.append("INCORRECT run %s" % run["_file"])
            ok = False
    for key, d in check_repeats(runs):
        out.append("COUNTS DO NOT REPEAT for %s seed %s: %s" % (key[0], key[2], d[:5]))
        ok = False
    return ok


def report_two(base, new, spec, out):
    ok = True
    meta = bounds(spec)
    bg, ng = group(base), group(new)
    for key in sorted(set(bg) | set(ng)):
        workload, trace = key
        out.append("== %s (trace %d)" % (workload, trace))
        if key not in bg or key not in ng:
            out.append("  only in %s set" % ("new" if key in ng else "base"))
            continue
        for name in sorted(set(bg[key]) | set(ng[key])):
            if name not in bg[key] or name not in ng[key]:
                out.append("  %-38s only in %s set" % (name, "new" if name in ng[key] else "base"))
                continue
            b, n = bg[key][name], ng[key][name]
            lab, gain = label(b, n, meta.get(name))
            bq1, bmed, bq3 = quartiles(flat(b))
            nq1, nmed, nq3 = quartiles(flat(n))
            ratio = ("x%.4f of base median %s %s" % (nmed / bmed, fmt(bmed), b["unit"])
                     if bmed else "base median 0")
            out.append("  %-38s %-10s %s | base q1 %s q3 %s | new %s q1 %s q3 %s"
                       % (name, lab, ratio, fmt(bq1), fmt(bq3), fmt(nmed), fmt(nq1), fmt(nq3)))
            if lab == "regressed" and trace == 0:
                ok = False
    bc, nc = count_sets(base), count_sets(new)
    for key in sorted(set(bc) & set(nc)):
        d = count_diffs(bc[key][0], nc[key][0])
        if d:
            ok = False
            out.append("MODEL CHANGED %s trace %d seed %s: %s" % (
                key[0], key[1], key[2],
                ", ".join("%s %s -> %s" % x for x in d[:8])))
    for runs, which in ((base, "base"), (new, "new")):
        for run in runs:
            if not run.get("correct"):
                ok = False
                out.append("INCORRECT %s run %s" % (which, run["_file"]))
        for key, d in check_repeats(runs):
            ok = False
            out.append("COUNTS DO NOT REPEAT in %s set, %s seed %s" % (which, key[0], key[2]))
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    args = ap.parse_args(argv)
    spec = load_spec()
    out = []
    if args.new:
        ok = report_two(load_runs(args.base), load_runs(args.new), spec, out)
    else:
        ok = report_one(load_runs(args.base), spec, out)
    print("\n".join(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
