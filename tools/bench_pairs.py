#!/usr/bin/env python3
"""Run alternating benchmark pairs of two checkouts and summarize them.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workloads sim-locat-online sim-sota --seeds 11-20 --out BENCH_x.json \\
        [--claim sim-locat-online:wall_s] [--what "..."] [--traced N]

For every seed and workload it runs `perfbench/run.py --trace 0` once in each
checkout, at the `run_seconds` of the change's BENCHMARK.json; odd seeds run
the parent first, even seeds the change. With --traced N it then takes N
traced runs (`--trace 1`) per side per workload at the first seed, the sides
alternating which goes first, and reports each side's median and min-max for
every per-layer metric. The output file is rewritten after every run, so an
interrupted series keeps its runs.

Each end-to-end metric gets each side's median and quartiles, the parent's
interquartile range, the pairs the change won (ties count for neither), the
change's median relative to the parent's in the worse direction, whether the
two sides read the same on every seed, the largest relative difference of one
seed's pair (|change - parent| over the larger magnitude of the two, 0 when
both are 0), so a last-bit change reads as ~1e-16, and a verdict:

- "identical": equal on every seed;
- "gain": the change won at least 9 of every 10 pairs and its median beats the
  parent's by more than the parent's interquartile range;
- "regression": the change's median is worse by more than the metric's bound;
- "unresolved": the runs spread wider than the bound (either side's
  interquartile range over the parent's median), unless every change run
  beats every parent run;
- "within bound" otherwise.

The file also records what it compared: under `checkouts`, each side's path,
its HEAD commit and whether `git status` listed uncommitted changes (both
null for a directory outside git).
"""

import argparse
import json
import os
import subprocess
import sys


def quantile(xs, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def metric_summary(pairs, better, bound):
    """Summary of one metric over (parent, change) value pairs, one per seed."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = quantile(parent, 0.5), quantile(change, 0.5)
    pq = [quantile(parent, 0.25), quantile(parent, 0.75)]
    cq = [quantile(change, 0.25), quantile(change, 0.75)]
    iqr = pq[1] - pq[0]
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (cm - pm) / abs(pm) + 0.0 if pm else 0.0  # + 0.0 turns -0.0 into 0.0
    identical = all(p == c for p, c in pairs)
    max_rel = max((abs(c - p) / max(abs(p), abs(c)) if p != c else 0.0) for p, c in pairs)
    spread = max(iqr, cq[1] - cq[0]) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if identical:
        verdict = "identical"
    elif won >= 0.9 * len(pairs) and sign * (pm - cm) > iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": pm, "change_median": cm, "parent_quartiles": pq, "change_quartiles": cq,
            "parent_iqr": iqr, "change_worse_by": round(worse_by, 4), "change_won_pairs": won,
            "pairs": len(pairs), "spread": round(spread, 4), "bound": bound,
            "identical_per_seed": identical, "max_rel_diff_per_seed": max_rel, "verdict": verdict}


def summarize(runs, metrics):
    """Per workload: each metric's summary over the seeds both sides ran, and
    per side the failed and attempted operation counts and the runs that gave
    no result. `metrics` is BENCHMARK.json's end_to_end list.
    """
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == w and "metrics" in r:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        both = [s for s in sorted(by_seed) if len(by_seed[s]) == 2]
        summary = {}
        for m in metrics:
            pairs = [(by_seed[s]["parent"]["metrics"][m["name"]]["value"],
                      by_seed[s]["change"]["metrics"][m["name"]]["value"]) for s in both]
            if pairs:
                summary[m["name"]] = metric_summary(pairs, m["better"], m["bound"])
        sides = {side: [r for r in runs if r["workload"] == w and r["side"] == side] for side in ("parent", "change")}
        summary["failed"] = {side: sum(r["failed"] for r in rs if "metrics" in r) for side, rs in sides.items()}
        summary["attempted"] = {side: sum(r["attempted"] for r in rs if "metrics" in r) for side, rs in sides.items()}
        summary["runs_without_result"] = {side: sum(1 for r in rs if "metrics" not in r) for side, rs in sides.items()}
        out[w] = summary
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def checkout_info(path):
    """A checkout's path, HEAD commit and whether `git status` lists changes."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", path] + list(argv), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        return proc.stdout if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"path": path, "commit": commit.strip() if commit else None,
            "dirty": bool(status.strip()) if status is not None else None}


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr[-2000:]}
    res = json.loads(lines[-1])
    return {"failed": res["failed"], "attempted": res["attempted"], "metrics": res["metrics"]}


def traced_table(traced):
    """Per workload and per-layer metric: each side's values over its traced
    runs (in run order) with their median, min and max; null for a side with
    no value.
    """
    out = {}
    for r in traced:
        for name, m in r.get("metrics", {}).items():
            entry = out.setdefault(r["workload"], {}).setdefault(name, {"unit": m["unit"], "parent": [], "change": []})
            entry[r["side"]].append(m["value"])
    for metrics in out.values():
        for entry in metrics.values():
            for side in ("parent", "change"):
                vs = entry[side]
                entry[side] = {"median": quantile(vs, 0.5), "min": min(vs), "max": max(vs), "runs": vs} if vs else None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5")
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", default="none", help="workload:metric the change claims to improve, or none")
    ap.add_argument("--what", default="")
    ap.add_argument("--traced", type=int, default=0, metavar="N",
                    help="traced runs per side per workload at the first seed")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    doc = {"what": args.what or "perfbench end-to-end runs, parent vs change, alternating order per seed "
                                  "(odd seeds parent first), --seconds %d --trace 0" % seconds,
           "command": "python3 perfbench/run.py --workload W --seed S --seconds %d --trace 0" % seconds,
           "claim": args.claim,
           "checkouts": {side: checkout_info(path) for side, path in checkouts.items()},
           "summary": {}, "runs": []}

    def save():
        doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        for w in args.workloads:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                r = {"side": side, "workload": w, "seed": seed}
                r.update(run_once(checkouts[side], w, seed, seconds, 0))
                doc["runs"].append(r)
                print(json.dumps(r), flush=True)
                save()
    traced = []
    for i in range(args.traced):
        for w in args.workloads:
            for side in ["parent", "change"] if i % 2 == 0 else ["change", "parent"]:
                r = {"side": side, "workload": w, "seed": seeds[0]}
                r.update(run_once(checkouts[side], w, seeds[0], seconds, 1))
                traced.append(r)
                print(json.dumps(r), flush=True)
                doc["traced"] = {"what": "%d --trace 1 runs per side per workload at seed %d, sides alternating "
                                         "which goes first" % (args.traced, seeds[0]),
                                 "per_layer": traced_table(traced)}
                save()
    for w, s in doc["summary"].items():
        for name in (m["name"] for m in spec["end_to_end"]):
            if name in s:
                v = s[name]
                print("%-18s %-14s parent %.4g  change %.4g  won %d/%d  %s" % (
                    w, name, v["parent_median"], v["change_median"], v["change_won_pairs"], v["pairs"],
                    v["verdict"]))
        print("%-18s failed: parent %d/%d  change %d/%d" % (
            w, s["failed"]["parent"], s["attempted"]["parent"], s["failed"]["change"], s["attempted"]["change"]))
    for w, metrics in doc.get("traced", {}).get("per_layer", {}).items():
        for name, e in metrics.items():
            print("%-18s %-34s %s" % (w, name, "  ".join(
                "%s %.4g [%.4g-%.4g]" % (side, e[side]["median"], e[side]["min"], e[side]["max"]) if e[side]
                else "%s -" % side for side in ("parent", "change"))))


if __name__ == "__main__":
    main()
