#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs `bash perfbench/run.sh` RUNS times per workload, each with its own
seed, and reports for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. Run it from the
checkout root:

    python3 perfbench/steadiness.py --runs 10 --seed-base 100 --out .bench_build/steady-a.json
    python3 perfbench/steadiness.py --markdown .bench_build/steady-a.json .bench_build/steady-b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    start = time.time()
    p = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    took = time.time() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def measure(args, spec):
    out = {}
    for w in args.workloads.split(","):
        runs, took = [], []
        for i in range(args.runs):
            m, t = run_once(w, args.seed_base + i, spec["run_seconds"])
            runs.append(m)
            took.append(t)
            print(f"{w} run {i + 1}/{args.runs}: {t:.1f}s", file=sys.stderr)
        out[w] = {"runs": runs, "wall_s": took}
    return out


def table(data, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for w, d in data.items():
        rows.append(f"\n{w} ({len(d['runs'])} runs, {statistics.median(d['wall_s']):.1f}s median wall per run)")
        rows.append(f"{'metric':<12} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in bounds:
            s = summarize([r[name] for r in d["runs"]])
            flag = "" if s["spread"] <= bounds[name] else "  OVER BOUND"
            rows.append(f"{name:<12} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                        f"{s['spread']:>8.3f} {bounds[name]:>6}{flag}")
    return "\n".join(rows)


def markdown(a, b, spec):
    """The two sets side by side as a Markdown table, per workload."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = []
    for w in a:
        out.append(f"\n**{w}** — set A: {len(a[w]['runs'])} runs, set B: {len(b[w]['runs'])} runs\n")
        out.append("| metric | A median | A Q1 | A Q3 | A spread | B median | B Q1 | B Q3 | B spread | B vs A | bound |")
        out.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for name, m in bounds.items():
            sa = summarize([r[name] for r in a[w]["runs"]])
            sb = summarize([r[name] for r in b[w]["runs"]])
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                worse = -worse
            out.append(f"| `{name}` | {sa['median']:.4g} | {sa['q1']:.4g} | {sa['q3']:.4g} | {sa['spread']:.3f} "
                       f"| {sb['median']:.4g} | {sb['q1']:.4g} | {sb['q3']:.4g} | {sb['spread']:.3f} "
                       f"| {worse:+.3f} | {m['bound']} |")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default="fig12,schemes-fast,serve-mix")
    ap.add_argument("--out")
    ap.add_argument("--markdown", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.markdown:
        with open(args.markdown[0]) as fa, open(args.markdown[1]) as fb:
            print(markdown(json.load(fa), json.load(fb), spec))
        return
    data = measure(args, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    print(table(data, spec))


if __name__ == "__main__":
    main()
