#!/usr/bin/env python3
"""Steadiness of the campaign benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--first-seed 1] [--out FILE]

runs every workload --runs times through perfbench/run.py, one seed per
round, alternating the workload order between rounds (so that a drift of
the host hits every workload alike), then prints for each end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median. A spread above the metric's bound in
BENCHMARK.json is flagged OVER; one above a third of it, which leaves two
sets of runs too little room to agree, is flagged WIDE. --out saves every
run's metrics as JSON. Exits 1 if any run failed or any spread is OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default="")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w for w in a.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]

    runs = {w: [] for w in workloads}
    bad = False
    for r in range(a.runs):
        seed = a.first_seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                bad = True
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values["failed"] = result["failed"]
            runs[w].append({"seed": seed, **values})
            bad = bad or result["failed"] != 0 or not result["correct"]
            print(f"round {r + 1} {w} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    print(f"\n{a.runs} runs per workload, {seconds} s each")
    print(f"{'workload':14} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, spec in bounds.items():
            values = [run[name] for run in runs[w] if name in run]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > spec["bound"]:
                flag, bad = "OVER", True
            elif spread > spec["bound"] / 3:
                flag = "WIDE"
            print(f"{w:14} {name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {spec['bound']:6.3g} {flag}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
