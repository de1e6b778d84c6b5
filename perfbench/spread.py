#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload spmc-pair --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload pubsub-burst --seeds 1,2,3 --out perfbench/results/burst.json

Run from the root of the repository. For every metric it prints the
median over the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of that median: the
spread BENCHMARK.json's bounds are set against. --out also writes each
run's metrics, per-window rates and, for spmc-pair, per-sub-run queue
depths, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="write every run's details to this JSON file")
    args = ap.parse_args()

    runs, values = [], {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        res, details = json.loads(lines[-1]), json.loads(lines[-2])
        run = details["info"].get("run", {})
        runs.append({
            "seed": seed,
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "attempted": res["attempted"],
            "failed": res["failed"],
            "window_msgs_per_s": run.get("window_msgs_per_s"),
            "window_queue_depth": run.get("window_queue_depth"),
            "provenance": details["provenance"],
        })
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)

    summary = {}
    for k in sorted(values):
        med, sp = spread(values[k])
        summary[k] = {"median": med, "iqr_share": sp}
        print(f"{k:34s} median={med:<14.6g} iqr/median={sp:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
