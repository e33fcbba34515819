"""Checks that the benchmark's end-to-end metrics are steady across seeds.

Runs one workload (or all) with several seeds, untraced, and prints for
each end-to-end metric its median and its spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME] [--seeds N] [--first-seed S]

Run from the root of a ses checkout. Exits 1 if a run fails, is not
correct, or a spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            summary = json.loads(out.stdout.strip().splitlines()[-1])
            if not summary["correct"] or summary["failed"]:
                print(f"{name} seed {seed}: not correct: {out.stdout.splitlines()[-2]}")
                ok = False
            for m, v in summary["metrics"].items():
                values[m].append(v["value"])
        print(f"== {name}")
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "ok" if spread <= bounds[m] / 3 else ("WIDE" if spread <= bounds[m] else "OVER")
            if spread > bounds[m] and m != "setup_s":
                ok = False
            print(f"  {m:24s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds[m]:.2f}  {mark}"
                  f"  [{min(vs):.6g} .. {max(vs):.6g}]")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
