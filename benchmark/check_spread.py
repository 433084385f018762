#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's
run-to-run spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median, next
to the bound BENCHMARK.json fixes for it.

    python3 benchmark/check_spread.py [--runs 10] [--first-seed 1]
                                      [--workloads exhaustive,random]
                                      [--trace 0|1] [--out values.json]

Run from the repository root. With --trace 1 it checks instead that every
`n_` count repeats exactly across the runs (use one seed: --first-seed N
--same-seed).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect results\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for w in workloads:
        rows = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            rows.append(run_once(bench["command"], w, seed,
                                 bench["run_seconds"], args.trace))
        values[w] = rows
        if args.trace:
            counts = [k for k in rows[0] if k.split(".")[-1].startswith("n_")]
            drift = [k for k in counts if len({r[k] for r in rows}) != 1]
            print(f"{w}: {len(counts)} n_ counts, "
                  f"{'all repeat exactly' if not drift else 'DRIFT: ' + ', '.join(drift)}")
            continue
        for name, bound in bounds.items():
            v = [r[name] for r in rows]
            s = spread(v)
            flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"{w:12} {name:16} median {statistics.median(v):14.4f}  "
                  f"spread {s:.4f}  bound {bound}  {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
