#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way BENCHMARK.json's
bounds are meant: for each workload, run the benchmark once per seed
(untraced), then report each metric's median and its interquartile range
(statistics.quantiles, n=4) as a share of that median, next to the
metric's bound.

    python3 fleetbench/spread.py [--seconds N] [--workloads a,b] seed [seed ...]

Run from the repository root. Prints one line per run and a table per
workload; exits 1 if any spread other than setup_s exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--seconds", type=int)
ap.add_argument("--workloads")
ap.add_argument("seeds", nargs="+")
args = ap.parse_args()
bench = json.load(open("BENCHMARK.json"))
seconds = args.seconds or bench["run_seconds"]
names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
ok = True
for w in names:
    values = {}
    for seed in args.seeds:
        t0 = time.time()
        cmd = bench["command"] + ["--workload", w, "--seed", seed, "--seconds", str(seconds), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            ok = False
            continue
        lines = run.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        got = {k: v["value"] for k, v in res["metrics"].items()}
        steal = next((l.rsplit(" ", 1)[-1] for l in lines if l.startswith("note cpu steal")), "?")
        print(f"{w} seed {seed} ({time.time() - t0:.0f}s) correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} steal={steal} "
              + " ".join(f"{k}={v:.4g}" for k, v in got.items()), flush=True)
        for k, v in got.items():
            values.setdefault(k, []).append(v)
    print(f"{w}: {len(args.seeds)} seeds, {seconds}s runs")
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(k, float("nan"))
        flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
        if k != "setup_s" and spread > bound:
            ok = False
        print(f"  {k:20s} median={med:<12.5g} spread={spread:.4f} bound={bound} {flag}")
sys.exit(0 if ok else 1)
