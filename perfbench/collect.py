"""Run the benchmark twice over several seeds and compare the two sets.

    python3 perfbench/collect.py [--seeds 1-10] [--trace-seed N] [--out FILE]

Run from the repository root.  Each run is a separate run.py process, one
after another, with run_seconds of BENCHMARK.json.  The whole set (every
workload, every seed) is run twice, one set after the other.  For every
workload and end-to-end metric this prints, per set, the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) as a share of
the median, and then the drift of the second median from the first, signed
so that positive is worse.  A flag marks a spread at or above a third of the
metric's bound and a drift above the bound.  With --trace-seed, one traced
run per workload follows.  --out writes everything, with host facts, as
JSON; the committed baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402

SETS = 2


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = elapsed
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def drift(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first if first else float("inf")
    return change if better == "lower" else 0.0 - change


def run_set(workloads, seeds, seconds, bounds) -> dict:
    out = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, seconds, 0)
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} {res['process_s']:.1f}s {vals}", flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        out[workload] = {"runs_correct": all(r["correct"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                         "process_s": [r["process_s"] for r in runs], "end_to_end": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"  {workload} {name}: median {s['median']:.6g} IQR [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    workloads = list(bench_run.bench_workloads.WORKLOADS)
    seeds = parse_seeds(args.seeds)
    report = {"host": bench_run.host_facts(), "seconds": seconds, "seeds": seeds, "sets": [], "drift": {}}
    for n in range(SETS):
        print(f"set {n + 1} of {SETS}", flush=True)
        report["sets"].append(run_set(workloads, seeds, seconds, bounds))
    first, last = report["sets"][0], report["sets"][-1]
    for workload in workloads:
        report["drift"][workload] = {}
        for name, m in metrics.items():
            d = drift(first[workload]["end_to_end"][name]["median"], last[workload]["end_to_end"][name]["median"],
                      m["better"])
            report["drift"][workload][name] = d
            flag = "" if d <= m["bound"] else "  (drift > bound)"
            print(f"  {workload} {name}: drift {d:+.4f} bound {m['bound']}{flag}", flush=True)
    if args.trace_seed is not None:
        report["traced"] = {}
        for workload in workloads:
            report["traced"][workload] = run_once(workload, args.trace_seed, seconds, 1)
            print(f"  {workload} traced: correct={report['traced'][workload]['correct']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
