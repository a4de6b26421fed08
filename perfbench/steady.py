"""Repeat the benchmark over seeds and summarise each end-to-end metric.

Run from the repository root::

    python3 perfbench/steady.py --workloads geometry cli --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/trajectory/BENCH_x.json

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from ``BENCHMARK.json``.  Runs execute one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            _, name, value, unit = line.split(" ", 3)
            details[name] = {"value": float(value), "unit": unit}
    result = json.loads(lines[-1])
    result["details"] = details
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write medians, quartiles and one traced run per workload here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"e2e": {}, "details": {}, "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["e2e"][name] = stats
            steady = name == "setup_s" or stats["spread"] < bounds[name] / 3
            ok = ok and steady
            print(f"{workload:11s} {name:16s} median {stats['median']:12.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bounds[name]}  {'ok' if steady else 'UNSTEADY'}")
        for name in runs[0]["details"]:
            entry["details"][name] = summarise([r["details"][name]["value"] for r in runs])
        print(f"{workload:11s} failed {entry['failed']} of {entry['attempted']}")
        ok = ok and entry["failed"] == 0
        if args.out:
            entry["per_layer"] = run_once(workload, args.seeds[0], args.seconds, 1)["metrics"]
        summary[workload] = entry
    if args.out:
        sys.path.insert(0, HERE)
        from run import run_record

        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"run": run_record(), "seeds": args.seeds, "seconds": args.seconds, "workloads": summary},
                      fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
