"""Runs one workload of the benchmark over several seeds and prints, for
each metric, its median and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload plan-offline --seeds 1 2 3 4 5

Run from the repository root. Metrics whose spread exceeds a third of
their bound in BENCHMARK.json are flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = " <-- over bound/3" if bound and spread > bound / 3 else ""
        print(f"{name:40s} median={med:<14.6g} spread={spread:.4f} bound={bound}{flag}")


if __name__ == "__main__":
    main()
