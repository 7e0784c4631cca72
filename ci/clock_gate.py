"""The clock gate: does the head lose time to its merge base on any
end-to-end metric of the benchmark?

    python3 ci/clock_gate.py BASE_PERFBENCH HEAD_PERFBENCH

Both arguments are prebuilt `perfbench` binaries, one built at the merge
base and one at the head. Run from the repository root. For every
workload in BENCHMARK.json the gate runs 10 pairs, one run of each binary
per pair on the same seed (seeds 1..10), alternating which side goes
first, each run for BENCHMARK.json's `run_seconds`. For each metric the
gate takes the head/base ratio within every pair and fails the metric
when the median of those ratios is worse than 1 by more than the
metric's `bound`. Runs that print `correct: false` or a failed request,
or that exit non-zero, fail the gate too. Exits 1 on any failure.

Both runs of a pair share the machine's state at that moment, so drift
in the machine's speed over the gate's twenty minutes scales both sides
of a pair alike and cancels in the ratio; the gate compares the two
binaries with each other and never with a stored number.
"""

import json
import statistics
import subprocess
import sys

PAIRS = 10


def run(exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        return None, f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        return None, f"{' '.join(cmd)}: correct={result['correct']} failed={result['failed']}"
    return {n: m["value"] for n, m in result["metrics"].items()}, None


def ratio(head, base):
    """head/base, with 0/0 read as no change."""
    if base:
        return head / base
    return 1.0 if head == base else float("inf")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": sys.argv[1], "head": sys.argv[2]}
    bench = json.load(open("BENCHMARK.json"))
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = ["base", "head"] if seed % 2 else ["head", "base"]
            pair = {}
            for side in order:
                metrics, error = run(sides[side], workload, seed, bench["run_seconds"])
                if error:
                    failures.append(f"{workload} {side}: {error}")
                else:
                    pair[side] = metrics
            if len(pair) == 2:
                pairs.append(pair)
            print(f"{workload} pair {seed} done", flush=True)
        for m in bench["end_to_end"]:
            name = m["name"]
            ratios = [ratio(p["head"][name], p["base"][name])
                      for p in pairs if name in p["head"] and name in p["base"]]
            if not ratios:
                failures.append(f"{workload} {name}: missing from every pair")
                continue
            med = statistics.median(ratios)
            worse = med - 1 if m["better"] == "lower" else 1 - med
            verdict = "FAIL" if worse > m["bound"] else "ok"
            print(f"{verdict:4s} {workload:16s} {name:16s} pairs={len(ratios):<2d} "
                  f"median head/base={med:<8.4f} worse={worse:+.4f} bound={m['bound']:.4f}")
            if verdict == "FAIL":
                failures.append(f"{workload} {name}: head worse by {worse:.4f} "
                                f"> {m['bound']:.4f}")
    for f in failures:
        print(f"FAIL: {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
