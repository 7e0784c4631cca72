"""The clock gate: does the head lose time to its merge base on any
end-to-end metric of the benchmark?

    python3 ci/clock_gate.py BASE_PERFBENCH HEAD_PERFBENCH

Both arguments are prebuilt `perfbench` binaries, one built at the merge
base and one at the head. Run from the repository root. For every
workload in BENCHMARK.json the gate runs 10 pairs, one run of each binary
per pair on the same seed (seeds 1..10), alternating which side goes
first, each run for BENCHMARK.json's `run_seconds`. A metric fails when
the head's median is worse than the base's by more than the larger of
the metric's `bound` and the base's spread (the distance between its
quartiles, statistics.quantiles n=4), both as a share of the base
median. Runs that print `correct: false` or a failed request, or that
exit non-zero, fail the gate too. Exits 1 on any failure.

Both sides run on the same machine in alternation, so a slow or noisy
machine slows both alike; the gate compares them with each other and
never with a stored number.
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


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": sys.argv[1], "head": sys.argv[2]}
    bench = json.load(open("BENCHMARK.json"))
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        values = {"base": {}, "head": {}}
        for seed in range(1, PAIRS + 1):
            order = ["base", "head"] if seed % 2 else ["head", "base"]
            for side in order:
                metrics, error = run(sides[side], workload, seed, bench["run_seconds"])
                if error:
                    failures.append(f"{workload} {side}: {error}")
                    continue
                for name, value in metrics.items():
                    values[side].setdefault(name, []).append(value)
            print(f"{workload} pair {seed} done", flush=True)
        for m in bench["end_to_end"]:
            base, head = values["base"].get(m["name"]), values["head"].get(m["name"])
            if not base or not head:
                failures.append(f"{workload} {m['name']}: missing from a run")
                continue
            base_med, head_med = statistics.median(base), statistics.median(head)
            q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base_med,) * 3
            spread = (q3 - q1) / base_med if base_med else 0.0
            allowed = max(m["bound"], spread)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (head_med - base_med) / base_med if base_med else 0.0
            verdict = "FAIL" if worse > allowed else "ok"
            print(f"{verdict:4s} {workload:16s} {m['name']:16s} base={base_med:<12.6g} "
                  f"head={head_med:<12.6g} worse={worse:+.4f} allowed={allowed:.4f}")
            if verdict == "FAIL":
                failures.append(f"{workload} {m['name']}: head worse by {worse:.4f} "
                                f"> {allowed:.4f}")
    for f in failures:
        print(f"FAIL: {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
