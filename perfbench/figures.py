"""Reference figures: run the benchmark over several seeds and summarize.

    python3 perfbench/figures.py [--seeds 201-210] [--trace-seeds 201-203]

Runs `run.py` once per (workload, seed) on all four workloads, one process
after another, first untraced and then traced, from the checkout root,
with the run length that BENCHMARK.json fixes.  Prints, per workload,
the median and quartiles of every end-to-end metric with the quartile
spread as a share of the median, the median of every per-layer metric
that is not zero, and the tracing overhead: the traced run_s, which each
traced run writes to its trace file, minus the untraced run_s (medians).
The raw results go to perfbench/out/figures.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["factors", "lift", "defects", "crosscheck"]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_run_s(workload, seed):
    """The traced run's run_s, from the trace file it wrote."""
    path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["run_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("201-210"))
    parser.add_argument("--trace-seeds", type=seed_range,
                        default=seed_range("201-203"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    raw = {}
    for workload in WORKLOADS:
        plain = [run(workload, s, seconds, 0) for s in args.seeds]
        traced = [run(workload, s, seconds, 1) for s in args.trace_seeds]
        raw[workload] = {"untraced": plain, "traced": traced}
        print(f"\n## {workload}: {len(plain)} untraced runs (seeds "
              f"{args.seeds[0]}-{args.seeds[-1]}), {len(traced)} traced")
        print(f"attempted/failed per run: "
              f"{sorted({(r['attempted'], r['failed']) for r in plain + traced})}"
              f", correct: {all(r['correct'] for r in plain + traced)}")
        print("\n| metric | median | q1 | q3 | (q3-q1)/median |")
        print("| --- | --- | --- | --- | --- |")
        for name in plain[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in plain]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            unit = plain[0]["metrics"][name]["unit"]
            print(f"| `{name}` ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} |")
        print("\n| per-layer metric | median |")
        print("| --- | --- |")
        for name in traced[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in traced]
            if any(values):
                unit = traced[0]["metrics"][name]["unit"]
                print(f"| `{name}` ({unit}) | {statistics.median(values):.4g} |")
        untraced_run = statistics.median(
            r["metrics"]["run_s"]["value"] for r in plain)
        traced_run = statistics.median(
            trace_run_s(workload, s) for s in args.trace_seeds)
        print(f"\ntracing overhead: {traced_run - untraced_run:+.3f} s "
              f"({(traced_run - untraced_run) / untraced_run:+.1%} of run_s)")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "figures.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh)


if __name__ == "__main__":
    main()
