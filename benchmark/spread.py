#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the driver takes it.

Runs the benchmark `--runs` times per workload, each time with another seed,
and prints for every end-to-end metric the median of the runs and the
distance between their first and third quartile as a share of that median,
beside the metric's bound from BENCHMARK.json. A spread above a third of the
bound is marked; one above the bound would be refused.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME] [--bin PATH]

Run it from the repository root. Without `--bin` it runs the command in
BENCHMARK.json (which builds first).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--bin", help="a built fab-benchmark to run instead of the command")
    ap.add_argument("--dump", help="write every run's result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = [args.bin] if args.bin else spec["command"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    dump = open(args.dump, "w") if args.dump else None
    worst = 0.0

    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            started = time.time()
            out = subprocess.run(
                command
                + ["--workload", w, "--seed", str(seed)]
                + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE,
                text=True,
            )
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not line.startswith("{"):
                print(f"{w} seed {seed}: exit {out.returncode}, last line {line!r}")
                return 1
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                return 1
            if dump:
                dump.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
                dump.flush()
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {w} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
        print(f"== {w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median
            mark = "" if spread <= bounds[name] / 3 else "  > bound/3"
            if spread > bounds[name]:
                mark = "  EXCEEDS THE BOUND"
            worst = max(worst, spread / bounds[name])
            print(
                f"{name:<24} median {median:>14.4f}  spread {spread * 100:6.2f} %"
                f"  bound {bounds[name] * 100:4.0f} %{mark}"
            )
    print(f"worst spread / bound = {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
