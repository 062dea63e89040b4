#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --out perfbench/baseline.json
    python3 perfbench/repeat.py --runs 10 --first-seed 101 --against perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, with tracing
off and BENCHMARK.json's ``run_seconds``.  For every workload and metric it
records the samples, their median and quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median.  ``--against`` compares each
median with another summary and flags a change for the worse beyond the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "samples": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--against", help="summary JSON to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in results])
                        for name in metrics},
        }
        summary["workloads"][workload] = entry

    previous = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    ok = True
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}")
        for name, s in entry["metrics"].items():
            bound, better = metrics[name]["bound"], metrics[name]["better"]
            line = (f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                    f"  spread {s['spread']:.3f} (bound {bound})")
            if name != "setup_s" and s["spread"] > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            if workload in previous:
                before = previous[workload]["metrics"][name]["median"]
                change = (s["median"] - before) / before
                worse = change > bound if better == "lower" else -change > bound
                line += f"  vs {before:.6g}: {change:+.3f}" + ("  WORSE" if worse else "")
                ok = ok and not worse
            print(line)
        ok = ok and entry["failed"] == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
