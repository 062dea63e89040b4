#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at its smallest size (``run.py --quick``), traced and
untraced, and checks that the last line is a result with exactly the
expected keys, no failed operation, and every metric BENCHMARK.json names,
with its unit and a numeric value (end-to-end values above zero).  It also
checks that two runs of one closed-loop seed write the same bytes, and that
the benchmark refuses to run, without printing a result, from a directory
holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seconds", "1", "--seed", "1"]


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(label: str, proc: subprocess.CompletedProcess, declared: dict,
                 positive: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"{label}: metrics differ by {set(result['metrics']) ^ set(declared)}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{label}: {name} has no numeric value")
        elif positive and value <= 0:
            problems.append(f"{label}: {name} = {value}")
        if metric.get("unit") != declared.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            proc = run([*RUN, "--quick", "--workload", workload, "--trace", str(trace)])
            problems += check_result(f"{workload} trace={trace}", proc, declared, trace == 0)
            print(f"{workload} trace={trace}: checked", flush=True)

    digests = []
    for _ in range(2):
        proc = run([*RUN, "--quick", "--workload", "closed-loop", "--trace", "0"])
        info = proc.stdout.strip().splitlines()[-2]
        digests.append(info.split("digest=")[1])
    if digests[0] != digests[1]:
        problems.append(f"closed-loop digests differ between runs: {digests}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run([*RUN, "--workload", "family3", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the benchmark ran without the program's sources")
    shutil.rmtree(bare)

    for problem in problems:
        print("PROBLEM", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
