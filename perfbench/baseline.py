"""Repeat the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--json OUT]

Runs ``perfbench/run.py`` once per workload and seed (one process at a
time), then prints, per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``;
then the same for the unscaled figures of each run's ``# as measured``
line (``<metric>.measured``, no bound).
The spread must stay below the bound for the benchmark to be usable.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: The unscaled figures on a run's ``# as measured`` line, by the metric
#: they correspond to.
MEASURED = {"setup_s": r"setup=([\d.]+) s", "op_p50_ms": r"p50=([\d.]+) ms",
            "op_tail_ms": r"tail=([\d.]+) ms", "ops_per_s": r"([\d.]+)/s busy",
            "restart_s": r"restart=([\d.]+) s"}


def measured(stdout: str) -> Dict[str, float]:
    """The figures of the ``# as measured`` line, keyed ``<metric>.measured``,
    and the run's median reference time as ``reference_ms``."""
    figures: Dict[str, float] = {}
    for line in stdout.splitlines():
        if line.startswith("# as measured:"):
            figures.update({f"{name}.measured": float(re.search(pattern, line).group(1))
                            for name, pattern in MEASURED.items()})
        elif line.startswith("# reference work:"):
            figures["reference_ms"] = float(re.search(r"median ([\d.]+) ms", line).group(1))
    return figures


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: Dict[str, Any] = {"seconds": seconds, "workloads": {}}
    failed = False
    for workload in workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        values.update({f"{name}.measured": [] for name in MEASURED}, reference_ms=[])
        walls = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - started)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if done.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                failed = True
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in measured(done.stdout).items():
                values[name].append(value)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        rows = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                          "bound": bounds.get(name), "n": len(series)}
            print(f"{workload:15s} {name:21s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {(q3 - q1) / q2:6.3f}  bound {bounds.get(name, '-')}")
        print(f"{workload:15s} run wall: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s")
        summary["workloads"][workload] = {"metrics": rows, "run_wall_s_max": max(walls)}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
