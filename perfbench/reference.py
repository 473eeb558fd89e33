"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py

Runs every workload ten times untraced (seeds 101-110) and once traced
(seed 101), one process at a time, for BENCHMARK.json's run length, and
prints the machine, the versions and markdown tables of the medians and
quartiles. It takes about 20 minutes.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(101, 111)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end_table(results: dict) -> str:
    """results: workload -> list of untraced result objects."""
    lines = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median |", "|---|---|---|---|---|---|"]
    for workload, rows in results.items():
        for metric, first in rows[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            lines.append(f"| {workload} | {metric} ({first['unit']}) | {med:.4g} | {q1:.4g} | "
                         f"{q3:.4g} | {(q3 - q1) / med:.3f} |")
    lines.append("")
    lines.append("| workload | attempted per run | failed per run | failed share |")
    lines.append("|---|---|---|---|")
    for workload, rows in results.items():
        att = [r["attempted"] for r in rows]
        fail = [r["failed"] for r in rows]
        lines.append(f"| {workload} | {min(att)}-{max(att)} | {min(fail)}-{max(fail)} | "
                     f"{sorted({f / a for f, a in zip(fail, att)})} |")
    return "\n".join(lines)


def layer_table(traced: dict) -> str:
    """traced: workload -> one traced result object."""
    names = list(next(iter(traced.values()))["metrics"])
    lines = ["| metric | unit | " + " | ".join(traced) + " |",
             "|---|---|" + "---|" * len(traced)]
    for name in names:
        unit = next(iter(traced.values()))["metrics"][name]["unit"]
        cells = [f"{r['metrics'][name]['value']:.4g}" for r in traced.values()]
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def machine() -> str:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        rev = ""
    return (f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, git rev {rev or 'unknown'}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [run(w, s, seconds, 0) for s in SEEDS] for w in workloads}
    traced = {w: run(w, SEEDS[0], seconds, 1) for w in workloads}
    ok = all(r["correct"] for rows in results.values() for r in rows)
    ok = ok and all(r["correct"] for r in traced.values())
    print(machine())
    print()
    print(end_to_end_table(results))
    print()
    print(layer_table(traced))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
