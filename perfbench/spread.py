"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workloads vector-small,cli-calls --runs 5
    python3 perfbench/spread.py --runs 10 --trace --out perfbench/baseline.json

Runs are sequential, one workload after another.  With ``--out`` the
medians, quartiles and spreads are written there as JSON together with one
traced run per workload when ``--trace`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its detail line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        rows = [run(workload, args.first_seed + i, SPEC["run_seconds"], 0)
                for i in range(args.runs)]
        entry = {"seeds": [args.first_seed + i for i in range(args.runs)],
                 "all_correct": all(r["correct"] for _, r in rows),
                 "tail_percentiles": [d["tail_percentile"] for d, _ in rows],
                 "samples": [d["samples"] for d, _ in rows],
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for _, r in rows])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"{workload:15s} {name:12s} median {s['median']:12.5g}  "
                  f"spread {s['spread']:.4f}  bound/3 {bound / 3:.4f}{flag}", flush=True)
        entry["unbounded"] = {
            name: summarize([d["unbounded"][name]["value"] for d, _ in rows])
            for name in rows[0][0]["unbounded"]
        }
        entry["contention"] = [d["contention"] for d, _ in rows]
        if args.trace:
            detail, result = run(workload, args.first_seed, SPEC["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["trace_correct"] = result["correct"]
        entry["environment"] = rows[0][0]["environment"]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
