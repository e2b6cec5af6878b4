"""affinephase benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library is imported from the
checkout's ``src``.  Timed ops run in fresh worker processes, one at a
time, on one CPU, with BLAS pinned to one thread; every op's result is
checked against ground truth the benchmark generates itself
(perfbench/generator.py).

With ``--trace 0`` the run reports the end-to-end metrics:

  setup_s      median over SETUP_SAMPLES fresh workers of the time to import
               affinephase plus the first, cold op (for cli-calls: the first
               call), each divided by the contention factor seen right
               after it; the last worker goes on to the timed loop
  ops_per_s    verified ops per second of timed op, at the host's
               uncontended speed: the measured rate times the loop's
               contention factor (see worker.Reference)
  peak_rss_mb  ru_maxrss of the timed worker; for cli-calls, of its largest
               child process

and, without a bound, op_p50_ms, op_tail_ms (the highest percentile with at
least 10 samples beyond it), the uncorrected set-up time and rate, and
fail_ratio.  On a shared host the uncorrected timings move with other
tenants' load by more than a bound could absorb.

With ``--trace 1`` a worker runs the loop under the tracer and reports the
per-layer metrics of perfbench/layers.py.

The line before the last holds the run's details: every metric with its
unit, the tail percentile and sample count, the set-up samples, the
contention factor and the environment.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: fresh workers that time set-up; the median is reported
SETUP_SAMPLES = 3
#: fresh interpreters behind cli.import_s and cli.interpreter_start_s
PROCESS_SAMPLES = 3
#: slack on top of --seconds before a worker is killed
WORKER_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import affinephase.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], env: dict, timeout: float) -> str:
    """Run the interpreter to completion; return its standard output.  On a
    timeout the whole process group is killed, the worker's own children
    included, and waited for."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args[:3])} ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited with code {proc.returncode}")
    return out


def worker(env: dict, args, mode: str, seconds: float = 0.0) -> dict:
    out = python(["-m", "perfbench.worker", "--workload", args.workload, "--seed",
                  str(args.seed), "--mode", mode, "--seconds", str(seconds)],
                 env, seconds + WORKER_TIMEOUT_S)
    return json.loads(out.splitlines()[-1])


def timed_interpreter(env: dict, code: str) -> float:
    start = time.perf_counter()
    python(["-c", code], env, WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "l3": (_read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "").strip() or None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": 1,
    }


def end_to_end(env: dict, args) -> tuple[dict, dict, dict]:
    setups = [worker(env, args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = worker(env, args, "measure", args.seconds)
    setups.append(run)
    # the reference kernel's uncontended time, and each stretch's slowdown
    fast = min(s["reference_fast_s"] for s in setups)
    setup_contention = [s["setup_reference_s"] / fast for s in setups]
    contention = run["loop_reference_s"] / fast
    raw_ops_per_s = run["verified"] / run["timed_s"]
    raw_setups = [s["setup_s"] for s in setups]
    metrics = {
        "setup_s": (statistics.median(t / c for t, c in zip(raw_setups, setup_contention)), "s"),
        "ops_per_s": (raw_ops_per_s * contention, "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    unbounded = {
        "op_p50_ms": (run["p50_ms"], "ms"),
        "op_tail_ms": (run["tail_ms"], "ms"),
        "raw_setup_s": (statistics.median(raw_setups), "s"),
        "raw_ops_per_s": (raw_ops_per_s, "1/s"),
    }
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    details = {
        "contention": contention,
        "setup_contention": setup_contention,
        "reference_runs": sum(s["reference_runs"] for s in setups),
        "tail_percentile": run["tail_percentile"],
        "samples": run["ops"],
        "setup_samples_s": raw_setups,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for s in setups for e in s["errors"]],
    }
    return metrics, unbounded, details


def per_layer(env: dict, args) -> tuple[dict, dict, dict]:
    run = worker(env, args, "trace", args.seconds)
    metrics = {k: (m["value"], m["unit"]) for k, m in run["metrics"].items()}
    metrics["cli.import_s"] = (statistics.median(
        float(python(["-c", IMPORT_PROBE], env, WORKER_TIMEOUT_S))
        for _ in range(PROCESS_SAMPLES)), "s")
    metrics["cli.interpreter_start_s"] = (statistics.median(
        timed_interpreter(env, "pass") for _ in range(PROCESS_SAMPLES)), "s")
    details = {
        "traced_ops": run["traced_ops"],
        "untraced_ops": run["untraced_ops"],
        "spans": run["spans"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "errors": run["errors"],
    }
    return metrics, {}, details


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "affinephase" / "__init__.py").is_file():
        print(f"error: no affinephase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    # one CPU for this process and every worker and child: the reference
    # kernel only tracks the ops' slowdown when both run on the same CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        # compile bytecode and warm the file cache, so no sample pays for it
        python(["-c", "import perfbench.workloads, affinephase.cli"], env, WORKER_TIMEOUT_S)
        metrics, unbounded, details = (per_layer if args.trace else end_to_end)(env, args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    unbounded["fail_ratio"] = (details["failed"] / details["attempted"], "ratio")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": as_json(metrics), "unbounded": as_json(unbounded),
        **details, "environment": environment(),
    }))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
