"""One benchmark worker: a fresh process that times set-up, then optionally
a loop of ops, untraced or traced.

run.py starts it as ``python -m perfbench.worker`` with the checkout's
``src`` on PYTHONPATH and BLAS pinned to one thread; it prints one JSON
line.  Modes:

  setup    import affinephase, run the cold first op, then the reference
           kernel for SETUP_REFERENCE_S
  measure  set-up, then ops for --seconds, each followed by the reference
           kernel
  trace    set-up and ops under the tracer for half of --seconds, then
           untraced ops for the other half, for the tracer's overhead
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from perfbench import layers
from perfbench.tracer import COLD, Tracer

#: how many failure messages a worker reports
MAX_ERRORS = 5
#: time in the reference kernel after each op, as a share of the op's time
REFERENCE_SHARE = 0.25
#: time in the reference kernel right after set-up
SETUP_REFERENCE_S = 0.5


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample, with its percentile.  With 10 samples or fewer, the
    largest."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Reference:
    """A fixed kernel run after every op: small-array numpy calls, small
    LAPACK factorizations and interpreter work, like the library's per-call
    code but none of it affinephase.

    A shared host slows a run by up to about 1.8x while other tenants are
    busy, for seconds to minutes at a time.  Interleaved with the ops, the
    kernel sees the same slowdown on average: its mean time over a stretch,
    divided by its fast time (the lowest 5th percentile any worker of the
    run saw), is that stretch's contention factor.
    """

    def __init__(self, np):
        self.np = np
        self.matrix = np.random.default_rng(0).normal(size=(12, 12)) + 0j
        self.index = (np.arange(1, 13)[:, None] * np.arange(1, 12)[None, :]) % 13 - 1
        self.svd, self.eigh = np.linalg.svd, np.linalg.eigh
        self.samples: list[float] = []

    def _kernel(self) -> None:
        np, M = self.np, self.matrix
        for _ in range(10):
            w = np.exp(-2j * np.pi * np.arange(12) / 13)
            B = (M @ M.conj().T)[self.index, 0] * w[:, None]
            np.abs(B.sum(axis=1)) ** 2
        self.svd(M, compute_uv=False)
        self.eigh(M @ M.conj().T)
        s = 0
        for i in range(1000):
            s += i * i

    def run_for(self, seconds: float) -> list[float]:
        """Run the kernel at least once, until `seconds` have been spent;
        return the times of these runs."""
        first = len(self.samples)
        spent = 0.0
        while spent < seconds or len(self.samples) == first:
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
            spent += self.samples[-1]
        return self.samples[first:]

    def fast(self) -> float:
        return statistics.quantiles(self.samples, n=20)[0]


class Loop:
    """Closed loop of ops: draw inputs, time the op, gate the result."""

    def __init__(self, wl, run, rng, tracer=None):
        self.wl, self.run, self.rng, self.tracer = wl, run, rng, tracer
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, trace_index: int | None = None) -> float:
        inp = self.wl.make_input(self.rng, self.index)
        self.index += 1
        if self.tracer is not None:
            self.tracer.op = trace_index
        miss = None
        start = time.perf_counter()
        try:
            out = self.run(inp)
        except Exception as e:  # a failed op is counted, not fatal
            miss = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        if miss is None:
            try:
                miss = self.wl.check(inp, out)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                miss = f"unreadable output: {type(e).__name__}: {e}"
        self.attempted += 1
        if miss is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(miss)
        return elapsed

    def timed(self, seconds: float, traced: bool = False, reference=None) -> list[float]:
        latencies = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            latencies.append(self.op(len(latencies) if traced else None))
            if reference is not None:
                reference.run_for(REFERENCE_SHARE * latencies[-1])
        return latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    from perfbench import workloads  # imports affinephase, numpy and scipy
    import_s = time.perf_counter() - start

    import affinephase
    import numpy as np

    if not Path(affinephase.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: affinephase imported from {affinephase.__file__}, "
              f"not from {root / 'src'}", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            wl = workloads.make(args.workload, workdir, dict(os.environ))
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        rng = np.random.default_rng(args.seed)
        result = {}
        if args.mode == "trace":
            result = traced(wl, rng, args.seconds)
        else:
            loop = Loop(wl, wl.run, rng)
            reference = Reference(np)
            result["setup_s"] = loop.op() + (import_s if wl.in_process else 0.0)
            result["setup_reference_s"] = statistics.mean(reference.run_for(SETUP_REFERENCE_S))
            if args.mode == "measure":
                failed_in_setup = loop.failed
                ran = len(reference.samples)
                latencies = loop.timed(args.seconds, reference=reference)
                who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
                tail_s, tail_pct = tail(latencies)
                result.update(
                    ops=len(latencies),
                    verified=len(latencies) - (loop.failed - failed_in_setup),
                    timed_s=sum(latencies),
                    loop_reference_s=statistics.mean(reference.samples[ran:]),
                    p50_ms=1e3 * statistics.median(latencies),
                    tail_ms=1e3 * tail_s,
                    tail_percentile=tail_pct,
                    peak_rss_mb=resource.getrusage(who).ru_maxrss * 1024 / 1e6,
                )
            result.update(reference_fast_s=reference.fast(), reference_runs=len(reference.samples),
                          attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced(wl, rng, seconds: float) -> dict:
    """Cold op and a loop under the tracer, then the same loop untraced."""
    run = getattr(wl, "run_in_process", wl.run)
    tracer = Tracer("affinephase", layers.TARGETS)
    tracer.install()
    loop = Loop(wl, run, rng, tracer)
    try:
        loop.op(COLD)
        traced_lat = loop.timed(seconds / 2, traced=True)
    finally:
        tracer.uninstall()
    untraced_lat = loop.timed(seconds / 2)
    metrics = layers.traced_metrics(
        tracer.summary(),
        ops=len(traced_lat),
        traced_p50_ms=1e3 * statistics.median(traced_lat),
        untraced_p50_ms=1e3 * statistics.median(untraced_lat),
        coverage=tracer.top_level_seconds() / sum(traced_lat),
    )
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "traced_ops": len(traced_lat),
        "untraced_ops": len(untraced_lat),
        "spans": len(tracer.spans),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
    }


if __name__ == "__main__":
    sys.exit(main())
