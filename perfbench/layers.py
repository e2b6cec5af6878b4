"""Per-layer metrics: what the traced run reports, and which end-to-end
metric each one should move, on which workload.

The layers are affinephase's modules plus numpy.linalg, whose
factorizations show how often B_phi is factored.  BENCHMARK.json lists the
same names, units and directions; a test keeps the two in step.

Stats:
  calls_per_op    calls of the target per timed op
  self_ms_per_op  self time of the target per timed op
  self_ms_total   self time over the whole traced run, cold op included
  hit_ratio       lru_cache hits / lookups over the traced run
  cached_mb       bytes of the distinct arrays the cached target returned
  import_s, interpreter_start_s   fresh-interpreter timings, taken by run.py
  overhead_ratio  traced op_p50_ms / untraced op_p50_ms, in one process
  coverage        share of timed op time spent inside outermost spans
"""

from __future__ import annotations

# (name, unit, better, target, stat, the end-to-end metric it should move)
LAYER_METRICS = [
    ("primefield.validate_prime.calls_per_op", "count", "lower",
     "affinephase.primefield:validate_prime", "calls_per_op",
     "op_p50_ms on affine-large and vector-small"),
    ("primefield.character_table.hit_ratio", "ratio", "higher",
     "affinephase.primefield:character_table", "hit_ratio", "setup_s"),
    ("harmonics.dft.self_ms", "ms", "lower",
     "affinephase.harmonics:dft", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("harmonics.idft.self_ms", "ms", "lower",
     "affinephase.harmonics:idft", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("affine.pi_hat0_stack.self_ms", "ms", "lower",
     "affinephase.affine:pi_hat0_stack", "self_ms_total", "setup_s on affine-large"),
    ("affine.pi_hat0_stack.cached_mb", "MB", "lower",
     "affinephase.affine:pi_hat0_stack", "cached_mb", "peak_rss_mb on affine-large"),
    ("affine.pi_hat0_stack.hit_ratio", "ratio", "higher",
     "affinephase.affine:pi_hat0_stack", "hit_ratio", "setup_s on affine-large"),
    ("affine.enumerate_group.calls_per_op", "count", "lower",
     "affinephase.affine:enumerate_group", "calls_per_op", "op_p50_ms on affine-large"),
    ("affine.s_inverse_apply.self_ms", "ms", "lower",
     "affinephase.affine:s_inverse_apply", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("affine.omega0.self_ms", "ms", "lower",
     "affinephase.affine:omega0", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("affine.omega1.self_ms", "ms", "lower",
     "affinephase.affine:omega1", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("group_fourier.chi_tilde_all.self_ms", "ms", "lower",
     "affinephase.group_fourier:chi_tilde_all", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("group_fourier.pi_hat0_transform.self_ms", "ms", "lower",
     "affinephase.group_fourier:pi_hat0_transform", "self_ms_per_op",
     "op_p50_ms on affine-large"),
    ("recovery.frame_vectors.self_ms", "ms", "lower",
     "affinephase.recovery:frame_vectors", "self_ms_per_op", "op_p50_ms on affine-large"),
    ("recovery.forward_measure.self_ms", "ms", "lower",
     "affinephase.recovery:forward_measure", "self_ms_per_op", "op_p50_ms on affine-large"),
    ("recovery.check_generator.self_ms", "ms", "lower",
     "affinephase.recovery:check_generator", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("recovery.c_phi.self_ms", "ms", "lower",
     "affinephase.recovery:c_phi", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("recovery.b_phi.self_ms", "ms", "lower",
     "affinephase.recovery:b_phi", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("recovery.recover_matrix.self_ms", "ms", "lower",
     "affinephase.recovery:recover_matrix", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("recovery.recover_vector.self_ms", "ms", "lower",
     "affinephase.recovery:recover_vector", "self_ms_per_op", "op_p50_ms on vector-small"),
    ("numpy.linalg.svd.calls_per_op", "count", "lower",
     "numpy.linalg:svd", "calls_per_op", "op_p50_ms on vector-small"),
    ("numpy.linalg.pinv.calls_per_op", "count", "lower",
     "numpy.linalg:pinv", "calls_per_op", "op_p50_ms on vector-small"),
    ("numpy.linalg.eigh.calls_per_op", "count", "lower",
     "numpy.linalg:eigh", "calls_per_op", "op_p50_ms on vector-small"),
    ("heisenberg.schrodinger_matrix.calls_per_op", "count", "lower",
     "affinephase.heisenberg:schrodinger_matrix", "calls_per_op",
     "op_p50_ms on side-pipelines"),
    ("heisenberg.ambiguity.self_ms", "ms", "lower",
     "affinephase.heisenberg:ambiguity", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("heisenberg.h_forward.self_ms", "ms", "lower",
     "affinephase.heisenberg:h_forward", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("heisenberg.h_recover.self_ms", "ms", "lower",
     "affinephase.heisenberg:h_recover", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("diagnostics.is_k_transitive.self_ms", "ms", "lower",
     "affinephase.diagnostics:is_k_transitive", "self_ms_per_op",
     "op_p50_ms on side-pipelines"),
    ("diagnostics.least_squares.calls_per_op", "count", "lower",
     "affinephase.diagnostics:least_squares", "calls_per_op", "op_p50_ms on side-pipelines"),
    ("diagnostics.least_squares.self_ms", "ms", "lower",
     "affinephase.diagnostics:least_squares", "self_ms_per_op", "op_p50_ms on side-pipelines"),
    ("diagnostics.phase_propagation_stitch.self_ms", "ms", "lower",
     "affinephase.diagnostics:phase_propagation_stitch", "self_ms_per_op",
     "op_p50_ms on side-pipelines"),
    ("diagnostics.three_transitive_phase_retrieval.self_ms", "ms", "lower",
     "affinephase.diagnostics:three_transitive_phase_retrieval", "self_ms_per_op",
     "op_p50_ms on side-pipelines"),
    ("diagnostics.recover_from_projection_moduli.self_ms", "ms", "lower",
     "affinephase.diagnostics:recover_from_projection_moduli", "self_ms_per_op",
     "op_p50_ms on side-pipelines"),
    ("cli.import_s", "s", "lower", None, "import_s",
     "op_p50_ms on cli-calls and setup_s on every workload"),
    ("cli.interpreter_start_s", "s", "lower", None, "interpreter_start_s",
     "none: the floor of every CLI call"),
    ("cli.main.self_ms", "ms", "lower",
     "affinephase.cli:main", "self_ms_per_op", "op_p50_ms on cli-calls"),
    ("trace.overhead_ratio", "ratio", "lower", None, "overhead_ratio", "none"),
    ("trace.coverage", "ratio", "higher", None, "coverage", "none"),
]

TARGETS = sorted({row[3] for row in LAYER_METRICS if row[3] is not None})


def traced_metrics(summary: dict, ops: int, traced_p50_ms: float,
                   untraced_p50_ms: float, coverage: float) -> dict[str, tuple[float, str]]:
    """Every metric the traced worker can compute, as name -> (value, unit)."""
    out = {}
    for name, unit, _, target, stat, _ in LAYER_METRICS:
        s = summary.get(target)
        if stat == "calls_per_op":
            value = s["op_calls"] / ops
        elif stat == "self_ms_per_op":
            value = 1e3 * s["op_self_s"] / ops
        elif stat == "self_ms_total":
            value = 1e3 * s["self_s"]
        elif stat == "hit_ratio":
            value = s["hit_ratio"]
        elif stat == "cached_mb":
            value = s["cached_bytes"] / 1e6
        elif stat == "overhead_ratio":
            value = traced_p50_ms / untraced_p50_ms
        elif stat == "coverage":
            value = coverage
        else:
            continue
        out[name] = (value, unit)
    return out
