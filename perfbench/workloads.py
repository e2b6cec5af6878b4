"""The benchmark's workloads.

Each is a closed loop with one caller.  ``make_input`` draws one op's
inputs and their ground truth from the generator, ``run`` is the timed op,
and ``check`` is the correctness gate, run outside the timed region; it
returns None or says what missed its bound.  The bounds are the acceptance
suite's.  The op calls the library through module attributes, so a tracer
that rebinds them sees the calls.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from affinephase import diagnostics, heisenberg, recovery

from . import generator as gen

MATRIX_RTOL = 1e-9
VECTOR_ATOL = 1e-8
THREE_TRANSITIVE_ATOL = 1e-6
#: library forward map against the generator's
FORWARD_RTOL = 1e-12


def _miss(what: str, err: float, bound: float) -> str | None:
    return None if err <= bound else f"{what} {err:.3e} > {bound:.0e}"


def _first_miss(*misses: str | None) -> str | None:
    return next((m for m in misses if m is not None), None)


class AffineLarge:
    """Matrix round trip at p=61 with a fresh random generator per op."""

    p = 61
    in_process = True

    def make_input(self, rng, i):
        p = self.p
        phi = gen.complex_gaussian(rng, p - 1)
        A = gen.complex_gaussian(rng, p - 1, p - 1)
        return {"phi": phi, "A": A, "F": gen.quadratic_measure(gen.affine_frame(phi, p), A)}

    def run(self, inp):
        F = recovery.forward_measure(inp["A"], inp["phi"], self.p)
        return F, recovery.recover_matrix(F, inp["phi"], self.p)

    def check(self, inp, out):
        F, A = out
        return _first_miss(
            _miss("forward map relative error", gen.relative_error(F, inp["F"]), FORWARD_RTOL),
            _miss("matrix relative error", gen.relative_error(A, inp["A"]), MATRIX_RTOL),
        )


class VectorSmall:
    """Phase retrieval at p=13 with the canonical generator on every op."""

    p = 13
    in_process = True

    def __init__(self):
        self.phi = gen.canonical_generator(self.p)
        self.W = gen.affine_frame(self.phi, self.p)

    def make_input(self, rng, i):
        f = gen.complex_gaussian(rng, self.p - 1)
        return {"f": f, "F": gen.modulus_measure(self.W, f).astype(complex)}

    def run(self, inp):
        return recovery.recover_vector(inp["F"], self.phi, self.p)

    def check(self, inp, out):
        return _miss("phase distance", gen.phase_distance(out, inp["f"]), VECTOR_ATOL)


class SidePipelines:
    """One Heisenberg round trip at n=48, 3-transitive retrieval on S(5) and
    retrieval from frequency-deleted moduli at p=13."""

    n = 48
    p = 13
    in_process = True

    def __init__(self):
        self.perms = gen.all_permutations(5)
        self.Wperm = gen.permutation_frame(self.perms, gen.time_generator_p3())

    def make_input(self, rng, i):
        n, p = self.n, self.p
        phi = gen.complex_gaussian(rng, n)
        A = gen.complex_gaussian(rng, n, n)
        f3 = gen.zero_sum(gen.complex_gaussian(rng, 5))
        fp = gen.zero_sum(gen.complex_gaussian(rng, p))
        return {
            "phi": phi, "A": A,
            "F": gen.quadratic_measure(gen.schrodinger_frame(phi), A).reshape(n, n),
            "f3": f3, "mags": np.abs(self.Wperm.conj() @ f3),
            "fp": fp, "moduli": gen.frequency_deleted_moduli(fp),
        }

    def run(self, inp):
        F = heisenberg.h_forward(inp["A"], inp["phi"])
        A = heisenberg.h_recover(F, inp["phi"])
        g3 = diagnostics.three_transitive_phase_retrieval(inp["mags"], self.perms)
        gp = diagnostics.recover_from_projection_moduli(inp["moduli"], self.p)
        return F, A, g3, gp

    def check(self, inp, out):
        F, A, g3, gp = out
        return _first_miss(
            _miss("Heisenberg forward relative error", gen.relative_error(F, inp["F"]),
                  FORWARD_RTOL),
            _miss("Heisenberg matrix relative error", gen.relative_error(A, inp["A"]),
                  MATRIX_RTOL),
            _miss("3-transitive phase distance", gen.phase_distance(g3, inp["f3"]),
                  THREE_TRANSITIVE_ATOL),
            _miss("projection phase distance", gen.phase_distance(gp, inp["fp"]), VECTOR_ATOL),
        )


def _vector_doc(values, labels) -> dict:
    return {"labels": list(labels), "values": [[z.real, z.imag] for z in values]}


def _matrix_doc(M, rows, cols) -> dict:
    return {"row_labels": list(rows), "col_labels": list(cols),
            "values": [[[z.real, z.imag] for z in row] for row in M]}


def _measurement_doc(values, p: int) -> dict:
    return {"p": p, "order": "l-outer-k-inner", "values": values}


def _complex_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class CliCalls:
    """One ``affinephase`` process per op, cycling four subcommands."""

    p = 13
    n = 16
    in_process = False
    commands = ("recover-vector", "recover-matrix", "heisenberg", "projection-pr")

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.phi = gen.canonical_generator(self.p)
        self.W = gen.affine_frame(self.phi, self.p)

    def _write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def make_input(self, rng, i):
        p, n = self.p, self.n
        kind = self.commands[i % len(self.commands)]
        phi_doc = _vector_doc(self.phi, range(1, p))
        if kind == "recover-vector":
            truth = gen.complex_gaussian(rng, p - 1)
            F = gen.modulus_measure(self.W, truth)
            argv = ["recover-vector", "--p", str(p), "--phi", self._write("phi.json", phi_doc),
                    "--measurements", self._write("F.json", _measurement_doc(F.tolist(), p))]
        elif kind == "recover-matrix":
            truth = gen.complex_gaussian(rng, p - 1, p - 1)
            F = gen.quadratic_measure(self.W, truth)
            values = [[z.real, z.imag] for z in F]
            argv = ["recover-matrix", "--p", str(p), "--phi", self._write("phi.json", phi_doc),
                    "--measurements", self._write("F.json", _measurement_doc(values, p))]
        elif kind == "heisenberg":
            phi = gen.complex_gaussian(rng, n)
            truth = gen.complex_gaussian(rng, n, n)
            F = gen.quadratic_measure(gen.schrodinger_frame(phi), truth).reshape(n, n)
            argv = ["heisenberg", "--n", str(n), "recover",
                    "--phi", self._write("phi_h.json", _vector_doc(phi, range(n))),
                    "--measurements", self._write("F_h.json", _matrix_doc(F, range(n), range(n)))]
        else:
            truth = gen.zero_sum(gen.complex_gaussian(rng, p))
            D = gen.frequency_deleted_moduli(truth)
            doc = {"row_labels": list(range(1, p)), "col_labels": list(range(p)),
                   "values": D.tolist()}
            argv = ["diagnostics", "projection-pr", "--p", str(p),
                    "--moduli", self._write("D.json", doc)]
        return {"kind": kind, "argv": argv, "truth": truth}

    def run(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "affinephase.cli", *inp["argv"]],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, inp):
        """The same call through ``cli.main`` in this process, for tracing."""
        from affinephase import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(inp["argv"])
        return code, buf.getvalue(), ""

    def check(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            return f"{inp['kind']} exited {code}: {stderr.strip()[-200:]}"
        doc = json.loads(stdout)
        got = _complex_array(doc["values"])
        truth = inp["truth"]
        if inp["kind"] in ("recover-matrix", "heisenberg"):
            return _miss(f"{inp['kind']} relative error", gen.relative_error(got, truth),
                         MATRIX_RTOL)
        return _miss(f"{inp['kind']} phase distance", gen.phase_distance(got, truth),
                     VECTOR_ATOL)


def make(name: str, workdir: Path, env: dict):
    if name == "affine-large":
        return AffineLarge()
    if name == "vector-small":
        return VectorSmall()
    if name == "side-pipelines":
        return SidePipelines()
    if name == "cli-calls":
        return CliCalls(workdir, env)
    raise ValueError(f"unknown workload {name!r}")
