"""Command line front end with JSON input/output.

File formats:
  * vector: {"labels": [...], "values": [[re, im], ...]}
  * matrix: {"row_labels": [...], "col_labels": [...],
             "values": [[[re, im], ...], ...]}
  * measurements: {"p": P, "order": "l-outer-k-inner", "values": [...]}
    with values either [re, im] pairs or plain numbers (modulus data);
    the order tag is mandatory and must match the canonical enumeration.

Exit codes: 0 success, 2 validation error (malformed input, length
mismatch, p or n above errors.MAX_SIZE, inadmissible generator), 3 numerical
failure (tolerance exceeded during recovery).  The SEED environment variable overrides the
default seed of randomized subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import diagnostics, heisenberg, recovery
from .affine import ENUMERATION_ORDER_TAG
from .errors import InconsistentDataError
from .primefield import validate_prime

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# JSON plumbing: floats rendered with 17 significant digits so that doubles
# round-trip exactly and output is byte-deterministic


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(float(x), ".17g")


def _dump(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_dump(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(obj) -> None:
    sys.stdout.write(_dump(obj) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or a NaN/Infinity token
        raise ValueError(f"malformed JSON in {path}: {e}") from e


def _as_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(v, (int, float)) for v in entry)
    ):
        return complex(entry[0], entry[1])
    raise ValueError(f"{where}: expected a number or [re, im] pair, got {entry!r}")


def _read_vector(path: str, expected_labels=None) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValueError(f"{path}: expected a vector object with a 'values' field")
    values = np.array(
        [_as_complex(v, f"{path} values[{i}]") for i, v in enumerate(doc["values"])]
    )
    if expected_labels is not None:
        labels = doc.get("labels")
        if labels is not None and list(labels) != list(expected_labels):
            raise ValueError(
                f"{path}: labels {labels} do not match expected {list(expected_labels)}"
            )
        if len(values) != len(expected_labels):
            raise ValueError(
                f"{path}: expected {len(expected_labels)} values, got {len(values)}"
            )
    return values


def _read_matrix(path: str, shape=None) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValueError(f"{path}: expected a matrix object with a 'values' field")
    rows = doc["values"]
    M = np.array(
        [
            [_as_complex(v, f"{path} values[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    )
    if M.ndim != 2:
        raise ValueError(f"{path}: ragged or non-2d matrix values")
    if shape is not None and M.shape != shape:
        raise ValueError(f"{path}: expected shape {shape}, got {M.shape}")
    return M


def _read_measurements(path: str, p: int, real: bool = False) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a measurement object")
    if doc.get("p") != p:
        raise ValueError(f"{path}: file p={doc.get('p')} does not match --p {p}")
    if doc.get("order") != ENUMERATION_ORDER_TAG:
        raise ValueError(
            f"{path}: order tag {doc.get('order')!r} must be {ENUMERATION_ORDER_TAG!r}"
        )
    values = doc.get("values", [])
    if len(values) != p * (p - 1):
        raise ValueError(
            f"{path}: expected p(p-1) = {p * (p - 1)} values, got {len(values)}"
        )
    F = np.array([_as_complex(v, f"{path} values[{i}]") for i, v in enumerate(values)])
    if real:
        if np.max(np.abs(F.imag), initial=0.0) > 0:
            raise ValueError(f"{path}: modulus measurements must be real")
        return F.real
    return F


def _vector_doc(values, labels) -> dict:
    return {"labels": list(labels), "values": np.asarray(values, dtype=complex)}


def _matrix_doc(M, row_labels, col_labels) -> dict:
    return {
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "values": np.asarray(M, dtype=complex),
    }


def _measurement_doc(F, p: int) -> dict:
    return {"p": p, "order": ENUMERATION_ORDER_TAG, "values": np.asarray(F, dtype=complex)}


def _seed(default: int = 0) -> int:
    raw = os.environ.get("SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as e:
        raise ValueError(f"SEED must be an integer, got {raw!r}") from e


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_generator(args) -> int:
    validate_prime(args.p)
    phi = _read_vector(args.phi, range(1, args.p))
    rep = recovery.check_generator(phi, args.p)
    reasons = []
    if not rep.cond_i_holds:
        reasons.append("condition (i)")
    if not rep.cond_ii_holds:
        reasons.append("condition (ii)")
    _emit(
        {
            "p": rep.p,
            "admissible": rep.admissible,
            "reason": " and ".join(reasons) if reasons else None,
            "cond_i_holds": rep.cond_i_holds,
            "cond_i_values": rep.cond_i_values,
            "cond_ii_holds": rep.cond_ii_holds,
            "b_phi_rank": rep.b_phi_rank,
            "b_phi_full_rank_needed": rep.p - 2,
        }
    )
    return EXIT_OK


def _cmd_gen_vector(args) -> int:
    validate_prime(args.p)
    if args.time_side:
        v = recovery.canonical_time_generator(args.p)
        labels = range(args.p)
    else:
        v = recovery.canonical_generator(args.p)
        labels = range(1, args.p)
    _emit(_vector_doc(v, labels))
    return EXIT_OK


def _cmd_forward(args) -> int:
    p = args.p
    validate_prime(p)
    phi = _read_vector(args.phi, range(1, p))
    A = _read_matrix(args.matrix, (p - 1, p - 1))
    F = recovery.forward_measure(A, phi, p)
    _emit(_measurement_doc(F, p))
    return EXIT_OK


def _cmd_recover_matrix(args) -> int:
    p = args.p
    validate_prime(p)
    phi = _read_vector(args.phi, range(1, p))
    F = _read_measurements(args.measurements, p)
    A = recovery.recover_matrix(F, phi, p)
    resid = float(np.linalg.norm(recovery.forward_measure(A, phi, p) - F))
    scale = max(float(np.linalg.norm(F)), np.finfo(float).tiny)
    out = _matrix_doc(A, range(1, p), range(1, p))
    out["residual"] = resid
    out["relative_residual"] = resid / scale
    _emit(out)
    return EXIT_OK


def _cmd_recover_vector(args) -> int:
    p = args.p
    validate_prime(p)
    phi = _read_vector(args.phi, range(1, p))
    F = _read_measurements(args.measurements, p, real=True)
    f = recovery.recover_vector(F.astype(complex), phi, p)
    pred = recovery.forward_measure(np.outer(f, f.conj()), phi, p).real  # |<f, w_x>|^2
    resid = float(np.linalg.norm(pred - F))
    scale = max(float(np.linalg.norm(F)), np.finfo(float).tiny)
    out = _vector_doc(f, range(1, p))
    out["residual"] = resid
    out["relative_residual"] = resid / scale
    _emit(out)
    return EXIT_OK


def _cmd_heisenberg(args) -> int:
    n = args.n
    heisenberg._check_n(n)
    phi = _read_vector(args.phi, range(n))
    if args.action == "check":
        amb = heisenberg.ambiguity(phi)
        ok = heisenberg.check_generator_h(phi)
        _emit(
            {
                "n": n,
                "admissible": ok,
                "min_ambiguity_modulus": float(np.min(np.abs(amb))),
            }
        )
        return EXIT_OK
    if args.action == "forward":
        if args.matrix is None:
            raise ValueError("heisenberg forward requires --matrix")
        A = _read_matrix(args.matrix, (n, n))
        F = heisenberg.h_forward(A, phi)
        _emit(_matrix_doc(F, range(n), range(n)))
        return EXIT_OK
    # recover
    if args.measurements is None:
        raise ValueError("heisenberg recover requires --measurements")
    F = _read_matrix(args.measurements, (n, n))
    A = heisenberg.h_recover(F, phi)
    resid = float(np.linalg.norm(heisenberg.h_forward(A, phi) - F))
    out = _matrix_doc(A, range(n), range(n))
    out["residual"] = resid
    _emit(out)
    return EXIT_OK


def _read_vector_list(path: str) -> np.ndarray:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("vectors")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: expected a nonempty list of vectors (or 'vectors' field)")
    return np.array(
        [[_as_complex(v, f"{path} vector {i}") for v in row] for i, row in enumerate(doc)]
    )


def _cmd_diagnostics(args) -> int:
    kind = args.kind
    if kind == "complement":
        V = _read_vector_list(args.vectors)
        holds, witness = diagnostics.complement_property(V)
        _emit({"holds": holds, "witness": list(witness) if witness else None})
        return EXIT_OK
    if kind == "full-spark":
        V = _read_vector_list(args.vectors)
        _emit({"full_spark": diagnostics.full_spark(V)})
        return EXIT_OK
    if kind == "conj-pr":
        D = _read_matrix(args.moduli)
        if np.max(np.abs(D.imag), initial=0.0) > 0:
            raise ValueError("moduli matrix must be real")
        f = diagnostics.conjugate_phase_reconstruct(D.real)
        _emit(_vector_doc(f, range(len(f))))
        return EXIT_OK
    if kind == "stitch":
        doc = _load_json(args.patches)
        if not isinstance(doc, dict) or "n" not in doc or "patches" not in doc:
            raise ValueError(f"{args.patches}: expected fields 'n' and 'patches'")
        patches = [
            diagnostics.PatchData(
                support=tuple(q["support"]),
                values=[_as_complex(v, "patch value") for v in q["values"]],
            )
            for q in doc["patches"]
        ]
        f = diagnostics.phase_propagation_stitch(patches, int(doc["n"]))
        _emit(_vector_doc(f, range(int(doc["n"]))))
        return EXIT_OK
    if kind == "pauli":
        p = args.p
        validate_prime(p)
        f = _read_vector(args.f, range(p))
        g = _read_vector(args.g, range(p))
        psi = (
            _read_vector(args.psi, range(p))
            if args.psi
            else recovery.canonical_time_generator(p)
        )
        _emit(dataclasses.asdict(diagnostics.pauli_pair_family(f, g, psi)))
        return EXIT_OK
    if kind == "projection-pr":
        p = args.p
        validate_prime(p)
        D = _read_matrix(args.moduli, (p - 1, p))
        if np.max(np.abs(D.imag), initial=0.0) > 0:
            raise ValueError("moduli table must be real")
        f = diagnostics.recover_from_projection_moduli(D.real, p)
        _emit(_vector_doc(f, range(p)))
        return EXIT_OK
    raise ValueError(f"unknown diagnostics kind {kind!r}")


def _cmd_demo_counterexample(_args) -> int:
    rep = diagnostics.verify_counterexample_n3()
    _emit({"all_confirmed": rep.all_confirmed, **dataclasses.asdict(rep)})
    return EXIT_OK


def _cmd_bench(args) -> int:
    primes = []
    for tok in args.p_list.split(","):
        p = int(tok)
        validate_prime(p)
        primes.append(p)
    rng = np.random.default_rng(_seed(0))
    rows = []
    for p in primes:
        phi = recovery.canonical_generator(p)
        A = rng.normal(size=(p - 1, p - 1)) + 1j * rng.normal(size=(p - 1, p - 1))
        t0 = time.perf_counter()
        F = recovery.forward_measure(A, phi, p)
        t1 = time.perf_counter()
        Arec = recovery.recover_matrix(F, phi, p)
        t2 = time.perf_counter()
        err = float(np.linalg.norm(Arec - A) / np.linalg.norm(A))
        if err > 1e-9:
            raise InconsistentDataError(
                f"bench round trip at p={p} exceeded 1e-9: {err:.3e}"
            )
        rows.append(
            {
                "p": p,
                "forward_seconds": t1 - t0,
                "recover_seconds": t2 - t1,
                "max_relative_error": err,
            }
        )
    _emit({"seed": _seed(0), "results": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinephase",
        description="Phase retrieval and matrix recovery for affine group frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-generator", help="evaluate generator admissibility")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--phi", required=True)
    s.set_defaults(func=_cmd_check_generator)

    s = sub.add_parser("gen-vector", help="emit the canonical generator")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--time-side", action="store_true")
    s.set_defaults(func=_cmd_gen_vector)

    s = sub.add_parser("forward", help="apply the measurement map to a matrix")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--phi", required=True)
    s.add_argument("--matrix", required=True)
    s.set_defaults(func=_cmd_forward)

    s = sub.add_parser("recover-matrix", help="invert the measurement map")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--phi", required=True)
    s.add_argument("--measurements", required=True)
    s.set_defaults(func=_cmd_recover_matrix)

    s = sub.add_parser("recover-vector", help="phase retrieval from modulus data")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--phi", required=True)
    s.add_argument("--measurements", required=True)
    s.set_defaults(func=_cmd_recover_vector)

    s = sub.add_parser("heisenberg", help="Heisenberg group pipelines on Z_n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("action", choices=["check", "forward", "recover"])
    s.add_argument("--phi", required=True)
    s.add_argument("--matrix")
    s.add_argument("--measurements")
    s.set_defaults(func=_cmd_heisenberg)

    s = sub.add_parser("diagnostics", help="frame diagnostics and reconstructions")
    s.add_argument(
        "kind",
        choices=["complement", "full-spark", "conj-pr", "stitch", "pauli", "projection-pr"],
    )
    s.add_argument("--vectors")
    s.add_argument("--moduli")
    s.add_argument("--patches")
    s.add_argument("--p", type=int)
    s.add_argument("--f")
    s.add_argument("--g")
    s.add_argument("--psi")
    s.set_defaults(func=_cmd_diagnostics)

    s = sub.add_parser("demo-counterexample", help="verify the dimension-3 counterexamples")
    s.set_defaults(func=_cmd_demo_counterexample)

    s = sub.add_parser("bench", help="round-trip benchmark over a list of primes")
    s.add_argument("--p-list", default="3,5,7,11,13")
    s.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
