"""Command line front end with JSON input/output.

File formats:
  * vector: {"labels": [...], "values": [[re, im], ...]}
  * matrix: {"row_labels": [...], "col_labels": [...],
             "values": [[[re, im], ...], ...]}
  * measurements: {"p": P, "order": "l-outer-k-inner", "values": [...]};
    the order tag is mandatory and must match the canonical enumeration.
Each values list holds all [re, im] pairs or all plain numbers (real data such as
moduli); a list that mixes the two, or a number outside double range, exits 2.

Exit codes: 0 success, 2 validation error (malformed input, length
mismatch, p or n above errors.MAX_SIZE, inadmissible generator), 3 numerical
failure (tolerance exceeded during recovery).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import diagnostics, heisenberg, recovery
from .affine import ENUMERATION_ORDER_TAG
from .errors import BENCH_RTOL, InconsistentDataError
from .primefield import validate_prime

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# JSON plumbing: floats print as repr, the shortest form that round-trips a double,
# and output is byte-deterministic; a NaN or inf raises ValueError (exit code 2)


def _jsonable(obj):
    """The ``default`` hook of the encoder: arrays as lists, complex numbers as
    [re, im] pairs, numpy scalars as Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, allow_nan=False, default=_jsonable) + "\n")


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


def _is_number(v) -> bool:
    """A JSON number no larger in magnitude than the largest double; booleans count as 0, 1."""
    return isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _entries(values, where: str, ndim: int):
    """(name, entry) for each entry ``ndim`` lists deep, or a non-list above it, in order."""
    if ndim and isinstance(values, list):
        for i, v in enumerate(values):
            yield from _entries(v, f"{where}[{i}]", ndim - 1)
    else:
        yield where, values


def _complex_array(values, where: str, ndim: int, real: bool = False) -> np.ndarray:
    """A parsed values list of plain numbers, or of [re, im] pairs along one more axis,
    as an ``ndim``-d complex array by one ``np.asarray``; with ``real``, as a float one
    if every imaginary part is zero.  Only a list that fails these checks is walked, so
    that the ValueError names its first bad entry, or a mix of numbers and pairs."""
    try:
        a = np.asarray(values)
        ok = (a.dtype.kind in "biuf" and (a.ndim == ndim or a.ndim == ndim + 1 and a.shape[-1] == 2)
              and bool(np.isfinite(a).all()))  # json.load reads 1e400 as inf
    except ValueError:  # ragged, or numbers mixed with pairs
        ok = False
    if not ok:
        forms = set()  # the array's ndim: ndim for numbers, ndim + 1 for pairs
        for at, v in _entries(values, where, ndim):
            if _is_number(v):
                forms.add(ndim)
            elif isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
                forms.add(ndim + 1)
            else:
                raise ValueError(f"{at}: expected a number or [re, im] pair, got {v!r}")
        if len(forms) > 1:
            raise ValueError(f"{where}: mixes plain numbers with [re, im] pairs")
        try:
            a = np.asarray(values, dtype=float)  # integers beyond int64 convert here
        except ValueError:
            a = None
        if a is None or a.ndim != max(forms, default=ndim):
            raise ValueError(f"{where}: ragged, or not {ndim}-d")
    if a.ndim == ndim:
        return a.astype(float if real else complex)
    if not real:  # bit-exact: the pair's doubles are the complex number's
        return a.astype(float).view(complex)[..., 0]
    if np.any(a[..., 1]):
        raise ValueError(f"{where}: must be real, but an imaginary part is nonzero")
    return a[..., 0].astype(float)


def _read_vector(path: str, labels) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValueError(f"{path}: expected a vector object with a 'values' field")
    values = _complex_array(doc["values"], f"{path} values", 1)
    got = doc.get("labels")
    if got is not None and (not isinstance(got, list) or got != list(labels)):
        raise ValueError(f"{path}: labels {got!r} do not match expected {list(labels)}")
    if len(values) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} values, got {len(values)}")
    return values


def _read_matrix(path: str, shape=None, real: bool = False) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ValueError(f"{path}: expected a matrix object with a 'values' field")
    M = _complex_array(doc["values"], f"{path} values", 2, real)
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
    values = _complex_array(doc.get("values", []), f"{path} values", 1, real)
    if len(values) != p * (p - 1):
        raise ValueError(
            f"{path}: expected p(p-1) = {p * (p - 1)} values, got {len(values)}"
        )
    return values


def _vector_doc(values, labels) -> dict:
    return {"labels": list(labels), "values": np.asarray(values, dtype=complex)}


def _matrix_doc(M, row_labels, col_labels) -> dict:
    return {"row_labels": list(row_labels), "col_labels": list(col_labels),
            "values": np.asarray(M, dtype=complex)}


def _measurement_doc(F, p: int) -> dict:
    return {"p": p, "order": ENUMERATION_ORDER_TAG, "values": np.asarray(F, dtype=complex)}


def _emit_with_residual(out: dict, resid, F) -> int:
    """Print ``out`` with the residual ||fit - F|| that recovery formed and its ratio to ||F||."""
    resid = float(resid)
    scale = max(float(np.linalg.norm(F)), np.finfo(float).tiny)
    _emit({**out, "residual": resid, "relative_residual": resid / scale})
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_generator(args) -> int:
    validate_prime(args.p)
    phi = _read_vector(args.phi, range(1, args.p))
    rep = recovery.check_generator(phi, args.p)
    reasons = [f"condition ({i})" for i, ok in (("i", rep.cond_i_holds), ("ii", rep.cond_ii_holds))
               if not ok]
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
    p = validate_prime(args.p)
    phi = _read_vector(args.phi, range(1, p))
    A = _read_matrix(args.matrix, (p - 1, p - 1))
    F = recovery.forward_measure(A, phi, p)
    _emit(_measurement_doc(F, p))
    return EXIT_OK


def _cmd_recover_matrix(args) -> int:
    p = validate_prime(args.p)
    phi = _read_vector(args.phi, range(1, p))
    F = _read_measurements(args.measurements, p)
    A, resid = recovery._recover_matrix(F, phi, p)
    return _emit_with_residual(_matrix_doc(A, range(1, p), range(1, p)), resid, F)


def _cmd_recover_vector(args) -> int:
    p = validate_prime(args.p)
    phi = _read_vector(args.phi, range(1, p))
    F = _read_measurements(args.measurements, p, real=True)
    f, resid = recovery._recover_vector(F.astype(complex), phi, p)
    return _emit_with_residual(_vector_doc(f, range(1, p)), resid, F)


#: each action of a subcommand and the options it cannot run without
_NEEDS = {"heisenberg": {"check": (), "forward": ("matrix",), "recover": ("measurements",)},
          "diagnostics": {"complement": ("vectors",), "full-spark": ("vectors",),
                          "conj-pr": ("moduli",),
                          "pauli": ("p", "f", "g"), "projection-pr": ("p", "moduli")}}


def _require(args, command: str, action: str) -> None:
    """ValueError naming the first option that ``command action`` runs without."""
    for name in _NEEDS[command][action]:
        if getattr(args, name) is None:
            raise ValueError(f"{command} {action} requires --{name}")


def _cmd_heisenberg(args) -> int:
    n = args.n
    heisenberg._check_n(n)
    _require(args, "heisenberg", args.action)
    phi = _read_vector(args.phi, range(n))
    if args.action == "check":
        _, bad, least = heisenberg._plan(phi)
        _emit({"n": n, "admissible": bad is None, "min_ambiguity_modulus": least})
    elif args.action == "forward":
        A = _read_matrix(args.matrix, (n, n))
        _emit(_matrix_doc(heisenberg.h_forward(A, phi), range(n), range(n)))
    else:  # the map is square and invertible, so min |A_phi| says more than a residual would
        A = heisenberg.h_recover(_read_matrix(args.measurements, (n, n)), phi)
        least = heisenberg._plan(phi)[2]
        _emit({**_matrix_doc(A, range(n), range(n)), "min_ambiguity_modulus": least})
    return EXIT_OK


def _read_vector_list(path: str) -> np.ndarray:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("vectors")
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"{path}: expected a nonempty list of vectors (or 'vectors' field)")
    return _complex_array(doc, f"{path} vectors", 2)


def _cmd_diagnostics(args) -> int:
    kind = args.kind
    _require(args, "diagnostics", kind)
    if kind == "complement":
        holds, witness = diagnostics.complement_property(_read_vector_list(args.vectors))
        out = {"holds": holds, "witness": list(witness) if witness else None}
    elif kind == "full-spark":
        out = {"full_spark": diagnostics.full_spark(_read_vector_list(args.vectors))}
    elif kind == "conj-pr":
        f = diagnostics.conjugate_phase_reconstruct(_read_matrix(args.moduli, real=True))
        out = _vector_doc(f, range(len(f)))
    elif kind == "pauli":
        p = validate_prime(args.p)
        f, g = _read_vector(args.f, range(p)), _read_vector(args.g, range(p))
        psi = _read_vector(args.psi, range(p)) if args.psi else recovery.canonical_time_generator(p)
        out = dataclasses.asdict(diagnostics.pauli_pair_family(f, g, psi))
    else:  # projection-pr
        p = validate_prime(args.p)
        D = _read_matrix(args.moduli, (p - 1, p), real=True)
        out = _vector_doc(diagnostics.recover_from_projection_moduli(D, p), range(p))
    _emit(out)
    return EXIT_OK


def _cmd_demo_counterexample(_args) -> int:
    rep = diagnostics.verify_counterexample_n3()
    _emit({"all_confirmed": rep.all_confirmed, **dataclasses.asdict(rep)})
    return EXIT_OK


def _cmd_bench(args) -> int:
    primes = [validate_prime(int(tok)) for tok in args.p_list.split(",")]
    rng = np.random.default_rng(0)
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
        if err > BENCH_RTOL:
            bound = np.format_float_scientific(BENCH_RTOL, trim="-", exp_digits=1)
            raise InconsistentDataError(f"bench round trip at p={p} exceeded {bound}: {err:.3e}")
        rows.append({"p": p, "forward_seconds": t1 - t0, "recover_seconds": t2 - t1,
                     "max_relative_error": err})
    _emit({"seed": 0, "results": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinephase",
        description="Phase retrieval and matrix recovery for affine group frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    affine = argparse.ArgumentParser(add_help=False)
    affine.add_argument("--p", type=int, required=True)
    affine.add_argument("--phi", required=True)

    s = sub.add_parser("check-generator", parents=[affine], help="evaluate generator admissibility")
    s.set_defaults(func=_cmd_check_generator)

    s = sub.add_parser("gen-vector", help="emit the canonical generator")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--time-side", action="store_true")
    s.set_defaults(func=_cmd_gen_vector)

    s = sub.add_parser("forward", parents=[affine], help="apply the measurement map to a matrix")
    s.add_argument("--matrix", required=True)
    s.set_defaults(func=_cmd_forward)

    s = sub.add_parser("recover-matrix", parents=[affine], help="invert the measurement map")
    s.add_argument("--measurements", required=True)
    s.set_defaults(func=_cmd_recover_matrix)

    s = sub.add_parser("recover-vector", parents=[affine], help="phase retrieval from modulus data")
    s.add_argument("--measurements", required=True)
    s.set_defaults(func=_cmd_recover_vector)

    s = sub.add_parser("heisenberg", help="Heisenberg group pipelines on Z_n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("action", choices=list(_NEEDS["heisenberg"]))
    s.add_argument("--phi", required=True)
    s.add_argument("--matrix")
    s.add_argument("--measurements")
    s.set_defaults(func=_cmd_heisenberg)

    s = sub.add_parser("diagnostics", help="frame diagnostics and reconstructions")
    s.add_argument("kind", choices=list(_NEEDS["diagnostics"]))
    s.add_argument("--vectors")
    s.add_argument("--moduli")
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
