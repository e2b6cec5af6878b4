import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinephase
from affinephase import diagnostics, heisenberg, recovery
from affinephase.cli import _emit, _read_matrix, main
from affinephase.recovery import (
    canonical_generator,
    canonical_time_generator,
    frame_vectors,
    phase_distance,
    recover_matrix,
)

RNG = np.random.default_rng(20240817)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_vector(path, values, labels):
    path.write_text(
        json.dumps(
            {"labels": list(labels), "values": [[z.real, z.imag] for z in map(complex, values)]}
        )
    )


def write_matrix(path, M):
    M = np.asarray(M, dtype=complex)
    path.write_text(
        json.dumps(
            {
                "row_labels": list(range(M.shape[0])),
                "col_labels": list(range(M.shape[1])),
                "values": [[[z.real, z.imag] for z in row] for row in M],
            }
        )
    )


def parse_vector(doc):
    return np.array([complex(re, im) for re, im in doc["values"]])


def parse_matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["values"]])


def emitted(capsys, doc):
    """What the CLI prints for ``doc``: the library's answer, serialized alike."""
    _emit(doc)
    return capsys.readouterr().out


def pairs(z):
    return [[c.real, c.imag] for c in np.asarray(z, dtype=complex)]


def test_gen_vector_canonical_p5(capsys):
    code, doc = run(capsys, "gen-vector", "--p", "5")
    assert code == 0
    assert doc["labels"] == [1, 2, 3, 4]
    assert np.allclose(parse_vector(doc), [0, 1, 1, 1])


def test_gen_vector_time_side_zero_sum(capsys):
    code, doc = run(capsys, "gen-vector", "--p", "7", "--time-side")
    assert code == 0
    v = parse_vector(doc)
    assert doc["labels"] == list(range(7))
    assert abs(v.sum()) < 1e-12


def test_check_generator_constant_vector(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    write_vector(phi, np.ones(4), range(1, 5))
    code, doc = run(capsys, "check-generator", "--p", "5", "--phi", str(phi))
    assert code == 0
    assert doc["admissible"] is False
    assert "condition (i)" in doc["reason"]


def test_forward_recover_round_trip(capsys, tmp_path):
    p = 5
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, canonical_generator(p), range(1, p))
    A = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    mat_path = tmp_path / "A.json"
    write_matrix(mat_path, A)

    code, meas = run(
        capsys, "forward", "--p", "5", "--phi", str(phi_path), "--matrix", str(mat_path)
    )
    assert code == 0
    assert meas["order"] == "l-outer-k-inner" and len(meas["values"]) == 20
    meas_path = tmp_path / "F.json"
    meas_path.write_text(json.dumps(meas))

    code, rec = run(
        capsys,
        "recover-matrix",
        "--p",
        "5",
        "--phi",
        str(phi_path),
        "--measurements",
        str(meas_path),
    )
    assert code == 0
    assert rec["relative_residual"] < 1e-10
    assert np.allclose(parse_matrix(rec), A, atol=1e-9)


def test_recover_vector(capsys, tmp_path):
    p = 5
    phi = canonical_generator(p)
    f = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    F = np.abs(frame_vectors(phi, p).conj() @ f) ** 2
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, phi, range(1, p))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(
        json.dumps({"p": p, "order": "l-outer-k-inner", "values": list(F)})
    )
    code, doc = run(
        capsys,
        "recover-vector",
        "--p",
        "5",
        "--phi",
        str(phi_path),
        "--measurements",
        str(meas_path),
    )
    assert code == 0
    assert phase_distance(parse_vector(doc), f) < 1e-8


def test_recover_vector_residual_matches_frame_vector_formula(capsys, tmp_path):
    p = 13
    phi = canonical_generator(p)
    f = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    W = frame_vectors(phi, p)
    # slightly perturbed moduli, so that the residual is not rounding noise
    F = np.abs(W.conj() @ f) ** 2 * (1 + 1e-9 * RNG.normal(size=p * (p - 1)))
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, phi, range(1, p))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(json.dumps({"p": p, "order": "l-outer-k-inner", "values": list(F)}))
    code, doc = run(
        capsys, "recover-vector", "--p", str(p), "--phi", str(phi_path), "--measurements", str(meas_path)
    )
    assert code == 0
    old = np.linalg.norm(np.abs(W.conj() @ parse_vector(doc)) ** 2 - F) / np.linalg.norm(F)
    assert old > 1e-11
    assert abs(doc["relative_residual"] - old) <= 1e-12


def test_exit_code_2_on_inadmissible(capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, np.ones(4), range(1, 5))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(
        json.dumps({"p": 5, "order": "l-outer-k-inner", "values": [0.0] * 20})
    )
    code = main(
        ["recover-matrix", "--p", "5", "--phi", str(phi_path), "--measurements", str(meas_path)]
    )
    assert code == 2
    assert "condition" in capsys.readouterr().err


def test_exit_code_2_on_bad_order_tag(capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, canonical_generator(5), range(1, 5))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(
        json.dumps({"p": 5, "order": "k-outer-l-inner", "values": [0.0] * 20})
    )
    code = main(
        ["recover-matrix", "--p", "5", "--phi", str(phi_path), "--measurements", str(meas_path)]
    )
    assert code == 2
    assert "order tag" in capsys.readouterr().err


def test_exit_code_2_on_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check-generator", "--p", "5", "--phi", str(bad)])
    assert code == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_exit_code_2_on_non_finite_json_token(capsys, tmp_path):
    p = 5
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, canonical_generator(p), range(1, p))
    meas_path = tmp_path / "F.json"
    for token in ("NaN", "Infinity", "-Infinity"):
        values = [float(token)] + [0.0] * (p * (p - 1) - 1)
        meas_path.write_text(json.dumps({"p": p, "order": "l-outer-k-inner", "values": values}))
        code = main(
            ["recover-matrix", "--p", "5", "--phi", str(phi_path), "--measurements", str(meas_path)]
        )
        assert code == 2
        assert f"non-finite number {token}" in capsys.readouterr().err


def test_exit_code_2_on_length_mismatch(capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"values": [[1.0, 0.0]] * 3}))
    code = main(["check-generator", "--p", "5", "--phi", str(phi_path)])
    assert code == 2
    assert "expected 4 values" in capsys.readouterr().err


def test_exit_code_3_on_inconsistent_measurements(capsys, tmp_path):
    p = 5
    phi = canonical_generator(p)
    f = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    g = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    W = frame_vectors(phi, p)
    F = 0.5 * (np.abs(W.conj() @ f) ** 2 + np.abs(W.conj() @ g) ** 2)
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, phi, range(1, p))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(
        json.dumps({"p": p, "order": "l-outer-k-inner", "values": list(F)})
    )
    code = main(
        ["recover-vector", "--p", "5", "--phi", str(phi_path), "--measurements", str(meas_path)]
    )
    assert code == 3


def test_heisenberg_pipeline(capsys, tmp_path):
    n = 4
    phi = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, phi, range(n))
    code, doc = run(capsys, "heisenberg", "--n", "4", "check", "--phi", str(phi_path))
    assert code == 0 and doc["admissible"]

    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    mat_path = tmp_path / "A.json"
    write_matrix(mat_path, A)
    code, F = run(
        capsys, "heisenberg", "--n", "4", "forward", "--phi", str(phi_path), "--matrix", str(mat_path)
    )
    assert code == 0
    meas_path = tmp_path / "F.json"
    meas_path.write_text(json.dumps(F))
    code, rec = run(
        capsys,
        "heisenberg",
        "--n",
        "4",
        "recover",
        "--phi",
        str(phi_path),
        "--measurements",
        str(meas_path),
    )
    assert code == 0
    assert np.allclose(parse_matrix(rec), A, atol=1e-9)


@pytest.mark.parametrize("action, option", [("forward", "matrix"), ("recover", "measurements")])
def test_exit_code_2_names_a_missing_heisenberg_option(capsys, tmp_path, action, option):
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, np.ones(4), range(4))
    assert main(["heisenberg", "--n", "4", action, "--phi", str(phi_path)]) == 2
    assert capsys.readouterr().err == f"error: heisenberg {action} requires --{option}\n"


def test_heisenberg_recover_reports_the_relative_residual(capsys, tmp_path):
    n = 5
    phi = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    F = heisenberg.h_forward(A, phi)
    paths = {name: tmp_path / f"{name}.json" for name in ("phi", "F")}
    write_vector(paths["phi"], phi, range(n))
    write_matrix(paths["F"], F)
    code, doc = run(capsys, "heisenberg", "--n", str(n), "recover", "--phi", str(paths["phi"]),
                    "--measurements", str(paths["F"]))
    assert code == 0 and np.allclose(parse_matrix(doc), A, atol=1e-9)
    assert doc["relative_residual"] == pytest.approx(doc["residual"] / np.linalg.norm(F), rel=1e-12)
    assert doc["relative_residual"] < 1e-10


def test_diagnostics_complement(capsys, tmp_path):
    V = RNG.normal(size=(6, 3))
    path = tmp_path / "vecs.json"
    path.write_text(json.dumps({"vectors": V.tolist()}))
    code, doc = run(capsys, "diagnostics", "complement", "--vectors", str(path))
    assert code == 0 and doc["holds"] is True


def test_diagnostics_conj_pr(capsys, tmp_path):
    f = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    f -= f.mean()
    D = np.abs(f[:, None] - f[None, :])
    path = tmp_path / "D.json"
    write_matrix(path, D)
    code, doc = run(capsys, "diagnostics", "conj-pr", "--moduli", str(path))
    assert code == 0
    g = parse_vector(doc)
    assert min(phase_distance(g, f), phase_distance(g, f.conj())) < 1e-8


@pytest.mark.parametrize("kind", ["conj-pr", "projection-pr"])
def test_exit_code_2_on_negative_moduli(capsys, tmp_path, kind):
    p = 5
    f = np.exp(2j * np.pi * np.arange(p) / p)  # zero-sum
    if kind == "conj-pr":
        D, extra = np.abs(f[:, None] - f[None, :]), []
        D[0, 1] = D[1, 0] = -D[0, 1]
    else:
        D = np.abs(np.fft.ifft(np.fft.fft(f) * (1 - np.eye(p)[1:]), axis=1))  # row l-1 drops l
        D[2, 3] = -D[2, 3]
        extra = ["--p", str(p)]
    path = tmp_path / "D.json"
    write_matrix(path, D)
    code = main(["diagnostics", kind, "--moduli", str(path), *extra])
    assert code == 2
    assert "is negative" in capsys.readouterr().err


def test_demo_counterexample(capsys):
    code, doc = run(capsys, "demo-counterexample")
    assert code == 0
    assert doc["all_confirmed"] is True


def test_bench(capsys):
    code, doc = run(capsys, "bench", "--p-list", "3,5")
    assert code == 0
    assert [r["p"] for r in doc["results"]] == [3, 5]
    assert all(r["max_relative_error"] <= 1e-9 for r in doc["results"])


def test_bench_ignores_the_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "abc")
    code, doc = run(capsys, "bench", "--p-list", "3")
    assert code == 0 and doc["seed"] == 0


def test_byte_determinism(capsys):
    main(["gen-vector", "--p", "7", "--time-side"])
    out1 = capsys.readouterr().out
    main(["gen-vector", "--p", "7", "--time-side"])
    out2 = capsys.readouterr().out
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [["gen-vector", "--p", str(2**61 - 1)], ["heisenberg", "--n", "10000", "check", "--phi", "phi.json"]],
)
def test_exit_code_2_promptly_on_size_beyond_limit(argv):
    # the size is refused before primality testing or reading any file
    env = {**os.environ, "PYTHONPATH": str(Path(affinephase.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "affinephase.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 2
    assert "exceeds the size limit MAX_SIZE" in out.stderr


def test_cli_import_pulls_in_no_scipy():
    code = "import sys, affinephase.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(affinephase.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fast_path_never_loads_the_oracles():
    code = """
import sys
import numpy as np
import affinephase.cli
from affinephase import heisenberg, recovery

p, n = 5, 4
phi = recovery.canonical_generator(p)
A = np.arange((p - 1) ** 2).reshape(p - 1, p - 1) + 1j
F = recovery.forward_measure(A, phi, p)
recovery.recover_matrix(F, phi, p)
f = np.arange(1, p) + 0.5j
W = recovery.frame_vectors(phi, p)
recovery.recover_vector(np.abs(W.conj() @ f) ** 2, phi, p)
phi_h = np.arange(1, n + 1) + 1j * np.arange(n) ** 2
heisenberg.h_recover(heisenberg.h_forward(np.eye(n), phi_h), phi_h)
print("affinephase.reference" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(affinephase.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_root_exports_no_oracle():
    oracles = {"AffineElement", "enumerate_group", "element_index", "pi_matrix", "pi_hat_matrix",
               "pi_hat0_matrix", "rho1_apply", "rho2_apply", "omega0", "omega1", "oracle_full_map",
               "oracle_recover", "plancherel_sides", "schrodinger_matrix", "dft_matrix",
               "CharacterTable", "chi_tilde", "dilation_index", "mod_inverse", "reference",
               "character_table", "chi_tilde_all", "pi_hat0_transform"}
    exported = {name for name, v in vars(affinephase).items()
                if not name.startswith("_") and not isinstance(v, type(affinephase))}
    assert not exported & oracles
    assert len(exported) <= 40


def test_recover_matrix_output_is_bit_equal_to_the_library(capsys, tmp_path):
    p = 13
    phi = canonical_generator(p)
    A = RNG.normal(size=(p - 1, p - 1)) + 1j * RNG.normal(size=(p - 1, p - 1))
    W = frame_vectors(phi, p)
    F = np.einsum("xm,mn,xn->x", W, A, W.conj())  # <A w, w> for each orbit vector w
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, phi, range(1, p))
    meas_path = tmp_path / "F.json"
    meas_path.write_text(json.dumps(
        {"p": p, "order": "l-outer-k-inner", "values": [[z.real, z.imag] for z in F]}))
    code, doc = run(capsys, "recover-matrix", "--p", str(p), "--phi", str(phi_path),
                    "--measurements", str(meas_path))
    assert code == 0
    expected = recover_matrix(F, phi, p)
    got = np.array(doc["values"], dtype=float)
    assert np.array_equal(got[..., 0], expected.real) and np.array_equal(got[..., 1], expected.imag)


def test_output_refuses_a_non_finite_value():
    with pytest.raises(ValueError):
        _emit({"residual": float("nan")})
    with pytest.raises(ValueError):
        _emit({"values": np.array([1.0, np.inf])})


# ---------------------------------------------------------------------------
# every reader, on the paths that only it takes


def test_diagnostics_pauli_matches_the_library(capsys, tmp_path):
    p = 5
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    paths = []
    for name, v in (("f", f), ("g", np.exp(1.3j) * f)):
        paths.append(tmp_path / f"{name}.json")
        write_vector(paths[-1], v, range(p))
    main(["diagnostics", "pauli", "--p", str(p), "--f", str(paths[0]), "--g", str(paths[1])])
    out = capsys.readouterr().out
    rep = diagnostics.pauli_pair_family(f, np.exp(1.3j) * f, canonical_time_generator(p))
    assert rep.all_hold and out == emitted(capsys, dataclasses.asdict(rep))


def test_diagnostics_full_spark_reads_pairs(capsys, tmp_path):
    V = RNG.normal(size=(5, 3)) + 1j * RNG.normal(size=(5, 3))
    path = tmp_path / "vecs.json"
    path.write_text(json.dumps([pairs(row) for row in V]))
    code, doc = run(capsys, "diagnostics", "full-spark", "--vectors", str(path))
    assert code == 0 and doc == {"full_spark": diagnostics.full_spark(V)} == {"full_spark": True}


def test_heisenberg_check_and_forward_match_the_library(capsys, tmp_path):
    n = 6
    phi = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    phi_path, mat_path = tmp_path / "phi.json", tmp_path / "A.json"
    write_vector(phi_path, phi, range(n))
    write_matrix(mat_path, A)
    main(["heisenberg", "--n", str(n), "check", "--phi", str(phi_path)])
    out = capsys.readouterr().out
    amb = float(np.min(np.abs(heisenberg.ambiguity(phi))))
    expected = {"n": n, "admissible": heisenberg.check_generator_h(phi), "min_ambiguity_modulus": amb}
    assert out == emitted(capsys, expected)
    main(["heisenberg", "--n", str(n), "forward", "--phi", str(phi_path), "--matrix", str(mat_path)])
    out = capsys.readouterr().out
    expected = {"row_labels": list(range(n)), "col_labels": list(range(n)),
                "values": heisenberg.h_forward(A, phi)}
    assert out == emitted(capsys, expected)


def test_heisenberg_check_builds_one_ambiguity_table(capsys, tmp_path, monkeypatch):
    # the verdict and the smallest modulus both come from the generator's plan
    calls = []
    build = heisenberg._ambiguity
    monkeypatch.setattr(heisenberg, "_ambiguity", lambda phi: calls.append(1) or build(phi))
    heisenberg._generator_plan.cache_clear()
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, np.ones(4), range(4))  # its ambiguity function vanishes
    code, doc = run(capsys, "heisenberg", "--n", "4", "check", "--phi", str(phi_path))
    assert code == 0 and doc["admissible"] is False and len(calls) == 1


def write_affine_inputs(tmp_path, p):
    """phi.json, A.json and F.json for ``forward`` and ``recover-matrix`` at p."""
    phi = canonical_generator(p)
    A = RNG.normal(size=(p - 1, p - 1)) + 1j * RNG.normal(size=(p - 1, p - 1))
    F = np.einsum("xm,mn,xn->x", frame_vectors(phi, p), A, frame_vectors(phi, p).conj())
    docs = {
        "phi": {"labels": list(range(1, p)), "values": pairs(phi)},
        "A": {"row_labels": list(range(1, p)), "col_labels": list(range(1, p)),
              "values": [pairs(row) for row in A]},
        "F": {"p": p, "order": "l-outer-k-inner", "values": pairs(F)},
    }
    return {name: tmp_path / f"{name}.json" for name in docs}, docs


def write_docs(paths, docs):
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))


def write_with(paths, docs, name, index, value):
    """Write every doc, with ``value`` at ``index`` of the values of ``name``."""
    entry = docs[name]["values"]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = value
    write_docs(paths, docs)


def run_affine(paths, command="forward", p=5):
    extra = ["--matrix", str(paths["A"])] if command == "forward" else ["--measurements", str(paths["F"])]
    return main([command, "--p", str(p), "--phi", str(paths["phi"]), *extra])


@pytest.mark.parametrize(
    "name, index, where",
    [("phi", (2,), "values[2]"), ("A", (1, 2), "values[1][2]"), ("F", (7,), "values[7]")],
    ids=["vector", "matrix", "measurements"],
)
def test_exit_code_2_names_the_bad_entry(capsys, tmp_path, name, index, where):
    paths, docs = write_affine_inputs(tmp_path, 5)
    write_with(paths, docs, name, index, "x")
    code = run_affine(paths, "forward" if name == "A" else "recover-matrix")
    assert code == 2
    assert f"{paths[name]} {where}: expected a number or [re, im] pair, got 'x'" in capsys.readouterr().err


def test_exit_code_2_on_label_mismatch(capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    write_vector(phi_path, canonical_generator(5), range(4))
    assert main(["check-generator", "--p", "5", "--phi", str(phi_path)]) == 2
    assert "do not match expected [1, 2, 3, 4]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, field, value, message",
    [("F", "values", 3, " values: ragged, or not 1-d"),
     ("phi", "labels", 5, ": labels 5 do not match expected [1, 2, 3, 4]")],
    ids=["measurement-values", "vector-labels"],
)
def test_exit_code_2_names_the_file_of_a_scalar_field(capsys, tmp_path, name, field, value, message):
    paths, docs = write_affine_inputs(tmp_path, 5)
    docs[name][field] = value
    write_docs(paths, docs)
    assert run_affine(paths, "recover-matrix") == 2
    assert f"{paths[name]}{message}" in capsys.readouterr().err


def test_exit_code_2_on_ragged_matrix(capsys, tmp_path):
    paths, docs = write_affine_inputs(tmp_path, 5)
    docs["A"]["values"][2].pop()
    write_docs(paths, docs)
    assert run_affine(paths, "forward") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", ["recover-vector", "conj-pr", "projection-pr"])
def test_exit_code_2_on_nonzero_imaginary_part(capsys, tmp_path, kind):
    p = 5
    path = tmp_path / "in.json"
    if kind == "recover-vector":
        phi_path = tmp_path / "phi.json"
        write_vector(phi_path, canonical_generator(p), range(1, p))
        values = [[1.0, 0.0]] * (p * (p - 1))
        values[3] = [1.0, 0.5]
        path.write_text(json.dumps({"p": p, "order": "l-outer-k-inner", "values": values}))
        argv = [kind, "--p", str(p), "--phi", str(phi_path), "--measurements", str(path)]
    else:
        shape = (p, p) if kind == "conj-pr" else (p - 1, p)
        D = np.ones(shape, dtype=complex)
        D[1, 2] += 0.5j
        write_matrix(path, D)
        argv = ["diagnostics", kind, "--moduli", str(path)] + (["--p", str(p)] if kind == "projection-pr" else [])
    assert main(argv) == 2
    assert "must be real" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, index, command",
    [("phi", (1,), "check-generator"), ("A", (0, 1), "forward"), ("F", (3,), "recover-matrix")],
    ids=["vector", "matrix", "measurements"],
)
def test_exit_code_2_on_an_integer_beyond_double_range(capsys, tmp_path, name, index, command):
    paths, docs = write_affine_inputs(tmp_path, 5)
    write_with(paths, docs, name, index, [10**400, 0])
    if command == "check-generator":
        code = main([command, "--p", "5", "--phi", str(paths["phi"])])
    else:
        code = run_affine(paths, command)
    assert code == 2
    where = "values" + "".join(f"[{i}]" for i in index)
    assert f"{paths[name]} {where}: expected a number or [re, im] pair, got [1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, index, command",
    [("phi", (1,), "check-generator"), ("A", (0, 1), "forward"), ("F", (3,), "recover-matrix")],
    ids=["vector", "matrix", "measurements"],
)
def test_exit_code_2_on_a_float_beyond_double_range(capsys, tmp_path, name, index, command):
    # json.load reads 1e400 as inf, which the reader names as a file entry
    paths, docs = write_affine_inputs(tmp_path, 5)
    write_with(paths, docs, name, index, ["BIG", 0])
    paths[name].write_text(paths[name].read_text().replace('"BIG"', "1e400"))
    if command == "check-generator":
        code = main([command, "--p", "5", "--phi", str(paths["phi"])])
    else:
        code = run_affine(paths, command)
    assert code == 2
    where = "values" + "".join(f"[{i}]" for i in index)
    assert f"{paths[name]} {where}: expected a number or [re, im] pair, got [inf, 0]" in capsys.readouterr().err


def test_exit_code_2_on_numbers_mixed_with_pairs(capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"labels": [1, 2, 3, 4], "values": [0, [1, 0], 1, 1]}))
    assert main(["check-generator", "--p", "5", "--phi", str(phi_path)]) == 2
    assert f"{phi_path} values: mixes plain numbers with [re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["pairs", "numbers"])
def test_forward_output_is_bit_equal_to_the_library(capsys, tmp_path, form):
    # -0.0 and integer entries read to the same doubles as complex(re, im) gives
    p = 13
    phi = canonical_generator(p)
    values = RNG.normal(size=(p - 1, p - 1, 2)).tolist()
    values[0][0], values[1][2], values[3][3] = [-0.0, 3], [2, -0.0], [-7, 0]
    if form == "numbers":
        values = [[re for re, _ in row] for row in values]
        A = np.array([[complex(re) for re in row] for row in values])
    else:
        A = np.array([[complex(re, im) for re, im in row] for row in values])
    paths, docs = write_affine_inputs(tmp_path, p)
    docs["A"]["values"] = values
    write_docs(paths, docs)
    assert _read_matrix(str(paths["A"])).tobytes() == A.tobytes()
    code, doc = run(capsys, "forward", "--p", str(p), "--phi", str(paths["phi"]), "--matrix", str(paths["A"]))
    assert code == 0
    expected = recovery.forward_measure(A, phi, p)
    assert np.array(doc["values"], dtype=float).tobytes() == expected.view(float).tobytes()


@pytest.mark.parametrize("kind, given, option", [
    ("complement", [], "vectors"), ("full-spark", [], "vectors"), ("conj-pr", [], "moduli"),
    ("pauli", ["--p", "5", "--f", "f.json"], "g"), ("pauli", [], "p"), ("pauli", ["--p", "5"], "f"),
    ("projection-pr", [], "p"), ("projection-pr", ["--p", "5"], "moduli"),
])
def test_exit_code_2_names_a_missing_diagnostics_option(capsys, kind, given, option):
    assert main(["diagnostics", kind, *given]) == 2
    assert capsys.readouterr().err == f"error: diagnostics {kind} requires --{option}\n"


def test_the_patch_stitch_is_gone(capsys, tmp_path):
    # argparse refuses the choice and exits; main does not return
    path = tmp_path / "patches.json"
    path.write_text(json.dumps({"n": 3, "patches": [{"support": [0, 1, 2], "values": [1, -2, 1]}]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["diagnostics", "stitch", "--patches", str(path)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'stitch'" in capsys.readouterr().err
    assert not hasattr(affinephase, "phase_propagation_stitch")
