import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinephase
from affinephase.cli import main
from affinephase.recovery import canonical_generator, frame_vectors, phase_distance

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


def test_demo_counterexample(capsys):
    code, doc = run(capsys, "demo-counterexample")
    assert code == 0
    assert doc["all_confirmed"] is True


def test_bench(capsys):
    code, doc = run(capsys, "bench", "--p-list", "3,5")
    assert code == 0
    assert [r["p"] for r in doc["results"]] == [3, 5]
    assert all(r["max_relative_error"] <= 1e-9 for r in doc["results"])


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
