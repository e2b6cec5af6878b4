import tracemalloc

import numpy as np
import pytest

from affinephase.errors import InadmissibleGeneratorError, InconsistentDataError
from affinephase.harmonics import dft
from affinephase.recovery import (
    b_phi,
    c_phi,
    canonical_generator,
    canonical_phase,
    canonical_time_generator,
    check_generator,
    forward_measure,
    frame_vectors,
    oracle_full_map,
    oracle_recover,
    phase_distance,
    recover_matrix,
    recover_vector,
)
from affinephase.affine import enumerate_group, pi_hat0_matrix

RNG = np.random.default_rng(20240817)
PRIMES = (3, 5, 7)


def rand_matrix(d):
    return RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))


def test_c_phi_canonical_p5_frozen():
    # direct evaluation: h = |phi(-l)|^2 = (1,1,1,0), summed against the
    # characters of Z_5^* (root 2, dlogs 0,1,3,2)
    c = c_phi(canonical_generator(5), 5)
    assert np.allclose(c, [3, 1, -1, 1], atol=1e-12)


def test_c_phi_against_direct_sum():
    p = 7
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    from affinephase.primefield import character_table

    t = character_table(p)
    for j in range(p - 1):
        direct = sum(abs(phi[(p - l) - 1]) ** 2 * t.chi(j, l) for l in range(1, p))
        assert abs(c_phi(phi, p)[j] - direct) < 1e-12


def test_b_phi_entry_formula():
    p = 5
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    B = b_phi(phi, p)
    assert B.shape == (p - 1, p - 2)
    for m in range(1, p):
        for n in range(1, p - 1):
            expected = phi[m * n % p - 1] * np.conj(phi[m * (n + 1) % p - 1])
            assert abs(B[m - 1, n - 1] - expected) < 1e-14


def test_canonical_generators_admissible():
    for p in (3, 5, 7, 11, 13):
        assert check_generator(canonical_generator(p), p).admissible, p


def test_constant_generator_fails_condition_i():
    for p in PRIMES:
        rep = check_generator(np.ones(p - 1), p)
        assert not rep.cond_i_holds
        assert not rep.admissible


def test_delta_generator_fails_condition_ii():
    for p in PRIMES:
        phi = np.zeros(p - 1)
        phi[1] = 1.0  # delta at label 2
        rep = check_generator(phi, p)
        assert not rep.cond_ii_holds


def generators(p):
    return canonical_generator(p), RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)


def inadmissible_generators(p):
    """ones (c_phi vanishes), delta at label 1 and delta at label p-1 (rank-deficient B_phi)."""
    return np.ones(p - 1), np.eye(p - 1)[0], np.eye(p - 1)[-1]


def test_frame_vectors_match_pi_hat0_action():
    for p in (3, 5, 7, 13, 31):
        for phi in generators(p):
            W = frame_vectors(phi, p)
            for i, x in enumerate(enumerate_group(p)):
                assert np.allclose(W[i], pi_hat0_matrix(x) @ phi, atol=1e-13), (p, x)


def test_forward_measure_is_quadratic_form():
    for p in (3, 5, 7, 13, 31):
        for phi in (*generators(p), *inadmissible_generators(p)):
            A = rand_matrix(p - 1)
            F = forward_measure(A, phi, p)
            scale = np.max(np.abs(F))
            for i, x in enumerate(enumerate_group(p)):
                w = pi_hat0_matrix(x) @ phi
                assert abs(F[i] - np.vdot(w, A @ w)) <= 1e-12 * scale, (p, x)


def test_round_trip_random_matrices():
    for p in PRIMES:
        phi = canonical_generator(p)
        for _ in range(3):
            A = rand_matrix(p - 1)
            rec = recover_matrix(forward_measure(A, phi, p), phi, p)
            assert np.linalg.norm(rec - A) < 1e-10 * np.linalg.norm(A), p


def test_round_trip_random_admissible_generator():
    p = 7
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    assert check_generator(phi, p).admissible
    A = rand_matrix(p - 1)
    rec = recover_matrix(forward_measure(A, phi, p), phi, p)
    assert np.linalg.norm(rec - A) < 1e-9 * np.linalg.norm(A)


def test_structured_recovery_agrees_with_oracle():
    for p in PRIMES:
        phi = canonical_generator(p)
        A = rand_matrix(p - 1)
        F = forward_measure(A, phi, p)
        assert np.allclose(recover_matrix(F, phi, p), oracle_recover(F, phi, p), atol=1e-8)


def test_inadmissible_generator_raises_with_reason():
    p = 5
    with pytest.raises(InadmissibleGeneratorError, match=r"condition.*\(i\)"):
        recover_matrix(np.zeros(p * (p - 1)), np.ones(p - 1), p)
    with pytest.raises(InadmissibleGeneratorError):
        oracle_recover(np.zeros(p * (p - 1)), np.ones(p - 1), p)


def test_recover_vector_round_trip_and_phase_invariance():
    for p in (5, 7):
        phi = canonical_generator(p)
        f = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
        F = np.abs(frame_vectors(phi, p).conj() @ f) ** 2
        rec = recover_vector(F.astype(complex), phi, p)
        assert phase_distance(rec, f) < 1e-8
        rec2 = recover_vector(
            np.abs(frame_vectors(phi, p).conj() @ (np.exp(0.37j) * f)) ** 2, phi, p
        )
        assert np.allclose(rec, rec2, atol=1e-8)


def test_recover_vector_rejects_inconsistent_measurements():
    p = 5
    phi = canonical_generator(p)
    f = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    g = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    # mixing modulus data of two unrelated vectors is not explained by any f
    F = 0.5 * (
        np.abs(frame_vectors(phi, p).conj() @ f) ** 2
        + np.abs(frame_vectors(phi, p).conj() @ g) ** 2
    )
    with pytest.raises(InconsistentDataError):
        recover_vector(F.astype(complex), phi, p)


def test_canonical_phase_representative():
    v = np.array([1j, -2.0, 0.5])
    w = canonical_phase(v)
    i = int(np.argmax(np.abs(w)))
    assert abs(w[i].imag) < 1e-14 and w[i].real > 0
    assert np.allclose(canonical_phase(np.exp(1.2j) * v), w, atol=1e-13)


def test_phase_distance_properties():
    u = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    assert phase_distance(u, np.exp(0.9j) * u) < 1e-12
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    assert phase_distance(u, v) <= np.linalg.norm(u - v) + 1e-12


def test_time_side_generator_matches_fourier_side():
    # dft(psi) vanishes at frequency 0 and restricts to a multiple of the
    # canonical generator on {1..p-1}
    for p in (3, 5, 7, 11):
        psi = canonical_time_generator(p)
        ph = dft(psi)
        assert abs(ph[0]) < 1e-12
        phi = canonical_generator(p)
        nz = np.abs(phi) > 0
        ratios = ph[1:][nz] / phi[nz]
        assert np.allclose(ratios, ratios[0], atol=1e-12)
        assert np.max(np.abs(ph[1:][~nz]), initial=0.0) < 1e-12


def test_oracle_full_map_rows():
    p = 5
    phi = canonical_generator(p)
    M = oracle_full_map(phi, p)
    A = rand_matrix(p - 1)
    F = forward_measure(A, phi, p)
    assert np.allclose(M @ A.reshape(-1), F, atol=1e-11)


def round_trip_peak(p):
    """(tracemalloc peak in bytes, relative error) of one round trip at p."""
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    A = rand_matrix(p - 1)
    tracemalloc.start()
    try:
        rec = recover_matrix(forward_measure(A, phi, p), phi, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, np.linalg.norm(rec - A) / np.linalg.norm(A)


def test_round_trip_peak_memory_at_p101():
    # a stack of all p(p-1) dense pi_hat0 matrices would take 1.6 GB at p=101
    peak, err = round_trip_peak(101)
    assert peak < 100e6, peak
    assert err <= 1e-9


def test_round_trip_peak_memory_at_p211():
    # both directions hold O(p^2) memory; O(p^3) intermediates would take 300 MB
    peak, err = round_trip_peak(211)
    assert peak < 20e6, peak
    assert err <= 1e-9


def test_one_svd_per_recovery_and_none_per_forward(monkeypatch):
    calls = {"svd": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
    p = 13
    phi = canonical_generator(p)
    F = forward_measure(rand_matrix(p - 1), phi, p)
    assert calls == {"svd": 0, "pinv": 0}
    recover_matrix(F, phi, p)
    assert calls == {"svd": 1, "pinv": 0}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_input_rejected_naming_the_argument(bad):
    p = 5
    phi = canonical_generator(p)
    A = rand_matrix(p - 1)
    F = forward_measure(A, phi, p)
    bad_phi, bad_A, bad_F = phi.copy(), A.copy(), F.copy()
    bad_phi[2] = bad_A[1, 3] = bad_F[7] = bad
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        forward_measure(A, bad_phi, p)
    with pytest.raises(ValueError, match="A has a non-finite entry"):
        forward_measure(bad_A, phi, p)
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        recover_matrix(F, bad_phi, p)
    with pytest.raises(ValueError, match="F has a non-finite entry"):
        recover_matrix(bad_F, phi, p)
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        recover_vector(np.abs(F), bad_phi, p)
    with pytest.raises(ValueError, match="F has a non-finite entry"):
        recover_vector(np.abs(bad_F), phi, p)
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        check_generator(bad_phi, p)
