import sys
import tracemalloc

import numpy as np
import pytest

from affinephase.errors import (RANK_ONE_RTOL, RANK_RTOL, TABLE_CACHE_SIZE,
                               InadmissibleGeneratorError, InconsistentDataError)
from affinephase.primefield import inverse_table, primitive_root, root_powers
from affinephase.recovery import (
    _generator_plan,
    _recover_matrix,
    b_phi,
    c_phi,
    canonical_generator,
    canonical_phase,
    canonical_time_generator,
    check_generator,
    forward_measure,
    phase_distance,
    recover_matrix,
    recover_vector,
)
from affinephase.affine import index_tables
from affinephase.reference import (character_table, dft_matrix, enumerate_group, frame_vectors,
                                   oracle_full_map, oracle_recover, pi_hat0_matrix)

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
    t = character_table(p)
    for j in range(p - 1):
        direct = sum(abs(phi[(p - l) - 1]) ** 2 * t[j, l - 1] for l in range(1, p))
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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_b_phi_of_rounding_noise_fails_condition_ii(p):
    # B_phi of delta_1 + 1e-17 is all noise, so relative to its own sigma_max it looks full rank
    phi = np.eye(p - 1)[0] + 1e-17
    rep = check_generator(phi, p)
    assert rep.b_phi_rank == 0 and not rep.cond_ii_holds and not rep.admissible
    with pytest.raises(InadmissibleGeneratorError, match=r"condition \(ii\) rank\(B_phi\) = 0"):
        recover_matrix(np.zeros(p * (p - 1)), phi, p)


def generators(p):
    return canonical_generator(p), RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)


def inadmissible_generators(p):
    """ones (c_phi vanishes), delta at label 1 and delta at label p-1 (rank-deficient B_phi)."""
    return np.ones(p - 1), np.eye(p - 1)[0], np.eye(p - 1)[-1]


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61])
def test_plan_character_sums_and_step_one_kernel_match_the_dense_table(p):
    chi = character_table(p)
    for phi in generators(p):
        c = chi @ np.abs(phi[::-1]) ** 2  # |phi(-l)|^2 at l-1
        assert np.max(np.abs(c_phi(phi, p) - c)) <= 1e-12 * np.max(np.abs(c))
        K = _generator_plan(p, phi.tobytes()).factors[2]
        want = chi.T @ (chi / c[:, None]) / (p * (p - 1))
        assert not K.flags.writeable
        assert np.max(np.abs(K - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [5, 13])
def test_generator_failing_condition_i_has_no_step_one_kernel(p):
    # |phi| = 1 puts equal weight on every l, so c_phi(chi_j) = 0 for j != 0
    phi = np.exp(2j * np.pi * RNG.uniform(size=p - 1))
    report, W, K, _ = _generator_plan(p, phi.tobytes()).factors
    assert not report.cond_i_holds and K is None
    with pytest.raises(InadmissibleGeneratorError) as exc:
        recover_matrix(np.zeros(p * (p - 1)), phi, p)
    assert str(exc.value) == "generator fails condition (i) a character sum c_phi vanishes"


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
    with pytest.raises(InconsistentDataError) as exc:
        recover_vector(F.astype(complex), phi, p)
    assert str(exc.value).startswith(
        "measurements inconsistent: recovered vector leaves relative forward residual"
    )
    assert str(exc.value).endswith(" > RANK_ONE_RTOL = 1e-06")
    assert exc.value.record is None


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
    # the unitary DFT of psi vanishes at frequency 0 and restricts to a multiple
    # of the canonical generator on {1..p-1}
    for p in (3, 5, 7, 11):
        psi = canonical_time_generator(p)
        ph = dft_matrix(p) @ psi
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


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_singular_values_of_the_measurement_map(p):
    # the map's singular values are sqrt(p) |c_phi(chi_j)|, once each, and
    # sqrt(p) sigma_i(B_phi), p - 1 times each
    rng = np.random.default_rng(p)
    for _ in range(3):
        phi = rng.normal(size=p - 1) + 1j * rng.normal(size=p - 1)
        sv = np.linalg.svd(oracle_full_map(phi, p), compute_uv=False)
        sigma_b = np.linalg.svd(b_phi(phi, p), compute_uv=False)
        expected = np.sqrt(p) * np.concatenate([np.abs(c_phi(phi, p)), np.repeat(sigma_b, p - 1)])
        assert np.max(np.abs(sv - np.sort(expected)[::-1])) <= 1e-12 * sv[0]


@pytest.mark.parametrize("p", [5, 13, 31, 61, 101])
def test_recovery_error_bound(p):
    # recovery is least squares against a map whose smallest singular value is
    # sqrt(p) min(min_j |c_phi(chi_j)|, sigma_min(B_phi)), which bounds the error
    rng = np.random.default_rng(p)
    phi = rng.normal(size=p - 1) + 1j * rng.normal(size=p - 1)
    sigma_min = np.linalg.svd(b_phi(phi, p), compute_uv=False)[-1]
    bound = 1 / (np.sqrt(p) * min(np.abs(c_phi(phi, p)).min(), sigma_min))
    A = rng.normal(size=(p - 1, p - 1)) + 1j * rng.normal(size=(p - 1, p - 1))
    F = forward_measure(A, phi, p)
    for _ in range(5):
        dF = rng.normal(size=F.shape) + 1j * rng.normal(size=F.shape)
        error = np.linalg.norm(recover_matrix(F + dF, phi, p) - A)
        assert error <= bound * np.linalg.norm(dF) * (1 + 1e-10)
    if p <= 13:  # attained for the dense map's left singular vector of its smallest value
        u = np.linalg.svd(oracle_full_map(phi, p))[0][:, (p - 1) ** 2 - 1]
        assert abs(np.linalg.norm(recover_matrix(u, phi, p)) - bound) <= 1e-10 * bound


@pytest.mark.parametrize("p", [3, 5, 13, 61, 211])
def test_cokernel_residual_equals_the_refit(p):
    # forward_measure is the oracle: the residual ||F - forward(recover(F))|| of random F,
    # one record or a stack, is read off the plan's left null vector u of B_phi
    rng = np.random.default_rng(p)
    for phi in generators(p):
        B, ur = b_phi(phi, p), _generator_plan(p, phi.tobytes()).factors[3]
        assert abs(np.linalg.norm(ur) - 1) <= 1e-14
        assert np.linalg.norm(B.conj().T @ ur[::-1]) <= 1e-13 * np.linalg.norm(B)
        F = rng.normal(size=(2, 3, p * (p - 1))) + 1j * rng.normal(size=(2, 3, p * (p - 1)))
        A, residual = _recover_matrix(F, phi, p)
        assert residual.shape == (2, 3) and np.array_equal(A, recover_matrix(F, phi, p))
        for i in np.ndindex(2, 3):
            refit = np.linalg.norm(F[i] - forward_measure(A[i], phi, p))
            assert abs(residual[i] - refit) <= 1e-12 * refit
            assert abs(_recover_matrix(F[i], phi, p)[1] - refit) <= 1e-12 * refit


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


def test_one_factorization_per_generator_and_none_per_forward(monkeypatch):
    calls = {"qr": 0, "svd": 0, "pinv": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _generator_plan.cache_clear()
    p = 13
    phi = canonical_generator(p)
    F = forward_measure(rand_matrix(p - 1), phi, p)
    assert calls == {"qr": 0, "svd": 0, "pinv": 0, "eigh": 0}
    recover_matrix(F, phi, p)
    assert calls == {"qr": 1, "svd": 0, "pinv": 0, "eigh": 0}
    # B_phi is factored once per generator, not once per recovery
    recover_matrix(np.stack([F, 2 * F, F.conj()]), phi, p)
    assert calls == {"qr": 1, "svd": 0, "pinv": 0, "eigh": 0}
    # with the plan warm, vector retrieval takes no factorization at all
    Fv = modulus_data(phi, p, RNG.normal(size=(3, p - 1)) + 1j * RNG.normal(size=(3, p - 1)))
    recover_vector(Fv[0], phi, p)
    recover_vector(Fv, phi, p)
    assert calls == {"qr": 1, "svd": 0, "pinv": 0, "eigh": 0}
    check_generator(phi, p)
    assert calls == {"qr": 1, "svd": 0, "pinv": 0, "eigh": 0}
    check_generator(2 * phi, p)
    assert calls == {"qr": 2, "svd": 0, "pinv": 0, "eigh": 0}
    # an uncertified rank is counted from the singular values of R, once
    assert check_generator(np.ones(p - 1), p).b_phi_rank < p - 2
    assert calls == {"qr": 3, "svd": 1, "pinv": 0, "eigh": 0}


def oracle_generators(p):
    """Random, canonical and 1 + i sqrt(p) delta_1 generators."""
    spike = np.ones(p - 1, dtype=complex)
    spike[0] += 1j * np.sqrt(p)
    return RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1), canonical_generator(p), spike


@pytest.mark.parametrize("p", [3, 5, 13, 61, 211])
def test_real_form_and_w_against_the_svd_oracle(p):
    eps = np.finfo(float).eps
    for phi in oracle_generators(p):
        B = b_phi(phi, p)
        # conj(B_phi(-m, n)) = B_phi(m, p-1-n), to rounding
        assert np.abs(B[::-1].conj() - B[:, ::-1]).max() <= 4 * eps * np.abs(B).max()
        # Re B + Im B[::-1] is unitarily equivalent to B
        U, sv, Vh = np.linalg.svd(B, full_matrices=False)
        sr = np.linalg.svd(B.real + B[::-1].imag, compute_uv=False)
        assert np.abs(sr - sv).max() <= 1e-13 * sv[0]
        want = ((U / sv) @ Vh / p)[::-1, inverse_table(p)[1:-1] - 1]
        W = _generator_plan(p, phi.tobytes()).factors[1]
        assert np.linalg.norm(W - want) <= 1e-12 * np.linalg.norm(want)


def test_rank_certificate_never_changes_a_rank(monkeypatch):
    # ones or delta_2 plus eps * noise: B_phi of rank 1 or 0 pulled towards full rank, so
    # that sigma_min crosses RANK_RTOL * ||phi||^2 inside the sweep
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(26)
    branches = {False: 0, True: 0}
    for p in (5, 7, 13, 31):
        delta2 = np.zeros(p - 1, dtype=complex)
        delta2[1] = 1
        for base in (np.ones(p - 1, dtype=complex), delta2):
            for eps in np.logspace(-14, -4, 11):
                for _ in range(3):
                    phi = base + eps * (rng.normal(size=p - 1) + 1j * rng.normal(size=p - 1))
                    before = len(calls)
                    rank = check_generator(phi, p).b_phi_rank
                    branches[len(calls) > before] += 1
                    sv = svd(b_phi(phi, p), compute_uv=False)
                    assert rank == np.sum(sv > RANK_RTOL * np.vdot(phi, phi).real), (p, eps)
    # both the certificate (no SVD) and the fallback (one SVD of R) are reached
    assert branches[False] >= 1 and branches[True] >= 1, branches


def test_each_entry_point_validates_p_once(monkeypatch):
    from affinephase import primefield
    original = primefield.validate_prime
    calls = []

    def counted(p):
        calls.append(p)
        return original(p)

    for module in [m for name, m in sys.modules.items() if name.startswith("affinephase")]:
        if getattr(module, "validate_prime", None) is original:
            monkeypatch.setattr(module, "validate_prime", counted)
    p = 13
    phi = canonical_generator(p)
    A = rand_matrix(p - 1)
    F = forward_measure(A, phi, p)
    Fv = modulus_data(phi, p, RNG.normal(size=(3, p - 1)) + 1j * RNG.normal(size=(3, p - 1)))
    recover_matrix(F, phi, p)  # the plan and the per-p tables are warm from here on
    entry_points = {
        "forward_measure": lambda: forward_measure(A, phi, p),
        "recover_matrix": lambda: recover_matrix(F, phi, p),
        "recover_vector": lambda: recover_vector(Fv[0], phi, p),
        "recover_vector, a stack of 3": lambda: recover_vector(Fv, phi, p),
        "check_generator": lambda: check_generator(phi, p),
        "c_phi": lambda: c_phi(phi, p),
        "b_phi": lambda: b_phi(phi, p),
    }
    for name, call in entry_points.items():
        calls.clear()
        call()
        assert calls == [p], name
    # a fresh generator builds its plan without validating p again
    misses = _generator_plan.cache_info().misses
    calls.clear()
    forward_measure(A, 2 * phi + 1, p)
    assert _generator_plan.cache_info().misses == misses + 1
    assert calls == [p]


def modulus_data(phi, p, f):
    """|<f, pi_hat0(k,l) phi>|^2 for each vector f on the last axis."""
    return np.abs(f @ frame_vectors(phi, p).conj().T) ** 2


@pytest.mark.parametrize("p", [3, 5, 13, 31])
def test_stacked_recovery_equals_per_record_loop(p):
    n = p * (p - 1)
    for phi in generators(p):
        for shape in ((4,), (2, 3)):
            A = RNG.normal(size=shape + (p - 1, p - 1)) + 1j * RNG.normal(size=shape + (p - 1, p - 1))
            F = np.array([forward_measure(a, phi, p) for a in A.reshape(-1, p - 1, p - 1)])
            stacked = recover_matrix(F.reshape(shape + (n,)), phi, p)
            loop = np.array([recover_matrix(x, phi, p) for x in F]).reshape(stacked.shape)
            assert np.array_equal(stacked, loop)
            f = RNG.normal(size=shape + (p - 1,)) + 1j * RNG.normal(size=shape + (p - 1,))
            Fv = modulus_data(phi, p, f)
            stacked = recover_vector(Fv, phi, p)
            loop = np.array([recover_vector(x, phi, p) for x in Fv.reshape(-1, n)])
            assert np.array_equal(stacked, loop.reshape(stacked.shape))
            # a stack that is not C-contiguous, such as a transposed product, too
            assert np.array_equal(recover_vector(np.asfortranarray(Fv), phi, p), stacked)
            assert max(phase_distance(g, x) for g, x in zip(loop, f.reshape(-1, p - 1))) < 1e-8
    with pytest.raises(ValueError, match=rf"measurements must have length p\(p-1\) = {n}"):
        recover_matrix(np.zeros((2, n + 1)), phi, p)


def test_stacked_rank_one_failure_names_the_record():
    p = 5
    phi = canonical_generator(p)
    f = RNG.normal(size=(2, 3, p - 1)) + 1j * RNG.normal(size=(2, 3, p - 1))
    F = modulus_data(phi, p, f)
    F[1, 2] = 0.5 * (F[1, 2] + F[0, 0])  # mixes two vectors: not rank-one
    for stack, where, record in ((F, "[1, 2]", (1, 2)), (F.reshape(6, -1), "[5]", (5,))):
        with pytest.raises(InconsistentDataError) as exc:
            recover_vector(stack, phi, p)
        assert str(exc.value).startswith(
            f"record {where}: measurements inconsistent: recovered vector leaves relative "
            "forward residual"
        )
        assert exc.value.record == record


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


def test_equal_generator_in_a_new_array_shares_its_plan():
    p = 13
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    F = forward_measure(rand_matrix(p - 1), phi, p)
    first = recover_matrix(F, phi, p)
    info = _generator_plan.cache_info()
    again = recover_matrix(F, phi.copy(), p)
    assert _generator_plan.cache_info().misses == info.misses
    assert _generator_plan.cache_info().hits == info.hits + 1
    assert np.array_equal(first, again)


def test_generator_changed_in_place_gets_a_new_plan():
    p = 13
    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    A = rand_matrix(p - 1)
    recover_matrix(forward_measure(A, phi, p), phi, p)
    phi[3] *= 2.0
    misses = _generator_plan.cache_info().misses
    F = forward_measure(A, phi, p)
    warm = recover_matrix(F, phi, p)
    assert _generator_plan.cache_info().misses == misses + 1
    _generator_plan.cache_clear()
    assert np.array_equal(forward_measure(A, phi.copy(), p), F)
    _generator_plan.cache_clear()
    assert np.array_equal(recover_matrix(F, phi.copy(), p), warm)
    assert np.linalg.norm(warm - A) < 1e-9 * np.linalg.norm(A)


def test_generator_plans_are_bounded_and_read_only():
    assert _generator_plan.cache_info().maxsize == TABLE_CACHE_SIZE
    p = 7
    phi = canonical_generator(p)
    report = check_generator(phi, p)
    plan = _generator_plan(p, phi.tobytes())
    assert plan.factors[0] is report
    arrays = (plan.phi, plan.c, plan.B, report.cond_i_values, report.b_phi, *plan.factors[1:])
    assert not any(a.flags.writeable for a in arrays)
    # errors.MAX_SIZE: 48 (p-1)^2 bytes per cached generator, and 16 (p-1) for u
    held = (plan.phi, plan.c, plan.B, *plan.factors[1:])
    assert sum(a.nbytes for a in held) == 48 * (p - 1) ** 2 + 16 * (p - 1)


@pytest.mark.parametrize("p", [5, 13])
def test_inadmissible_generator_raises_the_same_message_on_every_call(p):
    expected = (
        f"generator fails condition (i) a character sum c_phi vanishes and (ii) rank(B_phi) = 1 < {p - 2}",
        f"generator fails condition (ii) rank(B_phi) = 0 < {p - 2}",
        f"generator fails condition (ii) rank(B_phi) = 0 < {p - 2}",
    )
    F = np.zeros(p * (p - 1))
    for phi, message in zip(inadmissible_generators(p), expected):
        for _ in range(3):
            with pytest.raises(InadmissibleGeneratorError) as exc:
                recover_matrix(F, phi, p)
            assert str(exc.value) == message
            assert not check_generator(phi, p).admissible


def test_numpy_integer_modulus_shares_the_int_caches():
    p = 13
    phi = canonical_generator(p)
    A = rand_matrix(p - 1)
    F = forward_measure(A, phi, p)
    rec = recover_matrix(F, phi, p)
    caches = (root_powers, index_tables, inverse_table, primitive_root, _generator_plan)
    misses = [c.cache_info().misses for c in caches]
    F64 = forward_measure(A, phi, np.int64(p))
    assert np.array_equal(F64, F)
    assert np.array_equal(recover_matrix(F64, phi, np.int64(p)), rec)
    assert check_generator(phi, np.int64(p)).p == p
    assert [c.cache_info().misses for c in caches] == misses


def svd_eigh_recover_vector(F, phi, p):
    """The SVD-then-eigh vector retrieval, kept as an oracle: the whole matrix, the top
    eigenvector of (A + A^H)/2 scaled to ||f||^2 = trace(A), and the rank-one figure
    sigma_2 / sigma_1 of its SVD test.  Returns (f, sigma_2 / sigma_1)."""
    A = recover_matrix(F, phi, p)
    sv = np.linalg.svd(A, compute_uv=False)
    H = (A + A.conj().swapaxes(-1, -2)) / 2
    norm = np.sqrt(np.maximum(np.trace(H, axis1=-2, axis2=-1).real, 0.0))[..., None]
    return canonical_phase(np.linalg.eigh(H)[1][..., -1] * norm), sv[..., 1] / sv[..., 0]


@pytest.mark.parametrize("p", [3, 5, 13, 31, 101])
def test_one_column_retrieval_matches_the_svd_eigh_oracle(p):
    n = p * (p - 1)
    for phi in generators(p):
        f = RNG.normal(size=(2, 3, p - 1)) + 1j * RNG.normal(size=(2, 3, p - 1))
        F = modulus_data(phi, p, f)
        want, ratio = svd_eigh_recover_vector(F, phi, p)
        assert np.all(ratio <= 1e-10)
        stacked = recover_vector(F, phi, p)
        loop = np.array([recover_vector(x, phi, p) for x in F.reshape(-1, n)])
        assert np.array_equal(stacked.reshape(loop.shape), loop)
        for got, w in zip(loop, want.reshape(-1, p - 1)):
            assert phase_distance(got, w) <= 1e-12 * np.linalg.norm(w)


def inconsistent_corpus(p, phi, rng):
    """Modulus data no vector explains: rank-two mixes (1 - t) F_f + t F_g, and F_f with
    a relative perturbation of size d, three draws each."""
    f, g = rng.normal(size=(2, 3, p - 1)) + 1j * rng.normal(size=(2, 3, p - 1))
    Ff, Fg = modulus_data(phi, p, f), modulus_data(phi, p, g)
    mixes = [(1 - t) * Ff + t * Fg for t in (0.5, 1e-1, 1e-2, 1e-3, 1e-4)]
    perturbed = [Ff * (1 + d * rng.normal(size=Ff.shape)) for d in (1e-1, 1e-2, 1e-3, 1e-4)]
    return np.concatenate(mixes + perturbed)


@pytest.mark.parametrize("p", [3, 5, 13, 31])
def test_svd_and_forward_residual_tests_reject_the_same_corpus(p):
    rng = np.random.default_rng(1000 + p)
    for phi in (canonical_generator(p), rng.normal(size=p - 1) + 1j * rng.normal(size=p - 1)):
        corpus = inconsistent_corpus(p, phi, rng)
        assert np.all(svd_eigh_recover_vector(corpus, phi, p)[1] > RANK_ONE_RTOL)
        for F in corpus:
            with pytest.raises(InconsistentDataError, match="relative forward residual"):
                recover_vector(F, phi, p)


def test_all_zero_records_give_zero_vectors_without_a_warning():
    # pytest turns every warning into an error, so a 0/0 would fail here
    p = 13
    phi = canonical_generator(p)
    zero = np.zeros(p - 1, dtype=complex)
    assert np.array_equal(recover_vector(np.zeros(p * (p - 1)), phi, p), zero)
    F = modulus_data(phi, p, RNG.normal(size=(3, p - 1)) + 1j * RNG.normal(size=(3, p - 1)))
    F[1] = 0.0
    out = recover_vector(F, phi, p)
    assert np.array_equal(out[1], zero)
    assert np.array_equal(out[::2], [recover_vector(x, phi, p) for x in F[::2]])
