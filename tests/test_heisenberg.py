import tracemalloc

import numpy as np
import pytest

from affinephase.errors import MAX_SIZE, InadmissibleGeneratorError
from affinephase.heisenberg import (
    ambiguity,
    check_generator_h,
    h_forward,
    h_recover,
    schrodinger_matrix,
)

RNG = np.random.default_rng(20240817)
SIZES = (2, 3, 4, 5)


def rand_generator(n):
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def test_schrodinger_entry_formula():
    n = 4
    f = rand_generator(n)
    g = schrodinger_matrix(1, 3, n) @ f
    for y in range(n):
        assert abs(g[y] - np.exp(2j * np.pi * 3 * y / n) * f[(y - 1) % n]) < 1e-14


def test_schrodinger_unitary():
    for n in SIZES:
        for k in range(n):
            for l in range(n):
                M = schrodinger_matrix(k, l, n)
                assert np.allclose(M @ M.conj().T, np.eye(n), atol=1e-13)


def test_schrodinger_projective_composition():
    # pi(k,l) pi(k',l') = e^{-2 pi i l'k/n} pi(k+k', l+l')
    n = 5
    for k, l, kp, lp in [(1, 2, 3, 4), (2, 0, 1, 1), (4, 3, 2, 2)]:
        lhs = schrodinger_matrix(k, l, n) @ schrodinger_matrix(kp, lp, n)
        rhs = np.exp(-2j * np.pi * lp * k / n) * schrodinger_matrix(k + kp, l + lp, n)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_rescaled_matrices_are_orthonormal_basis():
    for n in SIZES:
        mats = [
            schrodinger_matrix(k, l, n) / np.sqrt(n)
            for k in range(n)
            for l in range(n)
        ]
        G = np.array(
            [[np.vdot(B.reshape(-1), A.reshape(-1)) for B in mats] for A in mats]
        )
        assert np.allclose(G, np.eye(n * n), atol=1e-12), n


def test_ambiguity_against_direct_inner_products():
    for n in (2, 3, 4, 6, 9):
        phi = rand_generator(n)
        A = ambiguity(phi)
        for k in range(n):
            for l in range(n):
                direct = np.vdot(schrodinger_matrix(k, l, n) @ phi, phi) / np.sqrt(n)
                assert abs(A[k, l] - direct) < 1e-13, (n, k, l)


def test_h_forward_against_direct_quadratic_forms():
    for n in (2, 3, 4, 6, 9, 48):
        # delta_0 has a vanishing ambiguity function
        for phi in (rand_generator(n), np.eye(n)[0]):
            A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
            F = h_forward(A, phi)
            for k in range(n):
                for l in range(n):
                    w = schrodinger_matrix(k, l, n) @ phi
                    assert abs(F[k, l] - np.vdot(w, A @ w)) <= 1e-12 * np.max(np.abs(F)), (n, k, l)


def test_h_forward_peak_memory_at_n128():
    # O(n^2) memory: n^3 intermediates would take 68 MB here
    n = 128
    phi = rand_generator(n)
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    tracemalloc.start()
    try:
        h_forward(A, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_delta_generator_inadmissible():
    for n in SIZES:
        delta = np.zeros(n)
        delta[0] = 1.0
        assert not check_generator_h(delta)


def test_random_generator_admissible_round_trip():
    for n in SIZES:
        phi = rand_generator(n)
        while not check_generator_h(phi):
            phi = rand_generator(n)
        A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        rec = h_recover(h_forward(A, phi), phi)
        assert np.linalg.norm(rec - A) < 1e-9 * np.linalg.norm(A), n


def test_recover_rejects_vanishing_ambiguity():
    n = 3
    delta = np.zeros(n)
    delta[0] = 1.0
    with pytest.raises(InadmissibleGeneratorError, match="vanishes"):
        h_recover(np.zeros((n, n)), delta)


def test_size_limit_named():
    n = MAX_SIZE + 1
    with pytest.raises(ValueError, match=f"n = {n} exceeds the size limit MAX_SIZE = {MAX_SIZE}"):
        ambiguity(np.ones(n))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_naming_the_argument(bad):
    n = 4
    phi = rand_generator(n)
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    F = h_forward(A, phi)
    bad_phi, bad_A, bad_F = phi.copy(), A.copy(), F.copy()
    bad_phi[1] = bad_A[2, 0] = bad_F[3, 3] = bad
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        h_forward(A, bad_phi)
    with pytest.raises(ValueError, match="A has a non-finite entry"):
        h_forward(bad_A, phi)
    with pytest.raises(ValueError, match="phi has a non-finite entry"):
        h_recover(F, bad_phi)
    with pytest.raises(ValueError, match="F has a non-finite entry"):
        h_recover(bad_F, phi)
