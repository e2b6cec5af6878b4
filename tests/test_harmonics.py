import numpy as np

from affinephase.harmonics import convolve, dft, dft_matrix, idft

RNG = np.random.default_rng(20240817)


def test_dft_matrix_unitary():
    for p in (3, 5, 7, 11, 13):
        U = dft_matrix(p)
        assert np.allclose(U @ U.conj().T, np.eye(p), atol=1e-12)


def test_dft_entry_formula():
    p = 5
    U = dft_matrix(p)
    for m in range(p):
        for n in range(p):
            assert abs(U[m, n] - np.exp(-2j * np.pi * m * n / p) / np.sqrt(p)) < 1e-14


def test_dft_idft_round_trip():
    for p in (3, 7, 11):
        f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
        assert np.allclose(idft(dft(f)), f, atol=1e-12)


def test_dft_delta_is_flat():
    p = 7
    delta = np.zeros(p)
    delta[0] = 1.0
    assert np.allclose(dft(delta), np.full(p, p**-0.5), atol=1e-14)


def test_convolve_against_direct_sum():
    p = 7
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    g = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    direct = np.array(
        [sum(f[n] * g[(m - n) % p] for n in range(p)) for m in range(p)]
    )
    assert np.allclose(convolve(f, g), direct, atol=1e-12)


def test_convolution_theorem():
    # dft(f * g) = sqrt(p) dft(f) dft(g) for the unitary normalization
    p = 11
    f = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    g = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    assert np.allclose(dft(convolve(f, g)), np.sqrt(p) * dft(f) * dft(g), atol=1e-11)
