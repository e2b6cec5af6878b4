from itertools import count

import numpy as np
import pytest

from affinephase.errors import DFT_PRODUCT_MAX_P, TABLE_CACHE_SIZE
from affinephase.group_fourier import (AffineFourierCoefficients, _analysis, _dft_matrices,
                                      _frame_coefficients, _synthesis, fourier_invert, transform)
from affinephase.primefield import is_prime
from affinephase.reference import character_table, enumerate_group, pi_hat0_matrix, plancherel_sides

RNG = np.random.default_rng(20240817)
#: the primes either side of the crossover between the DFT product and numpy's FFT
BELOW = max(q for q in range(3, DFT_PRODUCT_MAX_P + 1) if is_prime(q))
ABOVE = next(q for q in count(DFT_PRODUCT_MAX_P + 1) if is_prime(q))


def rand_group_function(p):
    n = p * (p - 1)
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def test_chi_tilde_against_elementwise_sum():
    # independent oracle: direct loop over group elements
    p = 5
    F = rand_group_function(p)
    table = character_table(p)
    all_vals = transform(F, p).scalar_part
    for j in range(p - 1):
        direct = sum(
            F[(l - 1) * p + k] * table[j, l - 1] for l in range(1, p) for k in range(p)
        )
        assert abs(all_vals[j] - direct) < 1e-11


def test_pi_hat0_transform_against_elementwise_sum():
    for p in (3, 5, 7, 13, 31):
        F = rand_group_function(p)
        direct = np.zeros((p - 1, p - 1), dtype=complex)
        for i, x in enumerate(enumerate_group(p)):
            direct += F[i] * pi_hat0_matrix(x)
        err = np.max(np.abs(transform(F, p).matrix_part - direct))
        assert err <= 1e-12 * np.max(np.abs(direct)), (p, err)


def test_frame_coefficients_against_pi_hat0_matrix_action():
    # a stack of two vectors, each against every orbit vector pi_hat0(k,l) phi
    for p in (3, 5, 13):
        f = RNG.normal(size=(2, p - 1)) + 1j * RNG.normal(size=(2, p - 1))
        phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
        V = _frame_coefficients(f, phi, p)
        assert V.shape == (2, p * (p - 1))
        for i, x in enumerate(enumerate_group(p)):
            w = pi_hat0_matrix(x) @ phi
            assert np.allclose(V[:, i], f @ w.conj(), rtol=0, atol=1e-12), (p, x)


def test_inversion_round_trip():
    for p in (3, 5, 7, 11, 13, 31):
        F = rand_group_function(p)
        assert np.allclose(fourier_invert(transform(F, p)), F, atol=1e-10), p


def test_transform_of_delta_at_identity():
    # F = delta at (k,l) = (0,1): scalars all 1, matrix part = identity
    p = 5
    F = np.zeros(p * (p - 1), dtype=complex)
    F[0] = 1.0
    c = transform(F, p)
    assert np.allclose(c.scalar_part, 1.0, atol=1e-14)
    assert np.allclose(c.matrix_part, np.eye(p - 1), atol=1e-14)


def test_plancherel():
    for p in (3, 5, 7, 11):
        F = rand_group_function(p)
        lhs, rhs = plancherel_sides(F, p)
        assert abs(lhs - rhs) < 1e-9 * lhs, p


def test_length_validation():
    with pytest.raises(ValueError):
        transform(np.zeros(10), 5)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61])
def test_character_sums_match_the_dense_table(p):
    chi = character_table(p)
    F = rand_group_function(p)
    want = chi @ F.reshape(p - 1, p).sum(axis=1)
    got = transform(F, p).scalar_part
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # F(k,l) = |G|^-1 [sum_j s_j conj(chi_j(l)) + (p-1) tr(M pi_hat0(k,l)^*)]
    s = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    M = RNG.normal(size=(p - 1, p - 1)) + 1j * RNG.normal(size=(p - 1, p - 1))
    want = np.array([(s @ chi[:, x.l - 1].conj() + (p - 1) * np.vdot(pi_hat0_matrix(x), M))
                     for x in enumerate_group(p)]) / (p * (p - 1))
    got = fourier_invert(AffineFourierCoefficients(p, s, M))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def fft_kernels(p):
    """The three kernels' definitions by np.fft over k, with l and m spelled out: analysis
    (F -> (sum_k F(k,l), pi_hat0(F)) on the last axis), synthesis and frame coefficients."""
    l, m = np.meshgrid(np.arange(1, p), np.arange(1, p), indexing="ij")  # [l-1, m-1]
    lm = l * m % p

    def analysis(F):
        G = np.fft.fft(F.reshape(F.shape[:-1] + (p - 1, p)), axis=-1)
        M = np.empty(F.shape[:-1] + (p - 1, p - 1), dtype=complex)
        M[..., m - 1, lm - 1] = G[..., l - 1, m]  # pi_hat0(F)[m-1, lm-1] at frequency m of row l
        return G[..., 0], M

    def synthesis(per_l, M):
        G = np.empty((p - 1, p), dtype=complex)
        G[:, 0], G[l - 1, m] = per_l, M[m - 1, lm - 1]
        return np.fft.ifft(G, axis=-1).reshape(-1)

    def frame(f, phi):
        g = np.zeros(f.shape[:-1] + (p - 1, p), dtype=complex)
        g[..., 1:] = f[..., None, :] * phi[lm - 1].conj()
        return np.fft.ifft(g, axis=-1, norm="forward").reshape(f.shape[:-1] + (-1,))

    return analysis, synthesis, frame


@pytest.mark.parametrize("p", sorted({3, 13, 61, BELOW, ABOVE, 211}))
def test_kernels_equal_their_fft_definitions_across_the_crossover(p):
    # at p <= DFT_PRODUCT_MAX_P the DFT over k is one product with the cached DFT matrix, to
    # rounding; above it the kernels run these same FFTs, so they agree bit for bit
    analysis, synthesis, frame = fft_kernels(p)

    def check(got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert p <= DFT_PRODUCT_MAX_P or np.array_equal(got, want)

    phi = RNG.normal(size=p - 1) + 1j * RNG.normal(size=p - 1)
    for shape in ((), (2, 3)):
        F = RNG.normal(size=shape + (p * (p - 1),)) + 1j * RNG.normal(size=shape + (p * (p - 1),))
        for got, want in zip(_analysis(F, p), analysis(F)):
            check(got, want)
        f = RNG.normal(size=shape + (p - 1,)) + 1j * RNG.normal(size=shape + (p - 1,))
        check(_frame_coefficients(f, phi, p), frame(f, phi))
    per_l, M = analysis(F[0, 0])  # the synthesis kernel takes one record
    check(_synthesis(per_l, M, p), synthesis(per_l, M))


def test_dft_tables_are_bounded_read_only_and_only_below_the_crossover():
    assert _dft_matrices.cache_info().maxsize == TABLE_CACHE_SIZE
    _dft_matrices.cache_clear()
    for p in (ABOVE, 211):
        F = rand_group_function(p)
        _synthesis(*_analysis(F, p), p)
        _frame_coefficients(F[: p - 1], F[1:p], p)
    assert _dft_matrices.cache_info().currsize == 0
    for p in (3, 13, BELOW):
        _analysis(rand_group_function(p), p)
        D = _dft_matrices(p)
        assert D.shape == (2, p, p) and not D.flags.writeable
        assert np.abs(D[0] - np.fft.fft(np.eye(p))).max() <= 1e-14  # row k: e^{-2 pi i km/p}
        assert np.array_equal(D[1], D[0].conj())
    assert _dft_matrices.cache_info().currsize == TABLE_CACHE_SIZE
