import numpy as np

from affinephase.reference import dft_matrix


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
