"""The benchmark's generator against the library's forward maps.

The generator is the benchmark's ground truth, so it must agree with the
library where the library is already trusted, at small sizes.
"""

import numpy as np
import pytest

from affinephase import diagnostics, heisenberg, recovery

from perfbench import generator as gen

TOL = 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_affine_frame_and_measurements(p):
    rng = np.random.default_rng(p)
    for phi in (gen.canonical_generator(p), gen.complex_gaussian(rng, p - 1)):
        W = gen.affine_frame(phi, p)
        assert np.max(np.abs(W - recovery.frame_vectors(phi, p))) <= TOL
        A = gen.complex_gaussian(rng, p - 1, p - 1)
        F = recovery.forward_measure(A, phi, p)
        assert np.max(np.abs(gen.quadratic_measure(W, A) - F)) <= TOL * np.max(np.abs(F))
    np.testing.assert_array_equal(gen.canonical_generator(p), recovery.canonical_generator(p))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_schrodinger_measurements(n):
    rng = np.random.default_rng(n)
    phi = gen.complex_gaussian(rng, n)
    A = gen.complex_gaussian(rng, n, n)
    F = heisenberg.h_forward(A, phi)
    G = gen.quadratic_measure(gen.schrodinger_frame(phi), A).reshape(n, n)
    assert np.max(np.abs(G - F)) <= TOL * np.max(np.abs(F))


def test_permutation_frame_matches_library_default_generator():
    psi0 = gen.time_generator_p3()
    assert np.max(np.abs(psi0 - recovery.canonical_time_generator(3))) <= TOL
    perms = gen.all_permutations(5)
    f = gen.zero_sum(gen.complex_gaussian(np.random.default_rng(0), 5))
    mags = np.abs(gen.permutation_frame(perms, psi0).conj() @ f)
    g = diagnostics.three_transitive_phase_retrieval(mags, perms)
    assert gen.phase_distance(g, f) <= 1e-6


@pytest.mark.parametrize("p", [5, 7, 13])
def test_frequency_deleted_moduli(p):
    f = gen.zero_sum(gen.complex_gaussian(np.random.default_rng(p), p))
    expected = diagnostics.frequency_deleted_moduli(f, p)
    assert np.max(np.abs(gen.frequency_deleted_moduli(f) - expected)) <= TOL


def test_phase_distance_ignores_global_phase():
    v = gen.complex_gaussian(np.random.default_rng(1), 6)
    assert gen.phase_distance(np.exp(0.7j) * v, v) <= TOL
    assert gen.phase_distance(v + 1e-3, v) > 1e-4
