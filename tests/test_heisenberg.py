import tracemalloc

import numpy as np
import pytest

from affinephase import heisenberg
from affinephase.errors import MAX_SIZE, TABLE_CACHE_SIZE, InadmissibleGeneratorError
from affinephase.heisenberg import (_generator_plan, _index_maps, _plan, ambiguity,
                                    check_generator_h, h_forward, h_recover)
from affinephase.reference import schrodinger_matrix

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


@pytest.mark.parametrize("n", [4, 6, 13])
def test_singular_values_of_the_measurement_map(n):
    # the map's singular values are n |A_phi(k, l)|, against the dense matrix whose row (k, l)
    # holds the quadratic form A -> <A pi(k,l) phi, pi(k,l) phi>
    rng = np.random.default_rng(n)
    for _ in range(3):
        phi = rng.normal(size=n) + 1j * rng.normal(size=n)
        W = [schrodinger_matrix(k, l, n) @ phi for k in range(n) for l in range(n)]
        sv = np.linalg.svd(np.array([np.outer(w.conj(), w).ravel() for w in W]), compute_uv=False)
        expected = np.sort(n * np.abs(ambiguity(phi)).ravel())[::-1]
        assert np.max(np.abs(sv - expected)) <= 1e-12 * sv[0]


@pytest.mark.parametrize("n", [5, 16, 48])
def test_recovery_error_bound_is_attained_at_the_smallest_ambiguity(n):
    # h_recover is the inverse of a map with singular values n |A_phi(k, l)| and right singular
    # vectors n^{-1/2} pi(k, l), so ||h_recover(F + dF) - A|| <= ||dF|| / (n min |A_phi|),
    # with equality for dF = h_forward(pi(k*, l*)) at the argmin
    rng = np.random.default_rng(n)
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    amb = np.abs(ambiguity(phi))
    bound = 1 / (n * amb.min())
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    F = h_forward(A, phi)
    for _ in range(5):
        dF = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        error = np.linalg.norm(h_recover(F + dF, phi) - A)
        assert error <= bound * np.linalg.norm(dF) * (1 + 1e-10)
    k, l = np.unravel_index(amb.argmin(), amb.shape)
    dF = h_forward(schrodinger_matrix(k, l, n), phi)
    ratio = np.linalg.norm(h_recover(dF, phi)) / np.linalg.norm(dF)
    assert abs(ratio - bound) <= 1e-10 * bound


@pytest.mark.parametrize("n", [2, 3, 16, 48, 211])
def test_a_stack_equals_the_per_record_loop_bit_for_bit(n):
    # numpy writes into a temporary of 256 KiB or more, swapping the operands of a product, when
    # the other operand has its shape: at n = 211 one record would take that path, a stack not
    rng = np.random.default_rng(n)
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    A = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    F = h_forward(A, phi)
    rec = h_recover(F, phi)
    assert F.shape == rec.shape == A.shape
    for i in np.ndindex(2, 3):
        assert np.array_equal(F[i], h_forward(A[i], phi))
        assert np.array_equal(rec[i], h_recover(F[i], phi))
    assert np.linalg.norm(rec - A) <= 1e-9 * np.linalg.norm(A)


def test_a_round_trip_builds_one_ambiguity_table(monkeypatch):
    calls = []
    build = heisenberg._ambiguity
    monkeypatch.setattr(heisenberg, "_ambiguity", lambda phi: calls.append(1) or build(phi))
    _generator_plan.cache_clear()
    n = 16
    phi = rand_generator(n)
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    h_recover(h_forward(A, phi), phi)
    assert check_generator_h(phi) and len(calls) == 1


def test_equal_generator_shares_its_plan_and_one_changed_in_place_gets_a_new_one():
    n = 12
    phi = rand_generator(n)
    plan = _plan(phi)
    info = _generator_plan.cache_info()
    assert _plan(phi.copy()) is plan
    assert _generator_plan.cache_info().misses == info.misses
    phi[3] *= 2.0
    assert _plan(phi) is not plan
    assert _generator_plan.cache_info().misses == info.misses + 1
    assert np.array_equal(_plan(phi)[0], (np.sqrt(n) * ambiguity(phi).conj())[-np.arange(n) % n])


def test_plans_and_index_maps_are_bounded_and_read_only():
    for cache in (_generator_plan, _index_maps):
        assert cache.cache_info().maxsize == TABLE_CACHE_SIZE
    n = 6
    table = _plan(rand_generator(n))[0]
    for a in (table, *_index_maps(n)):
        assert a.shape == (n, n) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


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
