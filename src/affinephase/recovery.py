"""Matrix recovery from the pi_hat0 orbit of a generating vector.

The measurement map sends a matrix A on {1..p-1}^2 to the group function
F(k,l) = <A w, w> with w = pi_hat0(k,l) phi.  A generator phi admits linear
inversion of this map iff

  (i)  every twisted character sum c_phi(chi_j) = sum_l |phi(-l)|^2 chi_j(l)
       is nonzero, and
  (ii) the matrix B_phi(m,n) = phi(mn) conj(phi(m(n+1))) on
       {1..p-1} x {1..p-2} has full column rank p-2.

Recovery proceeds in three steps: the character sums of F determine the
first column a_1 of SA; the matrix component of the group Fourier transform
of F determines the remaining block A_2' through the Moore-Penrose left
inverse of B_phi; applying S* reassembles A.

An independent oracle (the explicit p(p-1) x (p-1)^2 measurement matrix and
its pseudo-inverse) is provided for cross-validation; it shares no code
path with the structured algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import dilation_index, s_apply, s_inverse_apply
from .errors import RANK_RTOL, InadmissibleGeneratorError, InconsistentDataError, require_finite
from .group_fourier import (
    AffineFourierCoefficients,
    chi_tilde_all,
    fourier_invert,
    pi_hat0_transform,
)
from .primefield import character_table, inverse_table, validate_prime


def _check_phi(phi, p: int) -> np.ndarray:
    validate_prime(p)
    phi = require_finite("phi", phi)
    if phi.shape != (p - 1,):
        raise ValueError(f"generator must live on {{1..{p - 1}}}, got shape {phi.shape}")
    return phi


def c_phi(phi, p: int) -> np.ndarray:
    """Character sums c_phi(chi_j) = sum_l |phi(-l)|^2 chi_j(l), j in {0..p-2}."""
    phi = _check_phi(phi, p)
    l = np.arange(1, p)
    h = np.abs(phi[(p - l) - 1]) ** 2  # |phi(-l)|^2 at index l-1
    return character_table(p).values @ h


def b_phi(phi, p: int) -> np.ndarray:
    """B_phi(m,n) = phi(mn) conj(phi(m(n+1))) on {1..p-1} x {1..p-2}."""
    phi = _check_phi(phi, p)
    m = np.arange(1, p)[:, None]
    n = np.arange(1, p - 1)[None, :]
    return phi[(m * n) % p - 1] * phi[(m * (n + 1)) % p - 1].conj()


@dataclass(frozen=True)
class GeneratorReport:
    p: int
    cond_i_values: np.ndarray
    cond_i_holds: bool
    b_phi: np.ndarray
    b_phi_rank: int
    cond_ii_holds: bool
    admissible: bool


def _factor_generator(phi: np.ndarray, p: int) -> tuple[GeneratorReport, tuple]:
    """Both admissibility conditions, and the thin SVD (U, sigma, V^H) of
    B_phi that condition (ii) was read from."""
    c = c_phi(phi, p)
    scale = max(float(np.vdot(phi, phi).real), np.finfo(float).tiny)
    cond_i = bool(np.all(np.abs(c) > RANK_RTOL * scale))
    B = b_phi(phi, p)
    U, sv, Vh = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    cond_ii = rank == p - 2
    report = GeneratorReport(
        p=p,
        cond_i_values=c,
        cond_i_holds=cond_i,
        b_phi=B,
        b_phi_rank=rank,
        cond_ii_holds=cond_ii,
        admissible=cond_i and cond_ii,
    )
    return report, (U, sv, Vh)


def check_generator(phi, p: int) -> GeneratorReport:
    """Evaluate both admissibility conditions for phi."""
    return _factor_generator(_check_phi(phi, p), p)[0]


def canonical_generator(p: int) -> np.ndarray:
    """The reference admissible generator on {1..p-1}.

    p=3: phi = (1, 2); p >= 5: phi(m) = 1 - delta_1(m).
    """
    validate_prime(p)
    if p == 3:
        return np.array([1.0, 2.0], dtype=complex)
    phi = np.ones(p - 1, dtype=complex)
    phi[0] = 0.0
    return phi


def canonical_time_generator(p: int) -> np.ndarray:
    """Time-side counterpart on Z_p, a zero-sum vector whose Fourier
    restriction to {1..p-1} is proportional to :func:`canonical_generator`.

    p=3: psi(k) = e^{2 pi i k/3} + 2 e^{4 pi i k/3};
    p>=5: psi(k) = delta_0(k) - 1/p - e^{2 pi i k/p}/p.
    """
    validate_prime(p)
    k = np.arange(p)
    if p == 3:
        return np.exp(2j * np.pi * k / 3) + 2 * np.exp(4j * np.pi * k / 3)
    psi = -np.ones(p, dtype=complex) / p - np.exp(2j * np.pi * k / p) / p
    psi[0] += 1.0
    return psi


def frame_vectors(phi, p: int) -> np.ndarray:
    """All orbit vectors pi_hat0(k,l) phi stacked in canonical group order:
    row (l-1)p + k holds m -> e^{-2 pi i km/p} phi(lm)."""
    phi = _check_phi(phi, p)
    km = np.outer(np.arange(p), np.arange(1, p)) % p
    W = np.exp(-2j * np.pi * km / p)[None, :, :] * phi[dilation_index(p)][:, None, :]
    return W.reshape(p * (p - 1), p - 1)


def _omega1_index(p: int) -> np.ndarray:
    """Entry n-1 is the column index n^-1 - 1 of label 1 + n^-1: Omega1 as a gather."""
    return inverse_table(p)[1 : p - 1] - 1


def forward_measure(A, phi, p: int) -> np.ndarray:
    """Measurement map: F(k,l) = <A pi_hat0(k,l) phi, pi_hat0(k,l) phi>.

    :func:`recover_matrix` run backwards: with SA = (a_1 | A_2'), the group
    Fourier transform of F is chi~_j(F) = p c_phi(chi_j) (conj(chi_j) . a_1)
    and pi_hat0(F) = p A_2' Omega1^T B_phi^H Omega0, and F is its inverse
    transform.  One GEMM and p-1 FFTs of length p: O(p^3) time, O(p^2) memory.
    """
    phi = _check_phi(phi, p)
    A = require_finite("A", A)
    if A.shape != (p - 1, p - 1):
        raise ValueError(f"matrix must be (p-1)x(p-1) = {(p - 1, p - 1)}, got {A.shape}")
    SA = s_apply(A)
    s = p * c_phi(phi, p) * (character_table(p).values.conj() @ SA[:, 0])
    # Omega1^T is a column gather; right-multiplying by Omega0 reverses the columns
    M = p * (SA[:, 1:][:, _omega1_index(p)] @ b_phi(phi, p).conj().T)[:, ::-1]
    return fourier_invert(AffineFourierCoefficients(p, s, M))


def recover_matrix(F, phi, p: int) -> np.ndarray:
    """Invert the measurement map for an admissible generator.

    Steps: (1) character sums of F give the first column a_1 of SA,
    (2) the pi_hat0 component of F gives the block A_2' via the left
    inverse of B_phi, (3) A = S*((a_1 | A_2')).
    """
    phi = _check_phi(phi, p)
    F = require_finite("F", F)
    if F.shape != (p * (p - 1),):
        raise ValueError(f"measurements must have length p(p-1) = {p * (p - 1)}")
    report, (U, sv, Vh) = _factor_generator(phi, p)
    if not report.admissible:
        failed = []
        if not report.cond_i_holds:
            failed.append("(i) a character sum c_phi vanishes")
        if not report.cond_ii_holds:
            failed.append(f"(ii) rank(B_phi) = {report.b_phi_rank} < {p - 2}")
        raise InadmissibleGeneratorError(
            "generator fails condition " + " and ".join(failed)
        )

    table = character_table(p)
    # step 1: a_1(k) = (p(p-1))^-1 sum_j c_phi(chi_j)^-1 chi~_j(F) chi_j(k)
    s = chi_tilde_all(F, p)
    a1 = table.values.T @ (s / report.cond_i_values) / (p * (p - 1))
    # step 2: A_2' = p^-1 * pi_hat0(F) * Omega0^T * (B_phi^dagger)^* * Omega1;
    # the prefactor follows from Schur orthogonality of the unnormalized
    # pi_hat0 coefficients (pi_hat0(F) = p * A_2' (C_phi')^*).  Omega0^T
    # reverses the columns, (B_phi^dagger)^* = U sigma^-1 V^H from the SVD
    # that decided condition (ii), and Omega1 scatters the columns.
    A2p = np.empty((p - 1, p - 2), dtype=complex)
    A2p[:, _omega1_index(p)] = pi_hat0_transform(F, p)[:, ::-1] @ (U / sv) @ Vh / p
    # step 3
    return s_inverse_apply(np.concatenate([a1[:, None], A2p], axis=1))


def canonical_phase(v) -> np.ndarray:
    """Rotate v so its largest-modulus entry is positive real (deterministic
    representative of the equivalence class v * unit scalar)."""
    v = np.asarray(v, dtype=complex)
    i = int(np.argmax(np.abs(v)))
    a = abs(v[i])
    if a == 0:
        return v.copy()
    return v * (v[i].conj() / a)


def phase_distance(u, v) -> float:
    """min over unit scalars alpha of ||u - alpha v||.

    The optimal alpha is the phase of <u, v>; the difference is formed
    explicitly to avoid cancellation when u and v nearly coincide.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vdot(v, u)
    if abs(inner) == 0.0:
        return float(np.sqrt(np.vdot(u, u).real + np.vdot(v, v).real))
    alpha = inner / abs(inner)
    return float(np.linalg.norm(u - alpha * v))


#: relative second singular value above which a recovered matrix is rejected
#: as not rank-one
RANK_ONE_RTOL = 1e-6


def recover_vector(F, phi, p: int) -> np.ndarray:
    """Phase retrieval: recover f on {1..p-1} (up to global phase) from
    F = |<f, pi_hat0(k,l) phi>|^2.

    The recovered matrix is Hermitian-symmetrized, the top eigenvector is
    scaled so that ||f||^2 = trace(A), and the output phase is normalized.
    """
    A = recover_matrix(F, phi, p)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] <= np.finfo(float).tiny:
        return np.zeros(p - 1, dtype=complex)
    if sv[1] > RANK_ONE_RTOL * sv[0]:
        raise InconsistentDataError(
            f"measurements inconsistent: recovered matrix is not rank-one "
            f"(relative second singular value {sv[1] / sv[0]:.3e})"
        )
    H = (A + A.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    f = evecs[:, -1] * np.sqrt(max(float(np.trace(H).real), 0.0))
    return canonical_phase(f)


def oracle_full_map(phi, p: int) -> np.ndarray:
    """Entry-by-entry matrix of the measurement map A -> F, built from the
    orbit vectors alone: row x, column (m,n) holds w_x(n) conj(w_x(m)), so
    that F = M @ vec(A) with row-major vec."""
    W = frame_vectors(phi, p)
    return np.einsum("xm,xn->xmn", W.conj(), W).reshape(p * (p - 1), (p - 1) ** 2)


def oracle_recover(F, phi, p: int) -> np.ndarray:
    """Least-squares inversion of the full measurement matrix (independent of
    the structured recovery path)."""
    F = np.asarray(F, dtype=complex)
    M = oracle_full_map(phi, p)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] <= np.finfo(float).tiny or np.sum(sv > RANK_RTOL * sv[0]) < (p - 1) ** 2:
        raise InadmissibleGeneratorError("measurement map is rank-deficient")
    vec = np.linalg.pinv(M, rcond=RANK_RTOL) @ F
    return vec.reshape(p - 1, p - 1)
