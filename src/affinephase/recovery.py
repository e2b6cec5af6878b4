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
inverse of B_phi; applying S* reassembles A.  Steps 1 and 2 are each one
product with an operator built once per generator.  Phase retrieval of a
vector f needs only the column of A = f f^H at the largest diagonal entry.

Recovery is the least-squares inverse of a map from (p-1)^2 unknowns to p(p-1) measurements,
so its residual F - forward(recover(F)) lies in the (p-1)-dimensional cokernel: step 1 fits
exactly, and step 2 leaves the part of pi_hat0(F) along the unit left null vector u of B_phi,
of norm ||pi_hat0(F) u[::-1]|| / sqrt(p), read off without a second forward map.

An independent oracle (the explicit p(p-1) x (p-1)^2 measurement matrix and
its pseudo-inverse) lives in :mod:`affinephase.reference`; it shares no code
path with the structured algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .affine import index_tables, s_apply, s_inverse_apply
from .errors import (RANK_ONE_RTOL, RANK_RTOL, TABLE_CACHE_SIZE, InadmissibleGeneratorError,
                     InconsistentDataError, require_finite)
from .group_fourier import _analysis, _frame_coefficients, _synthesis
from .primefield import inverse_table, root_powers, validate_prime


@dataclass(frozen=True)
class GeneratorReport:
    p: int
    cond_i_values: np.ndarray
    cond_i_holds: bool
    b_phi: np.ndarray
    b_phi_rank: int
    cond_ii_holds: bool
    admissible: bool


class _GeneratorPlan:
    """What the forward map and recovery need of one generator: the character sums
    c = c_phi(chi_j) = sum_l |phi(-l)|^2 chi_j(l), j in {0..p-2}, the matrix
    B = B_phi(m,n) = phi(mn) conj(phi(m(n+1))) on {1..p-1} x {1..p-2}, and on first use
    the left inverse of B_phi, the kernel K of step 1 and the left null vector u, all read-only."""

    def __init__(self, phi: np.ndarray, p: int):
        self.phi, self.p = phi, p
        self.c = (p - 1) * np.fft.ifft((np.abs(phi) ** 2)[::-1][root_powers(p)])
        g = phi[index_tables(p).dilation]  # g[m-1, n-1] = phi(mn)
        self.B = g[:, :-1] * g[:, 1:].conj()
        for a in (self.c, self.B):
            a.setflags(write=False)

    @cached_property
    def factors(self) -> tuple[GeneratorReport, np.ndarray | None, np.ndarray | None]:
        """Both admissibility conditions; W = Omega0^T (B_phi^dagger)^* Omega1 / p, so that
        A_2' = pi_hat0(F) W (None when the rank is short); and the kernel of step 1,
        a_1 = K sum_k F(k, .), K = chi^T diag(1/c) chi / (p(p-1)), whose entry [m-1, l-1]
        is kappa(ml), kappa(g^t) = ifft(1/c)[t] / p (None when a c_phi vanishes).

        conj(B[::-1]) = B[:, ::-1], so with J the reversal and Q_n = e^{-i pi/4}(I_n + iJ_n)/sqrt 2
        unitary, Q_{p-1}^H B Q_{p-2} = B_r = Re B + Im B[::-1] is real.  One QR of B_r gives
        Wr = (B_r^dagger)^T, and sigma_min(B) >= 1/||Wr||_F certifies rank p-2; only when
        that fails are the singular values of R counted."""
        p, c, B = self.p, self.c, self.B
        scale = max(float(np.vdot(self.phi, self.phi).real), np.finfo(float).tiny)
        cond_i = bool(np.all(np.abs(c) > RANK_RTOL * scale))
        Qr, R = np.linalg.qr(B.real + B[::-1].imag)
        try:
            Wr = np.linalg.solve(R, Qr.T).T
            certified = 1 / np.linalg.norm(Wr) > RANK_RTOL * scale
        except np.linalg.LinAlgError:  # R exactly singular
            certified = False
        rank = p - 2
        if not certified:  # sigma_min within a factor sqrt(p-2) of the threshold, or 0
            rank = int(np.sum(np.linalg.svd(R, compute_uv=False) > RANK_RTOL * scale))
        cond_ii = rank == p - 2
        report = GeneratorReport(p=p, cond_i_values=c, cond_i_holds=cond_i, b_phi=B,
                                 b_phi_rank=rank, cond_ii_holds=cond_ii,
                                 admissible=cond_i and cond_ii)
        W = None
        if cond_ii:
            # (B^dagger)^H back from Wr, with Omega0^T reversing its rows and Omega1, an
            # involution, gathering its columns
            W = (Wr[::-1] + Wr[:, ::-1]) + 1j * (Wr - Wr[::-1, ::-1])
            W = W[:, inverse_table(p)[1:-1] - 1] / (2 * p)
            W.setflags(write=False)
        K = None
        if cond_i:
            kappa = np.empty(p - 1, dtype=complex)
            kappa[root_powers(p)] = np.fft.ifft(1 / c) / p
            K = kappa[index_tables(p).dilation]
            K.setflags(write=False)
        return report, W, K

    @cached_property
    def ur(self) -> np.ndarray:
        """u[::-1], u the unit left null vector of B = B_phi of an admissible plan: e_i less
        V B^H e_i = B B^dagger e_i at the row i of least leverage, V = (B^dagger)^H, twice."""
        V, Bc = self.p * self.factors[1][::-1, inverse_table(self.p)[1:-1] - 1], self.B.conj()
        u = np.eye(1, len(V), np.argmin(np.einsum("ij,ij->i", V, Bc).real), dtype=complex)[0]
        for _ in range(2):
            u -= V @ (u @ Bc)
        ur = u[::-1] / np.linalg.norm(u)
        ur.setflags(write=False)
        return ur


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _generator_plan(p: int, phi_bytes: bytes) -> _GeneratorPlan:
    """The plan of the validated generator with these bytes, kept for the last
    ``TABLE_CACHE_SIZE`` generators used: an equal phi in a new array shares it,
    and a phi changed in place gets a new one."""
    return _GeneratorPlan(np.frombuffer(phi_bytes, dtype=complex), p)


def _plan(phi, p: int) -> _GeneratorPlan:
    """Validate p and phi, then find or build their plan."""
    p, phi = validate_prime(p), require_finite("phi", phi)
    if phi.shape != (p - 1,):
        raise ValueError(f"generator must live on {{1..{p - 1}}}, got shape {phi.shape}")
    return _generator_plan(p, phi.tobytes())


def c_phi(phi, p: int) -> np.ndarray:
    """Character sums c_phi(chi_j) = sum_l |phi(-l)|^2 chi_j(l), j in {0..p-2}; read-only."""
    return _plan(phi, p).c


def b_phi(phi, p: int) -> np.ndarray:
    """B_phi(m,n) = phi(mn) conj(phi(m(n+1))) on {1..p-1} x {1..p-2}; read-only."""
    return _plan(phi, p).B


def check_generator(phi, p: int) -> GeneratorReport:
    """Evaluate both admissibility conditions for phi."""
    return _plan(phi, p).factors[0]


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


def __getattr__(name: str):
    """``frame_vectors``, now an oracle in :mod:`affinephase.reference`, for perfbench's tests."""
    if name == "frame_vectors":
        from .reference import frame_vectors
        return frame_vectors
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def forward_measure(A, phi, p: int) -> np.ndarray:
    """Measurement map: F(k,l) = <A pi_hat0(k,l) phi, pi_hat0(k,l) phi>.

    :func:`recover_matrix` run backwards: with SA = (a_1 | A_2'),
    pi_hat0(F) = p A_2' (Omega0^T B_phi Omega1)^H.  Summed over k, the factor
    e^{-2 pi i k(n-m)/p} of F(k,l) vanishes unless m = n, so only the diagonal of A
    is left: sum_k F(k,l) = p sum_m |phi(lm)|^2 A(m,m).  Both go to one inverse DFT
    over k per l.  One GEMM and p-1 DFTs of length p: O(p^3) time, O(p^2) memory.
    """
    plan = _plan(phi, p)
    p, A = plan.p, require_finite("A", A)
    if A.shape != (p - 1, p - 1):
        raise ValueError(f"matrix must be (p-1)x(p-1) = {(p - 1, p - 1)}, got {A.shape}")
    per_l = p * ((np.abs(plan.phi) ** 2)[index_tables(p).dilation] @ A.diagonal())
    # Omega0^T B_phi Omega1: the rows of B_phi reversed, its columns gathered as in W
    M = p * (s_apply(A)[:, 1:] @ plan.B[::-1, inverse_table(p)[1:-1] - 1].conj().T)
    return _synthesis(per_l, M, p)


def _recover_steps(F, phi, p: int):
    """Validate, then steps (1) and (2) from one DFT over k per l (group_fourier's
    analysis kernel): (p, plan, F, W, a_1, X) with A_2' = X @ W.  Bin 0 holds
    sum_k F(k,l), which the plan's K takes to a_1; the other bins give X = pi_hat0(F)."""
    plan = _plan(phi, p)
    p, phi, F = plan.p, plan.phi, require_finite("F", F)
    if F.shape[-1:] != (p * (p - 1),):
        raise ValueError(f"measurements must have length p(p-1) = {p * (p - 1)}")
    report, W, K = plan.factors
    if not report.admissible:
        failed = ["(i) a character sum c_phi vanishes"] * (not report.cond_i_holds)
        failed += [f"(ii) rank(B_phi) = {report.b_phi_rank} < {p - 2}"] * (not report.cond_ii_holds)
        raise InadmissibleGeneratorError("generator fails condition " + " and ".join(failed))
    per_l, M = _analysis(F, p)
    # step 1: a_1(k) = (p(p-1))^-1 sum_j c_phi(chi_j)^-1 chi~_j(F) chi_j(k), with
    # chi~_j(F) = sum_l (sum_k F(k,l)) chi_j(l); both character sums are folded into K
    a1 = (K @ per_l[..., None])[..., 0]
    # step 2: A_2' = p^-1 * pi_hat0(F) * Omega0^T * (B_phi^dagger)^* * Omega1;
    # the prefactor follows from Schur orthogonality of the unnormalized
    # pi_hat0 coefficients (pi_hat0(F) = p * A_2' (C_phi')^*).  The plan's W is the
    # whole product right of pi_hat0(F), Omega0^T and Omega1 included.
    return p, plan, F, W, a1, M


def recover_matrix(F, phi, p: int) -> np.ndarray:
    """Invert the measurement map for an admissible generator.

    Steps: (1) character sums of F give the first column a_1 of SA,
    (2) the pi_hat0 component of F gives the block A_2' via the left
    inverse of B_phi, (3) A = S*((a_1 | A_2')).  A stack F of shape
    (..., p(p-1)) gives (..., p-1, p-1); B_phi is factored once per generator.
    """
    return _recover_matrix(F, phi, p, residual=False)[0]


def _recover_matrix(F, phi, p: int, residual: bool = True):
    """(A, ||F - forward_measure(A)|| per record, or None without ``residual``) for A =
    recover_matrix(F): the residual of the fit is ||X u[::-1]|| / sqrt(p), from the plan's u."""
    p, plan, _, W, a1, X = _recover_steps(F, phi, p)
    A = s_inverse_apply(np.concatenate([a1[..., None], X @ W], axis=-1))
    return A, np.linalg.norm(X @ plan.ur, axis=-1) / p**0.5 if residual else None


def canonical_phase(v) -> np.ndarray:
    """Rotate v so its largest-modulus entry is positive real (deterministic
    representative of the equivalence class v * unit scalar) along the last axis."""
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1, v.shape[-1])
    top = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)].reshape(v.shape[:-1] + (1,))
    a = np.abs(top)
    return v * (top.conj() / (a + (a == 0)))  # a zero vector stays zero


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


def recover_vector(F, phi, p: int) -> np.ndarray:
    """Phase retrieval: recover f on {1..p-1} (up to global phase) from
    F = |<f, pi_hat0(k,l) phi>|^2.

    Step 1 of recovery gives the diagonal |f(m)|^2 of A = f f^H; only the column at its largest
    entry j is gathered, through S*, and f = A(:, j) / sqrt(A(j, j)) in canonical phase.  Rank
    one: the relative forward residual of f against F must not exceed RANK_ONE_RTOL.
    O(p^2 log p) per record, O(p^3) up to DFT_PRODUCT_MAX_P.  A stack F of shape (..., p(p-1))
    gives (..., p-1); rank one is tested per record, and the error names the first failure.
    """
    return _recover_vector(F, phi, p)[0]


def _recover_vector(F, phi, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, ||fit - F|| per record) for f = recover_vector(F), from its one forward fit."""
    p, plan, F, W, a1, X = _recover_steps(F, phi, p)
    a1, X = a1.reshape(-1, p - 1), X.reshape(-1, p - 1, p - 1)
    n = np.arange(len(a1))
    # a_1(m) = (SA)(m, 1) = A(-m, -m): the largest diagonal entry is A(j, j) = a_1(-j)
    top = a1.real.argmax(axis=-1)
    j = p - 2 - top
    r, q = np.divmod(index_tables(p).s_inverse.T[j], p - 1)  # A(:, j) = (a_1 | A_2')(r, q)
    col = (X[n[:, None], r] * W.T[q - 1]).sum(axis=-1)  # A_2'(r, q - 1) for q >= 1
    col[n, j] = a1[n, top]  # q = 0 only on the diagonal
    # f = A(:, j) / sqrt(A(j, j)); an all-zero diagonal divides by inf and gives f = 0
    d = np.sqrt(np.where(a1.real[n, top] > 0, a1.real[n, top], np.inf))[:, None]
    f = canonical_phase(col / d).reshape(F.shape[:-1] + (-1,))
    return f, _check_forward_residual(np.abs(_frame_coefficients(f, plan.phi, p)) ** 2, F)


def _check_forward_residual(fitted: np.ndarray, F: np.ndarray) -> np.ndarray:
    """||fitted - F|| along the last axis; InconsistentDataError, naming the first failing record
    of a stack, if it exceeds RANK_ONE_RTOL * ||F||.  An all-zero F passes an all-zero fit."""
    e2, F2 = ((np.abs(x) ** 2).sum(axis=-1) for x in (fitted - F, F))
    bad = e2 > RANK_ONE_RTOL**2 * F2
    if bad.any():
        i = tuple(np.argwhere(bad)[0].tolist())
        raise InconsistentDataError(
            (f"record {list(i)}: " if i else "") + "measurements inconsistent: recovered vector "
            f"leaves relative forward residual {np.sqrt(e2[i] / F2[i]):.3e} > RANK_ONE_RTOL = "
            f"{RANK_ONE_RTOL:.0e}",
            record=i or None)
    return np.sqrt(e2)
