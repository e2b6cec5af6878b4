"""Shared exception types, the tolerances and size limits, and the finite and real checks.

ValueError subclasses signal invalid inputs (CLI exit code 2);
InconsistentDataError signals a numerical failure on structurally valid
inputs, e.g. measurements that no signal can explain (CLI exit code 3).
"""

import numpy as np

#: The one "numerically zero" tolerance: singular values below RANK_RTOL * sigma_max do not
#: count towards a rank, nor do those of B_phi below RANK_RTOL * ||phi||^2 (noise has rank 0);
#: |c_phi|, |A_phi| <= this * ||phi||^2 and 3-transitive divisors <= this * n^2 ||psi0||^2 vanish.
RANK_RTOL = 1e-10

#: The one consistency test of the retrievals, the forward residual || fit - data || > this *
#: ||data|| of the recovered f: |<f, pi_hat0 phi>|^2 against F (phase retrieval), |<f, Pi(h) psi>|^2
#: against y^2 (3-transitive), |f(k) - f(l)|^2 against D^2 (conjugate phase retrieval) and
#: |f(h(k0)) - f(h(l0))|^2 against y^2 (difference-frame magnitudes).
RANK_ONE_RTOL = 1e-6

#: Conjugate phase retrieval: the moduli matrix must be symmetric with zero diagonal to
#: within this * max(largest modulus, 1), and the second-largest coordinate counts as in
#: the lower half-plane below -this * largest modulus.
CONJUGATE_PR_RTOL = 1e-8
#: Conjugate PR sets the second axis to zero if its largest Gram diagonal entry, after the
#: first axis is taken out, is <= this * trace: the noise axis of a collinear configuration.
COLLINEAR_RTOL = 1e-12
#: A vector (psi0, or the f of projection phase retrieval) is zero-sum if |sum| <= this * norm.
ZERO_SUM_RTOL = 1e-10
#: Pauli pairs: two coefficient moduli match within this * the largest coefficient modulus.
PAULI_MATCH_RTOL = 1e-10

#: The largest modulus p (or Heisenberg size n) accepted.  The affine round trip
#: holds about nine complex p x p arrays at its peak, 9 * 16 * p^2 bytes, which
#: is about 0.9 GB at this limit.  Each cached p keeps its three index tables,
#: 3 (p-1)^2 intp entries or 24 (p-1)^2 bytes, and its O(p) root_powers: about 147 MB per p
#: at p = 2477, the largest prime below this limit; up to DFT_PRODUCT_MAX_P it also keeps the
#: DFT matrix and its conjugate, 32 p^2 bytes (0.33 MB at p = 101).  Each cached generator keeps
#: phi, c_phi, B_phi, the left inverse W of B_phi and the step-1 kernel K, 48 (p-1)^2 bytes
#: (~294 MB at p = 2477), and once asked for, the left null vector u of B_phi, 16 (p-1) bytes.
#: A cached Heisenberg plan holds one complex n x n table, 16 n^2 bytes, and each cached n its
#: three intp gathers, 24 n^2 bytes: 100 and 150 MB at n = 2500.  A 3-transitive plan holds psi0
#: and nine scalars, a projection plan phi, 16 (p-1) bytes.  Checked before any primality test.
MAX_SIZE = 2500

#: How many moduli (and generators) keep their read-only tables between calls (least
#: recently used first out); two, so that alternating between two rebuilds nothing.
TABLE_CACHE_SIZE = 2

#: The largest p whose DFTs over k in the affine kernels are one product with a cached DFT matrix.
DFT_PRODUCT_MAX_P = 101


def require_finite(name: str, a) -> np.ndarray:
    """``a`` as a complex array; ValueError naming it if an entry is NaN or inf."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
    return a


def require_real(name: str, a) -> np.ndarray:
    """``a`` as a float array; ValueError naming it if an entry is NaN or inf, or if an
    imaginary part is nonzero (zero ones are dropped without a warning)."""
    a = np.asarray(a)
    require_finite(name, a)
    if a.dtype.kind == "c" and a.imag.any():
        raise ValueError(f"{name} must be real, but an imaginary part is nonzero")
    return np.asarray(a.real, dtype=float)


class InadmissibleGeneratorError(ValueError):
    """The generating vector fails an admissibility condition."""


class InconsistentDataError(RuntimeError):
    """Numerically inconsistent data; ``record`` indexes the failing record of a stack."""

    def __init__(self, message: str, record: tuple[int, ...] | None = None):
        super().__init__(message)
        self.record = record
