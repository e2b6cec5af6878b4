"""Shared exception types, the rank tolerance and the finiteness check.

ValueError subclasses signal invalid inputs (CLI exit code 2);
InconsistentDataError signals a numerical failure on structurally valid
inputs, e.g. measurements that no signal can explain (CLI exit code 3).
"""

import numpy as np

#: The one "numerically zero" tolerance: singular values below RANK_RTOL * sigma_max
#: do not count towards a rank; |c_phi|, |A_phi| <= RANK_RTOL * ||phi||^2 vanish.
RANK_RTOL = 1e-10

#: The largest modulus p (or Heisenberg size n) accepted.  The affine round trip
#: holds about nine complex p x p arrays at its peak, 9 * 16 * p^2 bytes, which
#: is about 0.9 GB at this limit.  Checked before any primality test.
MAX_SIZE = 2500


def require_finite(name: str, a) -> np.ndarray:
    """``a`` as a complex array; ValueError naming it if an entry is NaN or inf."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
    return a


class InadmissibleGeneratorError(ValueError):
    """The generating vector fails an admissibility condition."""


class InconsistentDataError(RuntimeError):
    """Numerically inconsistent data: tolerance exceeded during recovery."""
