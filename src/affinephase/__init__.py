"""Phase retrieval and matrix recovery for affine group frames over prime fields.

The package root exports the pipelines only.  The dense oracles that the tests
check them against live in :mod:`affinephase.reference`, which no pipeline imports.
"""

from .errors import InadmissibleGeneratorError, InconsistentDataError
from .affine import ENUMERATION_ORDER_TAG
from .group_fourier import (
    AffineFourierCoefficients,
    fourier_invert,
    transform,
)
from .recovery import (
    GeneratorReport,
    b_phi,
    c_phi,
    canonical_generator,
    canonical_phase,
    canonical_time_generator,
    check_generator,
    forward_measure,
    phase_distance,
    recover_matrix,
    recover_vector,
)
from .heisenberg import (
    ambiguity,
    check_generator_h,
    h_forward,
    h_recover,
)
from .diagnostics import (
    complement_property,
    conjugate_phase_reconstruct,
    difference_coefficients,
    difference_phase_retrieval,
    full_spark,
    pauli_pair_family,
    projection_phase_retrieval,
    three_transitive_phase_retrieval,
    verify_counterexample_n3,
)

__version__ = "0.1.0"
