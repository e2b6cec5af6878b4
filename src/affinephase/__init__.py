"""Phase retrieval and matrix recovery for affine group frames over prime fields."""

from .errors import InadmissibleGeneratorError, InconsistentDataError
from .primefield import (
    CharacterTable,
    character_table,
    is_prime,
    mod_inverse,
    primitive_root,
)
from .harmonics import dft_matrix
from .affine import (
    AffineElement,
    ENUMERATION_ORDER_TAG,
    element_index,
    enumerate_group,
    omega0,
    omega1,
    pi_hat0_matrix,
    pi_hat_matrix,
    pi_matrix,
    rho1_apply,
    rho2_apply,
    s_apply,
    s_inverse_apply,
)
from .group_fourier import (
    AffineFourierCoefficients,
    chi_tilde,
    chi_tilde_all,
    fourier_invert,
    pi_hat0_transform,
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
    frame_vectors,
    oracle_full_map,
    oracle_recover,
    phase_distance,
    recover_matrix,
    recover_vector,
)
from .heisenberg import (
    ambiguity,
    check_generator_h,
    h_forward,
    h_recover,
    schrodinger_matrix,
)
from .diagnostics import (
    PatchData,
    complement_property,
    conjugate_phase_reconstruct,
    difference_coefficients,
    full_spark,
    is_k_transitive,
    pauli_pair_family,
    phase_propagation_stitch,
    projection_phase_retrieval,
    three_transitive_phase_retrieval,
    verify_counterexample_n3,
)

__version__ = "0.1.0"
