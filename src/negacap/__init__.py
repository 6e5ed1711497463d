"""Entangling-capacity bounds and symmetric Gaussian block suprema.

Two toolsets with a shared dense-matrix kernel:

* ``channel``/``entcap``: Choi-matrix machinery for linear maps on
  operators and the negativity-based bounds on how much entanglement a
  quantum operation can create;
* ``gaussian``: covariance-matrix analysis of permutation-symmetric
  Gaussian states and the exact suprema of their block entanglement.
"""

from . import channel, entcap, errors, families, gaussian, io, linalg
from .channel import (
    Channel,
    KrausForm,
    MapSplit,
    adjoint_identity,
    apply,
    choi_from_kraus,
    compose,
    hp_split,
    identity_channel,
    is_cp,
    is_cptp,
    is_hp,
    is_tp,
    kraus_channel,
    kraus_from_choi,
    map_partial_transpose,
    mix,
    unitary_channel,
)
from .entcap import (
    ChannelAnalysis,
    ECBounds,
    OperatorSchmidt,
    SaturationReport,
    analyze_channel,
    campbell_check,
    distance_bounds,
    ec_bounds_deterministic,
    ec_bounds_probabilistic,
    gamma_norm,
    is_ppt_unitary,
    is_separable_pure,
    log_negativity,
    negativity,
    norm_equivalence_check,
    operator_schmidt,
    pt_minus_identity,
    saturation_check,
)
from .gaussian import (
    UNBOUNDED,
    BlockSpec,
    CovarianceMatrix,
    StandardForm,
    SymmetricParams,
    Unbounded,
    block_log_negativity,
    cov_purity,
    entanglement_vs_nd,
    f_block,
    is_valid_state,
    localize_blocks,
    log_negativity_gaussian,
    params_to_standard,
    partial_transpose_cov,
    pure_state_oracle,
    pure_symmetric_cov,
    purity,
    reduced_cov,
    standard_to_params,
    sup_block_entanglement,
    sup_gap_ratio,
    symmetric_cov,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_invariants,
    vacuum_cov,
)
from .linalg import (
    BipartiteDims,
    HermitianSplit,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    positive_negative_parts,
    schatten_norm,
    sqrt_psd,
    tensor,
)

__version__ = "0.1.0"
