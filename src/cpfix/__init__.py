"""Numerical fixed-point analysis for completely positive semigroups.

Finite-dimensional von Neumann algebras (direct sums of matrix blocks),
completely positive contractive maps in block-Kraus form, endomorphic
dilations with co-invariant projections, and the lifting machinery
between the fixed-point spaces of a semigroup and of its corner
compression: ergodic projections, diagonal strong-operator limits,
complete-isometry verification, and the kernel-ideal identity.
"""

from .errors import (
    CoInvarianceViolated,
    CpfixError,
    Divergent,
    Inconsistent,
    InvalidFamily,
    NoConvergence,
    NotContractive,
    NotFixed,
    NotHermitian,
    NotInCStar,
    NotPSD,
    NotProjection,
    NotUnitary,
    ParseError,
    SemigroupLawViolated,
    ShapeMismatch,
    UnknownFamily,
    ValidationFailed,
)
from .matcore import eig_hermitian, is_psd, nullspace, op_norm, psd_sqrt
from .vnalg import (
    AlgebraElement,
    BlockStructure,
    CornerEmbedding,
    amplify_combination,
    compress,
    corner,
    element_from_coords,
    identity_element,
    inject,
    validate_projection,
)
from .cpsemi import (
    CPMap,
    SemigroupFamily,
    apply,
    apply_power,
    compose,
    cp_map,
    conjugation_map,
    damping_family,
    leaky_damping_family,
    make_family,
    rotation_family,
    to_superoperator,
    validate_cp,
    validate_endomorphism,
    validate_family,
)
from .dilation import (
    DilationInstance,
    Minimality,
    MinimalityResult,
    build_random_instance,
    build_tail_shift,
    check_coinvariance,
    check_minimality,
    compress_semigroup,
    make_instance,
)
from .fixpoint import (
    CStarSpan,
    ErgodicProjection,
    FixedSpace,
    IsometryReport,
    KernelIdealReport,
    SuiteReport,
    check_complete_isometry,
    cstar_closure,
    ergodic_projection,
    fixed_space,
    kernel_ideal_check,
    lift_fixed_point,
    phi_limit,
    pi_limit,
    property_suite,
)

__version__ = "0.1.0"
