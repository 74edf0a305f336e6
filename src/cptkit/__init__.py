"""Numerical toolkit for PT-symmetric Hamiltonians.

Validates PT/CPT frame axioms, classifies symmetry phases of non-Hermitian
Hamiltonians, synthesizes C operators from unbroken eigensystems, builds the
CPT inner product, Hermitizes by similarity, and composes frames by tensor
product and direct sum.
"""

from .errors import (
    CommutatorViolation,
    CptKitError,
    DefectiveSpectrum,
    DimensionMismatch,
    DocumentError,
    FrameInvalid,
    GramDefect,
    InvalidArgument,
    InvalidModel,
    IsIdentity,
    KindMismatch,
    NonFiniteEntries,
    NonRealEntries,
    NotHermitian,
    NotInvolution,
    NotPositiveDefinite,
    NotPTEigenstate,
    NotPTSymmetric,
    NotUnbroken,
    SelfOrthogonal,
)
from .linops import (
    ANTILINEAR,
    DEFAULT_TOL,
    LINEAR,
    EigenSystem,
    Operator,
    apply,
    compose,
    dirac_adjoint,
    eigendecompose,
    hermitian_power,
    hermitian_powers,
    t_transpose,
)
from .frames import (
    CPTFrame,
    FrameReport,
    PTFrame,
    checked_cpt_frame,
    checked_pt_frame,
    frame_from_involution,
    pair_swap_frame,
    validate_cpt_frame,
    validate_pt_frame,
)
from .symmetry import (
    BROKEN,
    NOT_APPLICABLE,
    UNBROKEN,
    AlignedState,
    ConjugatePair,
    PTSymmetryCheck,
    StackClassification,
    SymmetryReport,
    TwoByTwoClass,
    classify_2x2,
    classify_stack,
    classify_symmetry,
    is_pt_symmetric,
    phase_align,
)
from .cpt import (
    EP_GUARD_TOL,
    CPTResult,
    SignedState,
    aligned_signs,
    build_c,
    cpt_adjoint,
    cpt_inner,
    hermitize,
    normalize_indefinite,
    pt_inner,
)
from .composition import (
    BlockSpec,
    direct_sum,
    doubling,
    tensor_frames,
    tensor_hamiltonians,
)
from .models import (
    FAMILIES,
    ClosedFormSpectrum,
    ModelSpec,
    build_model,
    closed_form_c,
    closed_form_spectrum,
    model_frame,
    model_matrix,
)

__version__ = "0.1.0"
