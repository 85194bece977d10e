"""Certification and structural decomposition of polarization transfer matrices.

Given any real 4x4 matrix acting on Stokes vectors, this package decides

* whether it maps the solid Stokes cone into itself (pre-Mueller), with
  exact minimization certificates;
* whether it is a physical Mueller matrix (positive semidefinite associated
  hermitian matrix), with a convex-sum realization by Jones systems when it
  is and an explicit two-mode entanglement witness when it is not;
* which canonical family it belongs to under two-sided Lorentz equivalence,
  with the diagonal factorization in the generic case.
"""

from .canonical import (
    CanonicalClass,
    DegenerateSpectrumError,
    Family,
    NotTypeIError,
    TYPE1_CONSTRAINT_FORMS,
    classify,
    h_eigs_diagonal,
    n_matrix,
    type1_constraints,
    type1_factor,
    type1_margins,
    type2_constraints,
)
from .choi import (
    JonesEnsemble,
    NotPhysicalError,
    PhysicalityReport,
    jones_ensemble,
    mueller_jones_test,
    physicality,
)
from .conetest import ConeVerdict, certify_cone, sphere_quadratic_min
from .core import (
    DEFAULT_TOL,
    LORENTZ_METRIC,
    NonHermitianInputError,
    PAULI_BASIS,
    STOKES_TO_VEC,
    VEC_TO_STOKES,
    coherency_from_stokes,
    coherency_is_physical,
    devectorize,
    h_from_m,
    m_from_h,
    mueller_from_jones,
    stokes_from_coherency,
    stokes_is_physical,
    stokes_is_pure,
    vectorize,
)
from .witness import (
    coherency_transfer,
    expectation,
    extended_action,
    two_mode_is_physical,
    witness_certificate,
    witness_input,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass",
    "ConeVerdict",
    "DEFAULT_TOL",
    "DegenerateSpectrumError",
    "Family",
    "JonesEnsemble",
    "LORENTZ_METRIC",
    "NonHermitianInputError",
    "NotPhysicalError",
    "NotTypeIError",
    "PAULI_BASIS",
    "PhysicalityReport",
    "STOKES_TO_VEC",
    "TYPE1_CONSTRAINT_FORMS",
    "VEC_TO_STOKES",
    "certify_cone",
    "classify",
    "coherency_from_stokes",
    "coherency_is_physical",
    "coherency_transfer",
    "devectorize",
    "expectation",
    "extended_action",
    "h_eigs_diagonal",
    "h_from_m",
    "jones_ensemble",
    "m_from_h",
    "mueller_from_jones",
    "mueller_jones_test",
    "n_matrix",
    "physicality",
    "sphere_quadratic_min",
    "stokes_from_coherency",
    "stokes_is_physical",
    "stokes_is_pure",
    "two_mode_is_physical",
    "type1_constraints",
    "type1_factor",
    "type1_margins",
    "type2_constraints",
    "vectorize",
    "witness_certificate",
    "witness_input",
    "__version__",
]
