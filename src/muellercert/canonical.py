"""Classification of cone-preserving matrices into their canonical families.

Under two-sided multiplication by proper orthochronous Lorentz matrices,
every cone-preserving real 4x4 matrix lands in exactly one of four orbits:

* Type I: diagonal canonical form diag(d0, d1, d2, d3) with
  d0 >= d1 >= d2 >= |d3|;
* Type II: the non-diagonalizable form with the single off-diagonal entry
  M01 = d0 - d1, with d0 > d1 > 0 and sqrt(d0 d1) >= d2 >= |d3|;
* Polarizer: rank one, fixed output polarization, intensity depending on
  the input state;
* Pin map: rank one, fixed output polarization and input-independent
  intensity.

The family is read off the Lorentz normal matrix N = G M^T G M: Type I has a
diagonalizable N with real nonnegative spectrum (the squared canonical
parameters), Type II a defective N, and the two rank-one families N = 0.
Jordan structure is discontinuous, so gray-zone inputs are reported as
Indeterminate rather than guessed.

Closed-form physicality tests for the diagonal and Type II canonical forms
are provided as simple inequalities on the canonical parameters, equivalent
to positive semidefiniteness of the associated hermitian matrix.
"""

import numpy as np

from . import kernel
from .core import DEFAULT_TOL, as_mueller_matrix

# The result types are defined by the kernel, which builds them.
from .kernel import CanonicalClass, DegenerateSpectrumError, Family, NotTypeIError  # noqa: F401


#: The four inequalities, in fixed order, that make a diagonal canonical
#: form physical.  Item k is violated exactly when type1_margins(d)[k] < 0.
TYPE1_CONSTRAINT_FORMS = (
    "-d1 - d2 - d3 <= d0",
    "-d1 + d2 + d3 <= d0",
    "d1 + d2 - d3 <= d0",
    "d1 - d2 + d3 <= d0",
)


def n_matrix(m) -> np.ndarray:
    """Lorentz normal matrix N = G M^T G M."""
    return kernel.normal_matrices(as_mueller_matrix(m))


def type1_margins(d) -> np.ndarray:
    """Slack of each physicality inequality for a diagonal canonical form.

    Accepts a 4-vector or a stack of shape (..., 4); returns the matching
    stack of 4 slacks, ordered as TYPE1_CONSTRAINT_FORMS.  All slacks are
    nonnegative exactly when diag(d) is a physical Mueller matrix.
    """
    arr = np.asarray(d, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError("expected canonical parameters of shape (..., 4)")
    d0, d1, d2, d3 = (arr[..., k] for k in range(4))
    return np.stack(
        [d0 + d1 + d2 + d3, d0 + d1 - d2 - d3, d0 - d1 - d2 + d3, d0 - d1 + d2 - d3],
        axis=-1,
    )


def type1_constraints(d, tol: float = 0.0):
    """True when every diagonal-form physicality inequality holds within tol.

    Vectorized like :func:`type1_margins`; returns a bool (or bool array).
    """
    result = type1_margins(d).min(axis=-1) >= -tol
    return bool(result) if result.ndim == 0 else result


def type2_constraints(d, tol: float = DEFAULT_TOL) -> bool:
    """Physicality test for the Type-II canonical form.

    On the Type-II domain d0 > d1 > 0 the canonical form is physical iff
    d3 == d2 (within tol) and d2^2 <= d0 d1 (within tol); the equality is
    the constraint that appears only when spatially entangled inputs are
    considered.
    """
    arr = np.asarray(d, dtype=float)
    if arr.shape != (4,):
        raise ValueError("expected 4 canonical parameters")
    d0, d1, d2, d3 = arr
    return bool(abs(d3 - d2) <= tol and d2**2 <= d0 * d1 + tol)


def h_eigs_diagonal(d) -> np.ndarray:
    """Eigenvalues of the associated hermitian matrix of diag(d), closed form.

    The hermitian matrix splits into two 2x2 blocks; the four eigenvalues
    are (d0 + d1 +/- (d2 + d3)) / 2 and (d0 - d1 +/- (d2 - d3)) / 2,
    returned sorted descending (on the last axis for stacked input).
    """
    arr = np.asarray(d, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError("expected canonical parameters of shape (..., 4)")
    d0, d1, d2, d3 = (arr[..., k] for k in range(4))
    eigs = np.stack(
        [
            0.5 * (d0 + d1 + (d2 + d3)),
            0.5 * (d0 + d1 - (d2 + d3)),
            0.5 * (d0 - d1 + (d2 - d3)),
            0.5 * (d0 - d1 - (d2 - d3)),
        ],
        axis=-1,
    )
    return np.sort(eigs, axis=-1)[..., ::-1]


def type1_factor(m, tol: float = DEFAULT_TOL):
    """Factor a nonsingular Type-I matrix as l_left @ diag(d) @ l_right.

    The Lorentz normal matrix is self-adjoint in the Lorentz metric, so for
    distinct eigenvalues its eigenvectors are automatically G-orthogonal:
    normalized to one timelike (future-pointing) and three spacelike unit
    vectors with overall determinant one they assemble into the inverse of
    a proper orthochronous l_right, and l_left follows by division.  The
    canonical parameters are the signed square roots of the eigenvalues,
    the last one carrying the sign of det(m).

    Raises DegenerateSpectrumError when eigenvalue gaps fall below tol
    (callers should fall back to classification only) and NotTypeIError
    when the spectrum or eigenvector causality types rule the family out,
    or when the input is singular.
    """
    result = kernel.Analysis(m, tol).factors()[0]
    if isinstance(result, ValueError):
        raise result
    return result


def classify(m, tol: float = DEFAULT_TOL) -> CanonicalClass:
    """Assign a real 4x4 matrix to its canonical family.

    Cone preservation is certified first; everything else is read off the
    Lorentz normal matrix computed from the input normalized to unit
    largest singular value.  Eigenvalues are clustered at sqrt(tol); a
    cluster whose geometric multiplicity (rank test at tol) matches its
    size is diagonalizable (Type I), one with a genuine null direction but
    missing loose-rank dimensions is defective (Type II), and anything in
    between comes back as Indeterminate with diagnostics, never as a
    guess.
    """
    return kernel.Analysis(m, tol).canonical[0]
