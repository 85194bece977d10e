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
N is self-adjoint in the Lorentz form, so it is diagonalizable on the
Lorentz-orthogonal complement of its top invariant subspace, where the form
is negative definite: a Type-II Jordan block can only sit in N's top
eigenvalue cluster, at d0 d1 >= d2^2 >= d3^2.  Only that cluster is
rank-tested.  Jordan structure is discontinuous, so a nearly tied top
cluster that the rank test cannot settle is reported as Indeterminate
rather than guessed.

Closed-form physicality tests for the diagonal and Type II canonical forms
are provided as simple inequalities on the canonical parameters, equivalent
to positive semidefiniteness of the associated hermitian matrix.
"""

import dataclasses

import numpy as np

from . import kernel
from .core import DEFAULT_TOL, _array, _unit_exponent, as_mueller_matrix, as_tolerance

# The family, the Type-I inequalities and the Type-I errors are defined by
# the kernel, which builds them.
from .kernel import TYPE1_CONSTRAINT_FORMS  # noqa: F401
from .kernel import DegenerateSpectrumError, Family, NotTypeIError


@dataclasses.dataclass(frozen=True)
class CanonicalClass:
    """Family verdict of :func:`classify` with canonical parameters and
    factors when determined.

    ``d`` holds the canonical parameters of a Type-I result and is None for
    every other family: only for Type I does the Lorentz orbit fix them.  A
    pair of x-boosts maps the Type-II (d0, d1) to (e^t d0, e^-t d1), and
    the rank-one families carry no invariant scale.  ``diagnostics`` says
    why a result has no classified family (NotPreMueller, zero matrix,
    Indeterminate), and is None for a classified one.  Factors are attached
    to a Type-I result whose factorization succeeds; they satisfy
    L^T G L = G with positive corner and unit determinant, and
    l_left @ diag(d) @ l_right reproduces the input.
    """

    family: Family
    d: np.ndarray | None = None
    l_left: np.ndarray | None = None
    l_right: np.ndarray | None = None
    diagnostics: str | None = None


def n_matrix(m) -> np.ndarray:
    """Lorentz normal matrix N = G M^T G M."""
    return kernel.normal_matrices(as_mueller_matrix(m))


def type1_margins(d) -> np.ndarray:
    """Slack of each physicality inequality for a diagonal canonical form.

    Accepts a 4-vector or a stack of shape (..., 4); returns the matching
    stack of 4 slacks, ordered as TYPE1_CONSTRAINT_FORMS.  All slacks are
    nonnegative exactly when diag(d) is a physical Mueller matrix.
    """
    return kernel.type1_margins(_array(d, (..., 4), "canonical parameters"))


def type1_constraints(d, tol: float = 0.0):
    """True when every diagonal-form physicality inequality holds within tol
    relative to d0 (every slack at least -tol d0), whatever the scale of d.

    Vectorized like :func:`type1_margins`; returns a bool (or bool array).
    """
    d = _array(d, (..., 4), "canonical parameters")
    _, violated = kernel.worst_type1_constraint(d, as_tolerance(tol))
    return not violated if violated.ndim == 0 else ~violated


def type2_constraints(d, tol: float = DEFAULT_TOL) -> bool:
    """Physicality test for the Type-II canonical form.

    On the Type-II domain d0 > d1 > 0 the canonical form is physical iff
    d3 == d2 and d2^2 <= d0 d1, both within tol relative to d0:
    |d3 - d2| <= tol d0 and d2^2 <= d0 d1 + tol d0^2, evaluated on d
    divided by a power of two (exactly), so the verdict does not depend on
    the scale of d.  The equality is the constraint that appears
    only when spatially entangled inputs are considered.
    """
    d = _array(d, (4,), "canonical parameters")
    d0, d1, d2, d3 = np.ldexp(d, -_unit_exponent(d))
    tol = as_tolerance(tol)
    return bool(abs(d3 - d2) <= tol * d0 and d2**2 <= d0 * d1 + tol * d0**2)


def h_eigs_diagonal(d) -> np.ndarray:
    """Eigenvalues of the associated hermitian matrix of diag(d), closed form.

    The hermitian matrix splits into two 2x2 blocks; the four eigenvalues,
    (d0 + d1 +/- (d2 + d3)) / 2 and (d0 - d1 +/- (d2 - d3)) / 2, are half the
    :func:`type1_margins`, sorted descending (on the last axis for stacks).
    """
    return np.sort(0.5 * type1_margins(d), axis=-1)[..., ::-1]


def type1_factor(m, tol: float = DEFAULT_TOL):
    """Factor a nonsingular Type-I matrix as l_left @ diag(d) @ l_right.

    The Lorentz normal matrix is self-adjoint in the Lorentz metric, so for
    distinct eigenvalues its eigenvectors are automatically G-orthogonal:
    normalized to one timelike (future-pointing) and three spacelike unit
    vectors with overall determinant one they assemble into the inverse of
    a proper orthochronous l_right, and l_left follows by division.  With
    sigma the largest singular value of m, the canonical parameters d are
    sigma times the signed square roots of the eigenvalues of the normal
    matrix of m/sigma, the last one carrying the sign of det(m).

    Raises FloatingPointError when sigma is beyond the float range, which
    entries within a factor of about 4 of float max can reach.  Raises
    NotTypeIError when the input is singular (d3 is zero), before any
    other screen, since the normal matrix of a singular input can be
    rounding noise.  Otherwise raises DegenerateSpectrumError when
    eigenvalue gaps fall below tol (callers should fall back to
    classification only) and NotTypeIError when the spectrum or
    eigenvector causality types rule the family out.
    """
    return kernel.Analysis(as_mueller_matrix(m)[None], tol).factor()


def classify(m, tol: float = DEFAULT_TOL) -> CanonicalClass:
    """Assign a real 4x4 matrix to its canonical family.

    Cone preservation is certified first; everything else is read off the
    Lorentz normal matrix computed from the input normalized to unit
    largest singular value.  Only its top eigenvalue cluster (the
    eigenvalues within sqrt(tol) of the largest, unless their condition
    numbers show that no perturbation at tol closes the gap) is examined,
    since only it can be defective.  A simple top eigenvalue with a
    timelike eigenvector is Type I.  A tied top cluster whose geometric
    multiplicity (rank test at tol) matches its size is diagonalizable
    (Type I), one with a genuine
    null direction but missing loose-rank dimensions is defective (Type
    II), and anything in between comes back as Indeterminate with
    diagnostics, never as a guess.  A Type-I result carries the factors of
    :func:`type1_factor` when the factorization succeeds.  A ``tol`` at or
    below about 1e-15 lets rounding in N decide the family.
    """
    analysis = kernel.Analysis(as_mueller_matrix(m)[None], tol)
    stage = analysis.canonical
    family, d = stage.family[0], stage.d[0]
    l_left = l_right = None
    if family is Family.TYPE_I:
        try:
            l_left, _, l_right = analysis.factor()
        except (DegenerateSpectrumError, NotTypeIError):
            pass
    d = None if d is None else np.array(d)
    return CanonicalClass(family, d, l_left, l_right, stage.reason[0])
