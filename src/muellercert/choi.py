"""Physicality verdicts from the spectrum of the associated hermitian matrix.

A real 4x4 matrix is a physical Mueller matrix exactly when its associated
hermitian matrix is positive semidefinite, in which case the spectral
decomposition hands back a convex-sum realization by deterministic (Jones)
systems; rank one corresponds to a single Jones system.  When the matrix is
not physical, the most negative eigenvalue and its eigenvector are reported
as the most violating Jones direction.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, as_mueller_matrix, devectorize, mueller_from_jones
from .kernel import Analysis


class NotPhysicalError(ValueError):
    """Raised when a convex-sum realization is requested for a matrix whose
    associated hermitian matrix has a negative eigenvalue."""


@dataclass(frozen=True)
class PhysicalityReport:
    """Spectral summary of the associated hermitian matrix.

    ``eigenvalues`` is sorted descending and sums to the trace of the input
    matrix's diagonal.  ``min_eigenvector`` is the unit eigenvector of the
    smallest eigenvalue, the most violating Jones direction when the verdict
    is negative.  ``rank`` counts eigenvalues above the positive threshold.
    """

    eigenvalues: np.ndarray
    min_eigenvalue: float
    min_eigenvector: np.ndarray
    is_mueller: bool
    rank: int


@dataclass(frozen=True)
class JonesEnsemble:
    """Convex-sum realization: weights and unit-Frobenius Jones matrices.

    The number of items equals the rank of the associated hermitian matrix,
    the minimum possible; when eigenvalues repeat, the realization is not
    unique and the eigendecomposition's choice is returned.
    """

    items: tuple[tuple[float, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.items)

    def reconstruct(self) -> np.ndarray:
        """Weighted sum of the member Mueller-Jones matrices."""
        out = np.zeros((4, 4))
        for weight, jones in self.items:
            out += weight * mueller_from_jones(jones)
        return out


def physicality(m, tol: float = DEFAULT_TOL) -> PhysicalityReport:
    """Eigendecompose the associated hermitian matrix and report the verdict.

    Holds at every scale: it raises FloatingPointError only where an
    eigenvalue is beyond the float range, near float max."""
    h = Analysis(as_mueller_matrix(m)[None], tol).hermitian
    return PhysicalityReport(
        eigenvalues=np.array(h.w[0][::-1]),
        min_eigenvalue=h.w[0][0],
        min_eigenvector=h.vecs[0, 0].copy(),
        is_mueller=h.mueller[0],
        rank=h.rank[0],
    )


def jones_ensemble(m, tol: float = DEFAULT_TOL) -> JonesEnsemble:
    """Minimal convex-sum realization of a physical Mueller matrix.

    Each eigenvalue above threshold contributes one item: the eigenvalue as
    the weight, the devectorized unit eigenvector as the Jones matrix.  The
    weighted sum of the member Mueller-Jones matrices reproduces the input.
    """
    h = Analysis(as_mueller_matrix(m)[None], tol).hermitian
    w = h.w[0]
    if not h.mueller[0]:
        raise NotPhysicalError(
            f"most negative eigenvalue {w[0]:.6g} exceeds tolerance; "
            "no convex-sum realization exists"
        )
    return JonesEnsemble(
        items=tuple(
            (w[k], devectorize(h.vecs[0, k])) for k in range(3, 3 - h.rank[0], -1)
        )
    )


def mueller_jones_test(m, tol: float = DEFAULT_TOL):
    """Jones matrix of ``m`` when it describes a single deterministic system.

    Such matrices are exactly those whose associated hermitian matrix is
    positive semidefinite of rank one; the Jones matrix is recovered up to
    an (unobservable) global phase.  Returns None for every other input.
    """
    h = Analysis(as_mueller_matrix(m)[None], tol).hermitian
    if not h.mueller[0] or h.rank[0] != 1:
        return None
    return np.sqrt(h.w[0][3]) * devectorize(h.vecs[0, 3])
