"""Two-mode beam states and the entanglement witness for unphysical maps.

A transversely homogeneous optical system acts on a beam's polarization
identically at every pair of transverse points while leaving the spatial
dependence alone.  Truncated to two orthonormal spatial modes, a beam's
two-point correlation state is a 4x4 hermitian coefficient matrix on the
product basis (x mode1, x mode2, y mode1, y mode2), hermitian and positive
semidefinite when physical.

The key computational fact, verified rather than assumed by the test suite:
applying the extended action of a transfer matrix to the maximally
entangled pure input reproduces, entry for entry, the associated hermitian
matrix of the transfer matrix.  A negative eigenvalue of that matrix
therefore hands back an explicit generalized Jones vector whose expectation
against the transformed input is negative, witnessing that a map can
preserve the Stokes cone and still be unphysical.  Separable inputs can
never expose this: on them any cone-preserving map acts block-by-block as
an ordinary Stokes map.
"""

import numpy as np

from .core import (
    DEFAULT_TOL,
    NonHermitianInputError,
    STOKES_TO_VEC,
    VEC_TO_STOKES,
    _not_hermitian,
    as_mueller_matrix,
)
from .kernel import Analysis


def coherency_transfer(m) -> np.ndarray:
    """Matrix of the coherency-domain action equivalent to S -> m S.

    Acts on row-major vectorized 2x2 coherency matrices; for a Jones system
    it equals the tensor square of the Jones matrix.
    """
    return STOKES_TO_VEC @ as_mueller_matrix(m) @ VEC_TO_STOKES


def witness_input() -> np.ndarray:
    """The maximally entangled two-mode pure input state.

    Outer product of the coefficient vector (1, 0, 0, 1): an equal
    superposition of x-polarized mode 1 and y-polarized mode 2.  Rank one
    with trace 2.
    """
    e = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    return np.outer(e, e.conj())


def extended_action(m, c) -> np.ndarray:
    """Apply a transfer matrix to a two-mode state, polarization only.

    For every fixed pair of mode indices the 2x2 polarization block
    transforms by the coherency-domain equivalent of S -> m S; the mode
    structure is untouched.  Output is hermitian whenever the input is.
    """
    arr = np.asarray(c, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got shape {arr.shape}")
    t4 = coherency_transfer(m).reshape(2, 2, 2, 2)
    c4 = arr.reshape(2, 2, 2, 2)
    return np.einsum("jkpq,pmqn->jmkn", t4, c4).reshape(4, 4)


def two_mode_is_physical(c, tol: float = DEFAULT_TOL) -> bool:
    """True when a two-mode coefficient matrix is hermitian and PSD within tol."""
    arr = np.asarray(c, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got shape {arr.shape}")
    scale = max(np.linalg.norm(arr, 2), 1e-300)
    if _not_hermitian(arr, tol, scale):
        return False
    return bool(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0] >= -tol * scale)


def expectation(c, e, tol: float = DEFAULT_TOL) -> float:
    """Expectation value e^dag c e of a hermitian two-mode state.

    Raises NonHermitianInputError when c fails the hermiticity tolerance.
    """
    arr = np.asarray(c, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got shape {arr.shape}")
    if _not_hermitian(arr, tol):
        raise NonHermitianInputError("two-mode state is not hermitian")
    vec = np.asarray(e, dtype=complex)
    if vec.shape != (4,):
        raise ValueError(f"expected a 4-component Jones vector, got shape {vec.shape}")
    return float((vec.conj() @ arr @ vec).real)


def witness_certificate(m, tol: float = DEFAULT_TOL):
    """Generalized Jones vector exposing an unphysical cone-preserving map.

    Returns the unit eigenvector of the most negative eigenvalue of the
    associated hermitian matrix when that eigenvalue is below -tol times
    the matrix norm; its expectation against the extended action of ``m``
    on the maximally entangled input is then negative.  Returns None when
    ``m`` is physical (within tolerance).
    """
    h = Analysis(m, tol).hermitian
    return None if h.mueller[0] else h.vecs[0, 0].copy()
