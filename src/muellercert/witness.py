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

:func:`coherency_transfer`, :func:`extended_action` and :func:`expectation`
are stack-native, like the analysis kernel: they take a leading axis of N
transfer matrices (N, 4, 4), states (N, 4, 4) or vectors (N, 4), and a
single input is the stack of one on the same code.  Each coerces its
arguments through ``core._array`` and hands them to a private core,
``_extended_action`` or ``_expectation``; a report's witness expectation is
one call of each core over all the rows of a stack that are not Mueller,
whose arrays the analysis has already coerced and whose states are
hermitian by construction, so only the public :func:`expectation` checks.
"""

import numpy as np

from .core import (
    DEFAULT_TOL,
    NonHermitianInputError,
    STOKES_TO_VEC,
    VEC_TO_STOKES,
    _array,
    _not_hermitian,
    as_mueller_matrix,
)
from .kernel import Analysis


def coherency_transfer(m) -> np.ndarray:
    """Matrix of the coherency-domain action equivalent to S -> m S.

    Acts on row-major vectorized 2x2 coherency matrices; for a Jones system
    it equals the tensor square of the Jones matrix.  ``m`` is one 4x4
    matrix or an (N, 4, 4) stack, and the result has its shape.
    """
    return STOKES_TO_VEC @ _array(m, (4, 4), "Mueller candidate", stack=True) @ VEC_TO_STOKES


def witness_input() -> np.ndarray:
    """The maximally entangled two-mode pure input state.

    Outer product of the coefficient vector (1, 0, 0, 1): an equal
    superposition of x-polarized mode 1 and y-polarized mode 2.  Rank one
    with trace 2.
    """
    e = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    return np.outer(e, e.conj())


# The witness input of every report, built once.
_WITNESS_INPUT = witness_input()
_WITNESS_INPUT.setflags(write=False)


def extended_action(m, c) -> np.ndarray:
    """Apply a transfer matrix to a two-mode state, polarization only.

    For every fixed pair of mode indices the 2x2 polarization block
    transforms by the coherency-domain equivalent of S -> m S; the mode
    structure is untouched.  Output is hermitian whenever the input is.

    ``m`` is one 4x4 matrix or an (N, 4, 4) stack, and so is ``c``; a 4x4
    input serves every row of the other.  The result is (N, 4, 4) when
    either input is a stack, row i the action of ``m[i]`` on ``c[i]``, and
    4x4 otherwise, as the stack of one.
    """
    arr = _array(c, (4, 4), "two-mode state", complex, stack=True)
    mats = _array(m, (4, 4), "Mueller candidate", stack=True)
    out = _extended_action(mats, arr)
    return out if arr.ndim == 3 or mats.ndim == 3 else out[0]


def _extended_action(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`extended_action` of coerced arrays (real ``m``, complex ``c``,
    each 4x4 or a stack), always as an (N, 4, 4) stack."""
    t = STOKES_TO_VEC @ m @ VEC_TO_STOKES
    t4, c4 = t.reshape(-1, 2, 2, 2, 2), c.reshape(-1, 2, 2, 2, 2)
    return np.einsum("...jkpq,...pmqn->...jmkn", t4, c4).reshape(-1, 4, 4)


def two_mode_is_physical(c, tol: float = DEFAULT_TOL) -> bool:
    """True when a two-mode coefficient matrix is hermitian and PSD within
    tol, relative to the largest eigenvalue magnitude."""
    arr = _array(c, (4, 4), "two-mode state", complex)
    if _not_hermitian(arr, tol):
        return False
    w = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))
    return bool(w[0] >= -tol * max(-w[0], w[-1]))


def expectation(c, e, tol: float = DEFAULT_TOL) -> float | np.ndarray:
    """Expectation value e^dag c e of a hermitian two-mode state.

    ``c`` is one 4x4 state or an (N, 4, 4) stack, ``e`` one 4-vector or an
    (N, 4) stack; a single state or vector serves every row of the other.
    Returns a float for one state and one vector, and otherwise the (N,)
    array whose row i is ``e[i]^dag c[i] e[i]``.

    Raises NonHermitianInputError when any state fails the hermiticity
    tolerance.
    """
    arr = _array(c, (4, 4), "two-mode state", complex, stack=True)
    vec = _array(e, (4,), "Jones vector", complex, stack=True)
    if _not_hermitian(arr, tol):
        raise NonHermitianInputError("two-mode state is not hermitian")
    values = _expectation(arr, vec)
    return values if arr.ndim == 3 or vec.ndim == 2 else float(values[0])


def _expectation(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """:func:`expectation` of coerced complex arrays (``c`` 4x4 or a stack,
    ``e`` a 4-vector or a stack), always as an (N,) array, with no
    hermiticity check: the report path passes states built hermitian."""
    vecs = e.reshape(-1, 4)
    return (vecs.conj()[:, None, :] @ c.reshape(-1, 4, 4) @ vecs[:, :, None])[:, 0, 0].real


def witness_certificate(m, tol: float = DEFAULT_TOL):
    """Generalized Jones vector exposing an unphysical cone-preserving map.

    Returns the unit eigenvector of the most negative eigenvalue of the
    associated hermitian matrix when that eigenvalue is below -tol times
    the matrix norm; its expectation against the extended action of ``m``
    on the maximally entangled input is then negative.  Returns None when
    ``m`` is physical (within tolerance).
    """
    h = Analysis(as_mueller_matrix(m)[None], tol).hermitian
    return None if h.mueller[0] else h.vecs[0, 0].copy()
