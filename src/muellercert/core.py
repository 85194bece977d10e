"""Fixed conventions and exact linear conversions between polarization
representations.

Four equivalent descriptions of the same physics are wired together here:

* Stokes vectors: real 4-vectors (S0, S1, S2, S3). Physical states fill the
  solid forward light cone of the Lorentz metric diag(1, -1, -1, -1).
* Coherency matrices: 2x2 hermitian positive semidefinite matrices carrying
  the same information as the Stokes vector.
* Jones matrices: 2x2 complex matrices acting at field amplitude level.
* Mueller candidates: real 4x4 matrices acting on Stokes vectors, each in
  one-to-one correspondence with a 4x4 hermitian matrix whose spectrum
  decides whether the candidate is a physical Mueller matrix.

Two conventions are fixed once and relied on by every other module:

* The Pauli basis is ordered (identity, sigma_z, sigma_x, sigma_y), which
  places circular polarization on the third Poincare axis.
* 2x2 matrices vectorize row-major: K -> (K11, K12, K21, K22).

With these choices the hermitian matrix associated with a Mueller-Jones
matrix is exactly the outer product of the vectorized Jones matrix with
itself, with no extra permutation.

All functions are pure and thread-safe; returned arrays are fresh copies.
"""

import numpy as np

#: Default relative tolerance for every predicate in the package.  Measured
#: Mueller matrices carry noise around 1e-4, so 1e-9 cleanly separates
#: numerical error from physical violation.
DEFAULT_TOL = 1e-9


class NonHermitianInputError(ValueError):
    """Raised when an input that must be hermitian (within tolerance) is not."""


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli basis in optical ordering: (identity, sigma_z, sigma_x, sigma_y).
#: Satisfies tr(PAULI_BASIS[a] @ PAULI_BASIS[b]) == 2 * delta_ab.
PAULI_BASIS = np.stack([np.eye(2, dtype=complex), _SIGMA_Z, _SIGMA_X, _SIGMA_Y])

#: Lorentz metric of the Stokes cone, diag(1, -1, -1, -1).
LORENTZ_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

#: Maps the row-major vectorization of a coherency matrix to its Stokes
#: vector.  Essentially unitary: its inverse is half its conjugate transpose.
VEC_TO_STOKES = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
    ],
    dtype=complex,
)

#: Exact inverse of VEC_TO_STOKES.
STOKES_TO_VEC = 0.5 * VEC_TO_STOKES.conj().T

# Orthonormal hermitian basis of 4x4 matrices pairing the entries of a real
# 4x4 matrix with the entries of its associated hermitian matrix:
# _PAIR_BASIS[a, b] = 0.5 * kron(PAULI_BASIS[a], PAULI_BASIS[b].conj()).
_PAIR_BASIS = 0.5 * np.einsum(
    "ajk,bmn->abjmkn", PAULI_BASIS, PAULI_BASIS.conj()
).reshape(4, 4, 4, 4)

for _const in (PAULI_BASIS, LORENTZ_METRIC, VEC_TO_STOKES, STOKES_TO_VEC, _PAIR_BASIS):
    _const.setflags(write=False)
del _const


def _as_real(m) -> np.ndarray:
    arr = np.asarray(m)
    if np.iscomplexobj(arr):
        raise ValueError("Mueller candidate must be real")
    return arr.astype(float, copy=False)


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("Mueller candidate has a non-finite entry (nan or inf)")
    return arr


def as_mueller_matrix(m) -> np.ndarray:
    """Coerce to a real 4x4 float array, rejecting complex and non-finite
    input."""
    arr = _as_real(m)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 real matrix, got shape {arr.shape}")
    return _finite(arr)


def as_mueller_stack(ms) -> np.ndarray:
    """Coerce to a real (N, 4, 4) float stack, rejecting complex and
    non-finite input; a single 4x4 matrix becomes a stack of one."""
    arr = _as_real(ms)
    if arr.shape == (4, 4):
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise ValueError(f"expected an (N, 4, 4) stack of real matrices, got shape {arr.shape}")
    return _finite(arr)


def as_jones_matrix(j) -> np.ndarray:
    """Coerce to a 2x2 complex array."""
    arr = np.asarray(j, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 complex matrix, got shape {arr.shape}")
    return arr


def as_stokes_vector(s) -> np.ndarray:
    """Coerce to a real length-4 float array."""
    arr = np.asarray(s, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected a real 4-vector, got shape {arr.shape}")
    return arr


def vectorize(k) -> np.ndarray:
    """Flatten a 2x2 matrix row-major: K -> (K11, K12, K21, K22)."""
    return as_jones_matrix(k).reshape(4).copy()


def devectorize(v) -> np.ndarray:
    """Exact inverse of :func:`vectorize`."""
    arr = np.asarray(v, dtype=complex)
    if arr.shape != (4,):
        raise ValueError(f"expected a complex 4-vector, got shape {arr.shape}")
    return arr.reshape(2, 2).copy()


def stokes_from_coherency(phi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stokes vector of a coherency matrix: S_a = tr(PAULI_BASIS[a] @ phi).

    Non-hermitian input yields complex traces and raises
    NonHermitianInputError.
    """
    arr = np.asarray(phi, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
    s = np.einsum("ajk,kj->a", PAULI_BASIS, arr)
    scale = max(np.linalg.norm(arr), 1e-300)
    if np.abs(s.imag).max() > tol * scale:
        raise NonHermitianInputError(
            "coherency matrix is not hermitian: traces have imaginary parts"
        )
    return np.ascontiguousarray(s.real)


def coherency_from_stokes(s) -> np.ndarray:
    """Coherency matrix of a Stokes vector: half the Pauli-basis expansion."""
    return 0.5 * np.einsum("a,ajk->jk", as_stokes_vector(s), PAULI_BASIS)


def mueller_from_jones(j) -> np.ndarray:
    """Mueller matrix of a deterministic (Jones) system.

    Built by conjugating the tensor-square of the Jones matrix with the
    vectorization-to-Stokes map.  The result is exactly real; for a Jones
    matrix of unit determinant it is a proper orthochronous Lorentz matrix,
    and the formula applies to singular Jones matrices as well.
    """
    jj = np.kron(as_jones_matrix(j), as_jones_matrix(j).conj())
    return np.ascontiguousarray((VEC_TO_STOKES @ jj @ STOKES_TO_VEC).real)


def h_from_m(m) -> np.ndarray:
    """Associated hermitian matrix of a real 4x4 matrix.

    The expansion coefficients of the result on the orthonormal pair basis
    are exactly the entries of ``m``, making this a real-linear bijection
    between real 4x4 matrices and hermitian 4x4 matrices.  Its spectrum
    decides physicality: ``m`` is a Mueller matrix iff the result is
    positive semidefinite.
    """
    return _hermitian_of(as_mueller_matrix(m))


def _hermitian_of(mats) -> np.ndarray:
    """Associated hermitian matrices of a real (..., 4, 4) array."""
    return np.einsum("...ab,abjk->...jk", mats, _PAIR_BASIS)


def _not_hermitian(arr: np.ndarray, tol: float, scale: float | None = None) -> bool:
    """True when arr deviates from hermiticity, in Frobenius norm, by more
    than tol times ``scale`` (by default its own Frobenius norm)."""
    if scale is None:
        scale = max(np.linalg.norm(arr), 1e-300)
    return bool(np.linalg.norm(arr - arr.conj().T) > tol * scale)


def m_from_h(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Exact inverse of :func:`h_from_m`.

    Raises NonHermitianInputError when the input deviates from hermiticity
    by more than ``tol`` relative to its norm.
    """
    arr = np.asarray(h, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    if _not_hermitian(arr, tol):
        raise NonHermitianInputError("input matrix is not hermitian")
    return np.ascontiguousarray(np.einsum("jk,abkj->ab", arr, _PAIR_BASIS).real)


def stokes_is_physical(s, tol: float = DEFAULT_TOL) -> bool:
    """True when s lies in the solid forward light cone (closed cone)."""
    arr = as_stokes_vector(s)
    if arr[0] <= 0.0:
        return False
    return float(arr @ LORENTZ_METRIC @ arr) >= -tol * arr[0] ** 2


def stokes_is_pure(s, tol: float = DEFAULT_TOL) -> bool:
    """True for fully polarized states, which live on the cone surface."""
    arr = as_stokes_vector(s)
    return stokes_is_physical(arr, tol) and abs(
        float(arr @ LORENTZ_METRIC @ arr)
    ) <= tol * arr[0] ** 2


def coherency_is_physical(phi, tol: float = DEFAULT_TOL) -> bool:
    """True when phi is hermitian with positive trace and nonnegative det."""
    arr = np.asarray(phi, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if _not_hermitian(arr, tol):
        return False
    tr = arr.trace().real
    return tr > 0.0 and np.linalg.det(arr).real >= -tol * tr**2


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of complex vectors (on the last axis) so that
    the largest entry of each is real and positive.  Deterministic output
    for eigenvector-valued results; zero vectors are returned unchanged."""
    flat = v.reshape(-1, v.shape[-1])
    pivot = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=-1)]
    pivot = pivot.reshape(v.shape[:-1] + (1,))
    mag = np.hypot(pivot.real, pivot.imag)
    return v * np.divide(pivot.conj(), mag, out=np.ones_like(pivot), where=mag > 0.0)
