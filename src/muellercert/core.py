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

import math

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


def _array(x, shape, what, dtype=float, stack=False) -> np.ndarray:
    """The one input boundary of the public API: ``x`` as a finite array of
    ``dtype`` and ``shape``, else ValueError naming ``what``.

    ``None`` in ``shape`` is a free length, and a leading ``...`` admits any
    number of leading axes; ``stack=True`` admits one optional leading axis.
    The array keeps the axes it came with.  Where ``dtype`` is float, complex
    input is rejected rather than cast to its real part.
    """
    arr = np.asarray(x)
    if dtype is float and arr.dtype.kind == "c":
        raise ValueError(f"{what} must be real")
    arr = arr.astype(dtype, copy=False)
    free = shape[0] is Ellipsis
    dims = shape[1:] if free else shape
    lead = arr.ndim - len(dims)  # axes in front of dims
    fits = lead >= 0 if free else lead in (0, int(stack))
    got = arr.shape[lead:]
    if not fits or (got != dims and any(n not in (None, k) for n, k in zip(dims, got))):
        names = ["..." if n is Ellipsis else "n" if n is None else str(n) for n in shape]
        stacked = f" or an (N, {', '.join(names)}) stack" if stack else ""
        raise ValueError(f"{what}: expected shape {'x'.join(names)}{stacked}, got {arr.shape}")
    # count_nonzero is the cheapest reduction on the small arrays of one call.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{what} has a non-finite entry (nan or inf)")
    return arr


def as_mueller_matrix(m) -> np.ndarray:
    """Coerce to a real 4x4 float array, rejecting complex and non-finite
    input."""
    return _array(m, (4, 4), "Mueller candidate")


def as_mueller_stack(ms) -> np.ndarray:
    """Coerce to a real (N, 4, 4) float stack, rejecting complex and
    non-finite input; a single 4x4 matrix becomes a stack of one."""
    return _array(ms, (4, 4), "Mueller candidate", stack=True).reshape(-1, 4, 4)


def as_tolerance(tol) -> float:
    """Coerce a verdict tolerance to a float, rejecting nan, inf and
    negative values.

    A tolerance at or below rounding (about 1e-16, 0 included) is accepted,
    but then :func:`~muellercert.classify` reads the rounding noise of the
    normal matrix N: over 2,000 pin maps, tol 1e-17 splits them across
    PinMap, Type I and three other outcomes, and tol 1e-15 reads all 2,000
    as PinMap."""
    value = float(tol)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {value!r}")
    return value


def vectorize(k) -> np.ndarray:
    """Flatten a 2x2 matrix row-major: K -> (K11, K12, K21, K22)."""
    return _array(k, (2, 2), "2x2 matrix", complex).reshape(4).copy()


def devectorize(v) -> np.ndarray:
    """Exact inverse of :func:`vectorize`."""
    return _array(v, (4,), "vectorized 2x2 matrix", complex).reshape(2, 2).copy()


def stokes_from_coherency(phi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stokes vector of a coherency matrix: S_a = tr(PAULI_BASIS[a] @ phi).

    Raises NonHermitianInputError when phi is not hermitian within tol.
    """
    arr = _array(phi, (2, 2), "coherency matrix", complex)
    if _not_hermitian(arr, tol):
        raise NonHermitianInputError("coherency matrix is not hermitian")
    return np.ascontiguousarray(np.einsum("ajk,kj->a", PAULI_BASIS, arr).real)


def coherency_from_stokes(s) -> np.ndarray:
    """Coherency matrix of a Stokes vector: half the Pauli-basis expansion."""
    return 0.5 * np.einsum("a,ajk->jk", _array(s, (4,), "Stokes vector"), PAULI_BASIS)


def mueller_from_jones(j) -> np.ndarray:
    """Mueller matrix of a deterministic (Jones) system.

    Built by conjugating the tensor-square of the Jones matrix with the
    vectorization-to-Stokes map.  The result is exactly real; for a Jones
    matrix of unit determinant it is a proper orthochronous Lorentz matrix,
    and the formula applies to singular Jones matrices as well.
    """
    arr = _array(j, (2, 2), "Jones matrix", complex)
    jj = np.kron(arr, arr.conj())
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


def _not_hermitian(arr: np.ndarray, tol: float) -> bool:
    """The one hermiticity rule: True when arr, one n x n matrix or an
    (N, n, n) stack, holds a matrix A with ||A - A^dag||_F > tol ||A||_F.
    Each matrix is divided by its largest magnitude first, so no square
    under- or overflows and the rule holds at every scale."""
    peak = np.abs(arr).max(axis=(-2, -1), keepdims=True)
    unit = arr / np.where(peak > 0.0, peak, 1.0)
    skew = np.linalg.norm(unit - unit.conj().swapaxes(-2, -1), axis=(-2, -1))
    return bool(np.count_nonzero(skew > tol * np.linalg.norm(unit, axis=(-2, -1))))


def m_from_h(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Exact inverse of :func:`h_from_m`.

    Raises NonHermitianInputError when the input deviates from hermiticity
    by more than ``tol`` relative to its norm.
    """
    arr = _array(h, (4, 4), "hermitian matrix", complex)
    if _not_hermitian(arr, tol):
        raise NonHermitianInputError("input matrix is not hermitian")
    return np.ascontiguousarray(np.einsum("jk,abkj->ab", arr, _PAIR_BASIS).real)


def _unit_exponent(*arrays) -> int:
    """The exponent e for which 2**-e brings the largest magnitude in the
    arrays into [1, 2) (-1 when every entry is zero).  Dividing by 2**e is
    exact wherever no entry underflows, so a verdict computed on the
    divided arrays does not depend on their scale, and the square of the
    largest entry neither under- nor overflows."""
    return math.frexp(max(float(np.abs(a).max()) for a in arrays))[1] - 1


def stokes_is_physical(s, tol: float = DEFAULT_TOL) -> bool:
    """True when s lies in the solid forward light cone (closed cone),
    whatever the scale of s."""
    arr = _array(s, (4,), "Stokes vector")
    arr = np.ldexp(arr, -_unit_exponent(arr))
    return bool(arr[0] > 0.0 and arr @ LORENTZ_METRIC @ arr >= -tol * arr[0] ** 2)


def stokes_is_pure(s, tol: float = DEFAULT_TOL) -> bool:
    """True for fully polarized states, which live on the cone surface,
    whatever the scale of s."""
    arr = _array(s, (4,), "Stokes vector")
    arr = np.ldexp(arr, -_unit_exponent(arr))
    return bool(arr[0] > 0.0 and abs(arr @ LORENTZ_METRIC @ arr) <= tol * arr[0] ** 2)


def coherency_is_physical(phi, tol: float = DEFAULT_TOL) -> bool:
    """True when phi is hermitian with positive trace and nonnegative
    determinant within tol, whatever the scale of phi: the Stokes cone test
    of its Stokes vector at 4 tol, since tr phi = S0 and
    4 det phi = S0^2 - |S|^2."""
    arr = _array(phi, (2, 2), "coherency matrix", complex)
    if _not_hermitian(arr, tol):
        return False
    return stokes_is_physical(np.einsum("ajk,kj->a", PAULI_BASIS, arr).real, 4.0 * tol)

