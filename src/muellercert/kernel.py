"""Stack-native analysis behind every verdict.

Every verdict of the package is read off three spectral objects of a real
4x4 matrix M, and :class:`Analysis` computes each of them once per matrix,
over a whole (N, 4, 4) stack at a time:

* **H stage**: the associated hermitian matrix H and one stacked ``eigh``,
  both of M over a power of two.
  It decides physicality and the rank, which the Jones ensemble, the
  single-Jones test, the entanglement witness and the reports read.
* **Cone stage**: the largest singular value, the closed-form intensity
  margin and the global minimum of the output Lorentz form over the
  Poincare sphere: a stacked 3x3 ``eigh`` plus one stacked 6x6 ``eigvals``
  on the rows off the hard case.  It decides cone preservation.
* **N stage**: the Lorentz normal matrix G M^T G M of M scaled to unit
  largest singular value, its spectral norm and one stacked ``eig``.  The
  normal matrices are built once per stack, and the cone stage reads its
  Lorentz form M^T G M off them as G N.  The N stage runs only when some
  row gets classified, cone-preserving and nonzero: the other rows get
  their family from the cone stage alone.  The canonical family reads that
  ``eig``, plus one rank test of the top eigenvalue cluster on the rows
  where it is tied: N is self-adjoint in the Lorentz form, so only that
  cluster can be defective (:meth:`Analysis._classify_full`).  With one
  stacked ``slogdet`` it gives the Type-I parameters d
  (:attr:`Analysis.type1_d`).  The stacked
  :class:`CanonicalStage` holds a :class:`Family`, d, a reason and the
  violated Type-I inequality per row, the last read off d by the one
  Type-I rule (:func:`worst_type1_constraint`).  The Type-I
  factors are not part of the stage: only :func:`~muellercert.classify`
  and :func:`~muellercert.type1_factor` ask for them, one matrix at a time
  (:meth:`Analysis.factor`), so reports never factor.

:class:`Family`, :data:`TYPE1_CONSTRAINT_FORMS` and the Type-I errors are
defined here and re-exported by :mod:`muellercert.canonical`, whose
``classify`` builds a :class:`~muellercert.CanonicalClass` from its row of
the stage.

The public functions of the layer modules are views on an analysis of a
stack of one, and ``batch`` analyzes a whole directory as one stack, so
both sizes take the same code, but for the form of :func:`sphere_min`:
one for a stack of one and one for every other stack (below).  A stage is
computed on its first read and kept in the analysis's ``__dict__`` by a
descriptor that takes no lock, so threads analyzing different stacks never
wait on each other.

What runs stacked and what runs per row: every LAPACK call and every
BLAS-backed product (``matmul``, ``np.vecdot``, ``np.matvec``,
``np.vecmat``, ``einsum``) run on the whole stack, and so do the H stage's
head (the peak, ``np.frexp`` and ``np.ldexp``), ``_unit_phase``
(``np.hypot``), the N stage's ``argsort`` (numpy's sort does not keep ties
in the order Python's ``sorted`` does) and its gather of the top
eigenvectors for the timelike test, :attr:`Analysis.type1_d`'s
``np.exp`` and the Type-I rule (:func:`worst_type1_constraint`), which
:func:`~muellercert.type1_constraints` and ``tetra-scan`` run on large
stacks.  The scalar tail of each stage runs in one Python loop over
``tolist()`` values: the H stage's threshold, rank, verdict and scaling
back; the cone stage's margins, verdict, worst input and zero rows; the N
stage's sorted real parts, largest imaginary part and norm; ``type1_d``'s
clip, roots, zero screen on d3 and scaling by sigma; the canonical stage's
vanishing test, cluster size and centre, rank counts, d and binding rows.
Those fields are Python lists.  Numpy dispatch on a 1-row array costs
0.4-2 us per call, where a Python float operation costs tens of
nanoseconds, so the loops serve one matrix best; at 25 rows each stage's
loop costs what its numpy form costs, to 0.1 us per matrix, so each stage
has one form for every stack size.  :func:`sphere_min`, whose
elementwise steps are many more per row, has two: on a stack of one those
steps run on Python floats in a straight-line solve of one problem,
between its ``eigh``, its ``eigvals`` of the lifted matrix and its sums of
products, which run as numpy calls on that stack of one; on every other
stack every step runs as a numpy operation on the whole stack.  Per row
that is 35.5 us at 1 row (65.8 stacked), and stacked 36.9 us at 2 rows,
27.0 at 3 and 9.9 at 25 (:func:`sphere_min` has the conditions).  The
loops use only +, -, *, /, ``**`` (C ``pow``, as ``np.float_power``),
``abs``, ``math.sqrt``, ``math.copysign``, ``math.ldexp``, ``max`` and
comparisons, each of which gives the bits of the numpy operation it
replaced: ``max`` keeps the first of equal arguments and ``np.maximum``
the second, and ``np.sign(-0.0)`` is 0.0, so the loops order and guard
those calls to match.  No loop calls
``sum()``: Python 3.12's is compensated.  Sums of products cannot move:
numpy's BLAS kernels fuse multiply and add (FMA) on hosts that have it,
and on an AVX-512 host ``np.vecdot``
of 3-vectors equals a left-to-right Python sum in only 66.7% of 200,000
random draws.  For the same reason the memory layout of a BLAS operand
stays as it was: OpenBLAS sums a dot product of strided vectors in another
order than of contiguous ones.

Row reductions of real stacks are numpy's gufuncs ``np.vecdot``,
``np.matvec`` and ``np.vecmat`` (numpy >= 2.2).  They run the per-row BLAS
``dot`` or ``gemv`` that the stacked matrix products they replaced
(``x[:, None, :] @ y[:, :, None]``) run, so they keep every bit, and a
row's result does not depend on the stack around it.  Nor does a row's
result of a LAPACK gufunc: so :func:`_sphere_min_one` gives a problem the
bytes of its row in :func:`_sphere_min_stacked`.  On complex stacks
``np.vecdot`` conjugates its first argument, so the witness expectation
keeps its matrix-product form.

Every LAPACK call goes straight to the gufunc of ``numpy.linalg`` that the
public function would call (``_eigh``, ``_svdvals``, ``_svd``, ``_eig``,
``_eigvals``, ``_slogdet``), so the results are the public function's, bit
for bit, without its per-call wrapper: its ``errstate`` context, its
finiteness and dtype checks.  The arrays are finite float64 or complex128
stacks by construction (:func:`~muellercert.core._array` checked the
input).  A failed LAPACK call still raises ``LinAlgError``, with the text
and in the order of the public function's check: the gufunc fills the
failed row with nan, the stage loop that reads the output tests each row
for it, and sigma's SVD, which the ``unit`` stage divides by first, and
the LAPACK calls of :func:`_sphere_min_stacked`, whose outputs no loop
reads, are tested at the call (:func:`_converged`).
"""

import enum
import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import DEFAULT_TOL, LORENTZ_METRIC, _hermitian_of, as_tolerance

# Degenerate-structure thresholds of the sphere minimization (relative to the
# problem scale).  Eigenvalues within _GAP_EPS of the smallest form the
# bottom eigenspace, whose solution components are completed to the sphere
# rather than divided by their gaps; a bottom-space coupling below
# _COUPLING_EPS counts as zero when deciding for the hard case.
_GAP_EPS = 1e-12
_COUPLING_EPS = 1e-14

# Input direction reported when no pure input is singled out.
_POLE = (0.0, 0.0, 1.0)
_EYE = np.eye(4)
_COLUMNS = np.arange(4)
_EPS = float(np.finfo(float).eps)
# The signs of d0, d1, d2 and d3 in the four Type-I margins, one row each.
_MARGIN_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], float)
for _const in (_EYE, _COLUMNS, _MARGIN_SIGNS):
    _const.setflags(write=False)
del _const
#: The four inequalities, in fixed order, that make a diagonal canonical
#: form physical.  Item k is violated exactly when type1_margins(d)[k] < 0.
TYPE1_CONSTRAINT_FORMS = (
    "-d1 - d2 - d3 <= d0",
    "-d1 + d2 + d3 <= d0",
    "d1 + d2 - d3 <= d0",
    "d1 - d2 + d3 <= d0",
)


class Family(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    POLARIZER = "Polarizer"
    PIN_MAP = "PinMap"
    NOT_PRE_MUELLER = "NotPreMueller"
    INDETERMINATE = "Indeterminate"


_TYPE_I, _TYPE_II, _POLARIZER, _PIN_MAP, _NOT_PRE_MUELLER, _INDETERMINATE = Family


class DegenerateSpectrumError(ValueError):
    """Raised by the Type-I factorization when eigenvalues of the Lorentz
    normal matrix are too close to separate eigenvectors reliably."""


class NotTypeIError(ValueError):
    """Raised by the Type-I factorization when the input does not admit a
    diagonal canonical form (or is singular)."""


def _norm(x):
    """Row-wise Euclidean norm of an (N, n) stack."""
    return np.sqrt(np.vecdot(x, x))


def _transpose(a):
    return a.swapaxes(-1, -2)


# numpy.linalg's gufuncs (numpy 2 names) on finite float64 / complex128
# stacks, each giving the bits of the public function named in its docstring.
# A helper returns the gufunc's outputs as they are, failed rows included
# (see _converged).


def _converged(out, what):
    """``out``, unless it holds a nan: a gufunc fills every output of the
    row of a failed LAPACK call with nan, and then ``LinAlgError`` is raised
    as the public function raises it.  numpy also emits ``RuntimeWarning:
    invalid value encountered in <gufunc>`` for that row (a
    ``FloatingPointError`` in its place under ``np.errstate(invalid="raise")``).

    A stage loop tests the first value of each row it reads (``x != x``,
    tens of nanoseconds: a failed row is all nan) and calls this on a hit,
    so the text and the order of the errors are those of a check at the
    call.  Sigma's SVD, which the ``unit`` stage divides by before any loop
    reads it, is checked at the call (:func:`_spectral_norm`), and so are
    the LAPACK calls of :func:`_sphere_min_stacked`, which has no loop."""
    if np.count_nonzero(out != out):
        raise LinAlgError(f"{what} did not converge")
    return out


def _eigh(a):
    """``np.linalg.eigh(a)`` of real symmetric or complex hermitian ``a``.
    Unchecked: the caller tests each row it reads (:func:`_converged`)."""
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _svdvals(a):
    """``np.linalg.svd(a, compute_uv=False)``: singular values, descending.
    Unchecked: the caller tests each row it reads (:func:`_converged`)."""
    return _umath_linalg.svd(a, signature="d->d")


def _svd(a):
    """``np.linalg.svd(a)``: ``(u, s, vh)`` with square ``u`` and ``vh``.
    Unchecked: the caller tests each row it reads (:func:`_converged`)."""
    return _umath_linalg.svd_f(a, signature="d->ddd")


def _eig(a):
    """``np.linalg.eig(a)`` of real ``a``, always complex (the public function
    drops the zero imaginary parts of an all-real stack; the values are the
    same).  Unchecked: the caller tests each row it reads (:func:`_converged`)."""
    return _umath_linalg.eig(a, signature="d->DD")


def _eigvals(a):
    """``np.linalg.eigvals(a)`` of real ``a``, always complex (as :func:`_eig`).
    Unchecked: the caller tests each row it reads (:func:`_converged`)."""
    return _umath_linalg.eigvals(a, signature="d->D")


def _slogdet(a):
    """``np.linalg.slogdet(a)`` of real ``a``: sign and log |det|, which an LU
    factorization always gives."""
    return _umath_linalg.slogdet(a, signature="d->dd")


def _spectral_norm(mats):
    """Largest singular value of each matrix (as ``np.linalg.norm(m, 2)``):
    the first, as LAPACK returns them in descending order."""
    return _converged(_svdvals(mats), "SVD")[..., 0]


def normal_matrices(mats):
    """Lorentz normal matrix G M^T G M of each matrix of a stack."""
    g = LORENTZ_METRIC
    return g @ _transpose(mats) @ g @ mats


def type1_margins(d):
    """Slack of each Type-I physicality inequality of d, shape (..., 4)."""
    # d0 +- d1 +- d2 +- d3 summed left to right from -0.0, which adds no
    # bit (an all-zero sum keeps its sign); x - y is exactly x + (-y).
    return np.add.reduce(d[..., :, None] * _MARGIN_SIGNS, axis=-2, initial=-0.0)


def worst_type1_constraint(d, tol):
    """The Type-I rule: the index of the smallest margin of d, shape (..., 4),
    and whether it is below -tol d0: scale-free, and rounding in the three
    zero margins of a single Jones system, d ~ (1, 1, 1, 1), violates nothing."""
    margins = type1_margins(d)
    return margins.argmin(axis=-1), np.minimum.reduce(margins, axis=-1) < -tol * d[..., 0]


@functools.cache
def _lifted_index(n):
    """Where each entry of the 2n x 2n matrix of :func:`_lifted` sits in its
    source row ``[gap, -|c|, -v v^T, 0.0, -0.0]``."""
    eye, diag, zero = np.eye(n, dtype=bool), np.arange(n), n * (n + 2)
    index = np.block([
        [np.where(eye, diag, zero), np.where(eye, n + diag, zero + 1)],
        [2 * n + np.arange(n * n).reshape(n, n), np.where(eye, diag, zero)],
    ])
    index.setflags(write=False)
    return index


def _lifted(gap, c):
    """The lifted matrix of :func:`_sphere_min_one`, a stack of one, in one
    gather from a list of gaps and one of couplings: the blocks diag(gap),
    -diag(|c|), -v v^T and diag(gap), v = sign(c) |c|^1/2, with 0.0 off the
    diagonal of each diag(gap) and -0.0 off that of -diag(|c|) (the sign of
    each zero is part of LAPACK's input)."""
    # np.sign(c) * np.sqrt(|c|), whose sign of a zero c is 0.0.
    v = [math.copysign(math.sqrt(abs(y)), y) if y else 0.0 for y in c]
    source = gap + [-abs(y) for y in c] + [-(s * t) for s in v for t in v] + [0.0, -0.0]
    return np.array([source]).take(_lifted_index(len(c)), axis=1)


def _stacked_lifted(gap, c):
    """The lifted matrices of :func:`_sphere_min_stacked`, gathered from
    (N, n) arrays of gaps and couplings (as :func:`_lifted` from lists)."""
    k, n = c.shape
    abs_c = np.abs(c)
    v = np.sign(c) * np.sqrt(abs_c)
    outer = (v[:, :, None] * v[:, None, :]).reshape(k, n * n)
    source = np.empty((k, n * (n + 2) + 2))
    source[:, -2:] = [0.0, -0.0]
    np.concatenate((gap, -abs_c, -outer), axis=1, out=source[:, :-2])
    return source[:, _lifted_index(n)]


def sphere_min(a, b):
    """Stacked global minimum of s^T A s + 2 b^T s over the unit sphere.

    ``a`` is an (N, n, n) stack of symmetric matrices and ``b`` an (N, n)
    stack.  Returns the minimum values, shape (N,), and unit minimizers,
    shape (N, n).  The method is documented at
    :func:`muellercert.conetest.sphere_quadratic_min`.

    Two forms, one for one problem and one for a stack, run the same LAPACK
    calls (``eigh`` of A, ``eigvals`` of the lifted matrices) and the same
    sums of products (``np.vecmat``, ``np.vecdot``, ``np.matvec``), and give
    each row the same bytes, whatever the stack around it.  They differ in
    the elementwise steps between those calls.  A stack of one
    (``analyze_matrix``, ``analyze``,
    :func:`~muellercert.conetest.sphere_quadratic_min`) takes
    :func:`_sphere_min_one`, which runs them on Python floats: a numpy call
    on a 1-row array costs 0.4-2 us, a float operation tens of nanoseconds.
    Every other stack (``batch``, the empty one too) takes
    :func:`_sphere_min_stacked`, which runs them as numpy operations on the
    whole stack, whose fixed cost per call the rows share.  Per row, on the
    cone stage's problems of the 400 matrices of ``bench/corpus.py``'s
    ``measured_corpus(6, 16, 25)`` (median of 15 interleaved passes, BLAS
    on one thread): 35.5 us at 1 row, where the stacked form takes 65.8;
    and in the stacked form 36.9 us at 2 rows, 27.0 at 3 and 9.9 at 25.
    Python-float steps per row would take 29.6 and 25.4 us at 2 and 3
    rows, but only a ``batch`` of two or three files runs such a stack.
    """
    if len(a) == 1:
        return _sphere_min_one(a, b)
    return _sphere_min_stacked(a, b)


def _sphere_min_stacked(a, b):
    """:func:`sphere_min` with every step on the whole stack."""
    lam, q = _eigh(a)
    _converged(lam, "Eigenvalues")
    c = np.vecmat(b, q)
    scale = np.maximum(np.maximum(-lam[:, 0], lam[:, -1]), np.maximum(_norm(b), 1.0))
    gap = lam - lam[:, :1]
    bottom = gap <= _GAP_EPS * scale[:, None]
    s_eig = np.divide(-c, gap, out=np.zeros(c.shape), where=~bottom)
    tail_sq = np.vecdot(s_eig, s_eig)
    c_bottom = np.where(bottom, c, 0.0)
    hard = (
        np.vecdot(c_bottom, c_bottom) <= np.float_power(_COUPLING_EPS * scale, 2)
    ) & (tail_sq <= 1.0)
    n_hard = np.count_nonzero(hard)
    if n_hard:
        s_eig[:, 0] = np.where(hard, np.sqrt(np.maximum(1.0 - tail_sq, 0.0)), 0.0)
    if n_hard < len(hard):
        easy = slice(None) if n_hard == 0 else ~hard
        c, gap, bottom = c[easy], gap[easy], bottom[easy]
        mu = _converged(_eigvals(_stacked_lifted(gap, c)), "Eigenvalues")
        shift = np.maximum(0.0, -mu.real.min(axis=-1))
        floor = np.maximum(shift, _EPS * scale[easy])
        comp = -c / (gap + np.where(bottom, floor[:, None], shift[:, None]))
        s_easy = np.where(bottom, 0.0, comp)
        direction = comp - s_easy
        length = _norm(direction)
        deficit = np.maximum(0.0, 1.0 - np.vecdot(s_easy, s_easy))
        grow = length > 0.0
        ratio = np.divide(np.sqrt(deficit), length, out=np.zeros(length.shape), where=grow)
        complete = bottom & grow[:, None]
        s_eig[easy] = np.where(complete, direction * ratio[:, None], s_easy)
    s = np.matvec(q, s_eig)
    norm = _norm(s)
    s = np.divide(s, norm[:, None], out=s, where=norm[:, None] > 0.0)
    return np.vecdot(np.vecmat(s, a), s) + 2.0 * np.vecdot(b, s), s


def _sphere_min_one(a, b):
    """:func:`sphere_min` of a stack of one, with the elementwise steps on
    Python floats: the spectral scale, the gaps, the bottom eigenspace, the
    hard-case test and completion, the source row of the lifted matrix, the
    shift and its floor, the components, the deficit, the ratio that
    completes the bottom components and the divisor of the final
    normalization.  Where a step needs two sums of squares, one
    ``np.vecdot`` takes both over a (2, n) stack."""
    n = a.shape[-1]
    lam, q = _eigh(a)
    c = np.vecmat(b, q)
    (bb,), (lr,), (cr,) = np.vecdot(b, b).tolist(), lam.tolist(), c.tolist()
    if lr[0] != lr[0]:
        _converged(lam, "Eigenvalues")
    # The spectrum is ascending, so its largest magnitude sits at an end.  The
    # maximum is at least 1.0, so which of equal arguments max keeps changes
    # no bit.
    scale = max(-lr[0], lr[-1], math.sqrt(bb), 1.0)
    limit, gap = _GAP_EPS * scale, [x - lr[0] for x in lr]
    # The bottom eigenspace, the gaps within limit, is the first k of the
    # ascending spectrum (k >= 1).
    k = 1
    while k < n and gap[k] <= limit:
        k += 1
    # Components off the bottom eigenspace at mu = lambda_min, 0.0 on it
    # until the hard case completes the first; and c on it, 0.0 off it.
    s_eig = [0.0] * k + [-x / g for x, g in zip(cr[k:], gap[k:])]
    squares = np.array([s_eig, cr[:k] + [0.0] * (n - k)])
    tail_sq, coupled_sq = np.vecdot(squares, squares).tolist()
    # Both callers pass a problem of unit size (entries below 2), so this
    # square cannot overflow; ** 2.0 is C pow, as np.float_power.
    if coupled_sq <= (_COUPLING_EPS * scale) ** 2.0 and tail_sq <= 1.0:
        # Hard case: multiplier pinned at lambda_min, completed on the bottom
        # eigenspace to reach the sphere (1.0 - tail_sq >= 0.0).
        s_eig[0] = math.sqrt(1.0 - tail_sq)
    else:
        # The eigenvalues of the lifted matrix are mu - lambda_min.
        mu = _eigvals(_lifted(gap, cr))
        (low,) = mu.real.min(axis=-1).tolist()
        if low != low:
            _converged(mu, "Eigenvalues")
        # shift is lambda_min - mu, clamped so that mu <= lambda_min: of equal
        # arguments max keeps the first, np.maximum the second.
        shift = max(-low, 0.0)
        # Off the bottom eigenspace the components are -c / (gap + shift).
        # Only the direction of the bottom components is used, so there a
        # shift below rounding may be floored without changing the result.
        floor = max(shift, _EPS * scale)
        direction = [-x / (g + floor) for x, g in zip(cr[:k], gap[:k])] + [0.0] * (n - k)
        s_eig = [0.0] * k + [-x / (g + shift) for x, g in zip(cr[k:], gap[k:])]
        squares = np.array([direction, s_eig])
        length_sq, easy_sq = np.vecdot(squares, squares).tolist()
        if length_sq > 0.0:
            # The bottom components rescaled to complete the unit length.
            ratio = math.sqrt(max(1.0 - easy_sq, 0.0)) / math.sqrt(length_sq)
            s_eig[:k] = [x * ratio for x in direction[:k]]

    s = np.matvec(q, np.array([s_eig]))
    # x / 1.0 is x, so a zero row stays as it is.
    s /= math.sqrt(np.vecdot(s, s).item()) or 1.0
    return np.vecdot(np.vecmat(s, a), s) + 2.0 * np.vecdot(b, s), s


def _unit_phase(v):
    """The columns of an (N, 4, 4) stack of unit eigenvectors as rows, each
    turned in global phase so that its largest entry is real and positive.
    That entry of a unit vector is never zero."""
    pivot = v[np.arange(len(v))[:, None], np.abs(v).argmax(axis=1), _COLUMNS]
    return _transpose(v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))[:, None, :])


class _stage:
    """A stage of :class:`Analysis`, computed on first read and written into
    the instance ``__dict__``, which later reads find first (this is a
    non-data descriptor).  It takes no lock: ``functools.cached_property``
    before Python 3.12 holds one lock per stage, shared by every analysis,
    while the stage computes."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __get__(self, analysis, owner=None):
        if analysis is None:
            return self
        value = analysis.__dict__[self.compute.__name__] = self.compute(analysis)
        return value


class HermitianStage(NamedTuple):
    """Spectrum of the associated hermitian matrices of a stack.

    ``w`` holds each row's eigenvalues ascending, a list of four floats per
    row, and ``vecs[i, k]``, an (N, 4, 4) array, the unit eigenvector of
    ``w[i][k]`` with its largest entry real and positive.  With the verdict
    threshold tol times the spectral norm, ``mueller[i]`` is the verdict
    ``w[i][0] >= -threshold``, a bool, and ``rank[i]`` the number of
    eigenvalues above the threshold (the last ``rank[i]`` of ``w[i]``), an
    int.  ``w``, ``mueller`` and ``rank`` are Python lists, one item per row.
    """

    w: list
    vecs: np.ndarray
    mueller: list
    rank: list


class ConeStage(NamedTuple):
    """Cone-preservation verdicts and margins of a stack (see ConeVerdict):
    Python lists, one item per row, of bools, floats, floats and lists of
    three floats."""

    ok: list
    intensity_margin: list
    lorentz_margin: list
    worst_input: list


class NormalStage(NamedTuple):
    """Lorentz normal matrices ``nmat`` of a stack scaled to unit largest
    singular value, an (N, 4, 4) array, and per row: the spectral norm
    ``nnorm[i]``, a float; the real parts of the eigenvalues ``lam[i]``, a
    list of four floats sorted descending; and the largest imaginary part
    ``imag[i]`` dropped, a float.  ``vecs`` is ``eig``'s (N, 4, 4) complex
    eigenvector stack as it came, unsorted, and ``order`` the (N, 4) array
    that sorts it: ``lam[i][k]`` is the real part of the eigenvalue of
    ``vecs[i, :, order[i, k]]``.  A reader gathers only the columns it reads.
    ``nnorm``, ``lam`` and ``imag`` are Python lists, one item per row."""

    nmat: np.ndarray
    nnorm: list
    lam: list
    vecs: np.ndarray
    order: np.ndarray
    imag: list


class CanonicalStage(NamedTuple):
    """Canonical families of a stack, Python lists with one item per row:
    ``family`` holds each row's :class:`Family`, ``d`` the canonical
    parameters of a Type-I row, a list of four floats, and None on every
    other row (the field of :class:`~muellercert.CanonicalClass`),
    ``reason`` why a row has no classified family (NotPreMueller, zero
    matrix, Indeterminate), else None, and ``binding`` the violated Type-I
    inequality of each Type-I row with the smallest margin (an item of
    :data:`TYPE1_CONSTRAINT_FORMS`), or None."""

    family: list
    d: list
    reason: list
    binding: list


class Analysis:
    """The three spectral stages of a stack of real 4x4 matrices.

    ``mats`` is an (N, 4, 4) float stack with finite entries, coerced by the
    caller (:func:`~muellercert.core.as_mueller_stack`, or
    :func:`~muellercert.core.as_mueller_matrix` for a stack of one).  Each
    stage is computed on first use and kept in the instance, without a
    lock: two threads reading the same stage of one analysis at once may
    both compute it, with the same result.  A stage that a verdict does not
    need is never computed; the N stage (:attr:`normal`) only where some row
    is cone-preserving and nonzero.  ``tol`` is the relative tolerance of
    every verdict, a finite nonnegative number (else ``ValueError``).
    """

    def __init__(self, mats: np.ndarray, tol: float = DEFAULT_TOL):
        self.m = mats
        self.tol = as_tolerance(tol)

    @_stage
    def hermitian(self) -> HermitianStage:
        """H and its ``eigh`` of every matrix, taken on M over 2**e, e the
        even exponent that brings max|M| into [1/2, 2): no entry of H or step
        of ``eigh`` overflows.  The power is even because LAPACK's deflation
        tests compare square roots, which an odd power does not scale
        exactly; an even one changes no bit unless LAPACK rescales
        internally (beyond about 1e+-122).  The verdict and the rank are
        read off that spectrum, and the eigenvalues scaled back by 2**e, or
        FloatingPointError where one of them is then beyond the float
        range.  That includes an eigenvalue within one rounding of float
        max: it can round to +-1.0 in the scaled spectrum, and 1.0 * 2**1024
        overflows, where an unscaled ``eigvalsh`` gives +-1.797e308."""
        peak = np.maximum.reduce(np.abs(self.m).reshape(-1, 16), axis=1)
        e = np.frexp(peak)[1] & -2
        w, v = _eigh(_hermitian_of(np.ldexp(self.m, -e[:, None, None])))
        tol, ldexp = self.tol, math.ldexp
        scaled, mueller, rank = [], [], []
        try:
            for (w0, w1, w2, w3), k in zip(w.tolist(), e.tolist()):
                if w0 != w0:
                    _converged(w, "Eigenvalues")
                # The spectrum is ascending, so its largest magnitude sits at
                # an end.  Of equal arguments max keeps the first and
                # np.maximum(-w0, w3) the second: this order keeps its zero.
                thresh = tol * max(w3, -w0)
                mueller.append(w0 >= -thresh)
                rank.append((w0 > thresh) + (w1 > thresh) + (w2 > thresh) + (w3 > thresh))
                scaled.append([ldexp(w0, k), ldexp(w1, k), ldexp(w2, k), ldexp(w3, k)])
        except OverflowError:
            # A failed eigh of a later row raises first, as a check at the
            # call did.
            _converged(w, "Eigenvalues")
            raise FloatingPointError(
                "analysis overflows: hermitian eigenvalue beyond the float range"
            ) from None
        return HermitianStage(scaled, _unit_phase(v), mueller, rank)

    @_stage
    def sigma(self) -> np.ndarray:
        """Largest singular value of each matrix."""
        return _spectral_norm(self.m)

    @_stage
    def unit(self) -> np.ndarray:
        """Each matrix divided by its largest singular value (zero matrices
        are left as they are)."""
        sigma = self.sigma
        return self.m / np.where(sigma > 0.0, sigma, 1.0)[:, None, None]

    @_stage
    def cone(self) -> ConeStage:
        """Cone verdicts and margins of every matrix, or FloatingPointError
        where the reported Lorentz margin, the unit margin times sigma**2, is
        beyond the float range: there sigma**2 overflows, or sigma itself
        does and the unit margin of m / inf is 0 (0 * inf is nan)."""
        m, sigma, tol = self.m, self.sigma, self.tol

        # unit^T G unit, bit for bit: G = diag(1, -1, -1, -1) only flips signs.
        quad = LORENTZ_METRIC @ self._nmat
        quad = 0.5 * (quad + _transpose(quad))
        value, s_star = sphere_min(quad[:, 1:, 1:], quad[:, 0, 1:])
        sigmas = sigma.tolist()
        unit_lorentz = [q + v for q, v in zip(quad[:, 0, 0].tolist(), value.tolist())]
        # s ** 2.0 is pow, as np.float_power squares (s * s differs in the
        # last bit now and then), and raises OverflowError where it overflows.
        # So does a product beyond the float range, or 0 * inf = nan where
        # sigma itself overflowed.
        try:
            lorentz = [u * s ** 2.0 for u, s in zip(unit_lorentz, sigmas)]
            if not all(map(math.isfinite, lorentz)):
                raise OverflowError
        except OverflowError:
            raise FloatingPointError(
                "analysis overflows: Lorentz margin beyond the float range"
            ) from None

        row = m[:, 0, 1:]
        # Taken on the row over 2**e, e the exponent of sigma: no square under-
        # or overflows, and the exact power of two changes no other bit.
        e = np.frexp(sigma)[1]
        scaled = _norm(np.ldexp(row, -e[:, None]))
        ok, intensity, worst, ldexp = [], [], [], math.ldexp
        rows = zip(
            m[:, 0, 0].tolist(), row.tolist(), scaled.tolist(), e.tolist(), sigmas, unit_lorentz,
            s_star.tolist(),
        )
        for i, (m00, r, rn, k, s, u, star) in enumerate(rows):
            rn = ldexp(rn, k)
            margin = m00 - rn
            if s == 0.0:
                # A zero matrix maps every input to the cone apex.
                lorentz[i] = margin = 0.0
                ok.append(True)
                worst.append(list(_POLE))
            else:
                ok.append(margin >= -tol * s and u >= -tol)
                # The input of the binding margin: the sphere minimizer, or
                # the input opposite the first row (the pole where it is zero).
                worst.append(
                    star if u <= margin / s else [-x / rn for x in r] if rn > 0.0 else list(_POLE)
                )
            intensity.append(margin)
        return ConeStage(ok, intensity, lorentz, worst)

    @_stage
    def _nmat(self) -> np.ndarray:
        """Lorentz normal matrices of :attr:`unit`, read by the cone stage
        and the N stage."""
        return normal_matrices(self.unit)

    @_stage
    def normal(self) -> NormalStage:
        nmat = self._nmat
        lam, vecs = _eig(nmat)
        svals = _svdvals(nmat)
        # numpy's argsort, not sorted(): the two order tied values apart.
        order = (-lam.real).argsort(axis=-1)
        nnorm, real, imag = svals[:, 0].tolist(), [], []
        for re, im, (a, b, c, e), norm in zip(
            lam.real.tolist(), lam.imag.tolist(), order.tolist(), nnorm
        ):
            if re[0] != re[0] or norm != norm:
                _converged(lam, "Eigenvalues")
                _converged(svals, "SVD")
            real.append([re[a], re[b], re[c], re[e]])
            # Each |x| >= 0.0, so which of equal arguments max keeps, and
            # the reduction's initial 0.0, change no bit.
            imag.append(max(abs(im[0]), abs(im[1]), abs(im[2]), abs(im[3])))
        return NormalStage(nmat, nnorm, real, vecs, order, imag)

    @_stage
    def type1_d(self) -> list:
        """Type-I parameters d of every matrix, a list of four floats per
        row, read by both the classification (on Type-I rows only) and
        :meth:`factor`, whose singular-input screen is d3 == 0.

        d is sigma times the square roots r of the clipped N-stage
        eigenvalues; d3 takes the sign of det(M) and is zero where
        |det(M / sigma)| = r0 r1 r2 |d3| / sigma is at most tol r0 r1 r2.
        One stacked ``slogdet`` of M / sigma and ``np.exp`` of its log give
        that determinant without under- or overflow; the rest runs per row
        on Python floats.  Zeroing d3 where the last eigenvalue is at most
        tol * nnorm instead would drop every |d3| below about sqrt(tol) sigma.
        """
        with np.errstate(divide="ignore"):  # log 0 of a singular input
            sign, logdet = _slogdet(self.unit)
        tol, sqrt, d = self.tol, math.sqrt, []
        rows = zip(self.normal.lam, self.sigma.tolist(), sign.tolist(), np.exp(logdet).tolist())
        for (l0, l1, l2, l3), s, sg, det in rows:
            # np.maximum(x, 0.0) keeps the second of equal arguments and max
            # the first: 0.0 first turns -0.0 into 0.0 as numpy does.
            r0, r1, r2 = sqrt(max(0.0, l0)), sqrt(max(0.0, l1)), sqrt(max(0.0, l2))
            if det <= tol * (r0 * r1 * r2):
                sg = 0.0
            d.append([s * r0, s * r1, s * r2, s * (sqrt(max(0.0, l3)) * sg)])
        return d

    @_stage
    def canonical(self) -> CanonicalStage:
        """Canonical family, d, reason and violated Type-I inequality of
        every matrix of the stack: the Type-I rule
        (:func:`worst_type1_constraint`) runs once, on the Type-I rows."""
        family, reason = [_INDETERMINATE] * len(self.m), [None] * len(self.m)
        classified = []
        for i, (ok, sigma) in enumerate(zip(self.cone.ok, self.sigma.tolist())):
            if not ok:
                family[i], reason[i] = _NOT_PRE_MUELLER, "does not map the Stokes cone into itself"
            elif sigma == 0.0:
                reason[i] = "zero matrix"
            else:
                classified.append(i)
        # The N stage only where some row is cone-preserving and nonzero.
        low, full = [], []
        if classified:
            nnorm, tol = self.normal.nnorm, self.tol
            for i in classified:
                # A vanishing normal matrix goes to the rank-one test.
                (low if nnorm[i] <= tol else full).append(i)
        if low:
            # Vanishing normal matrix: Polarizer / Pin map, read off the
            # rank-one factors.
            u, s, vt = _svd(self.unit[low])
            cluster_tol = math.sqrt(self.tol)
            for j, (i, sv) in enumerate(zip(low, s.tolist())):
                if sv[0] != sv[0]:
                    _converged(s, "SVD")
                family[i], reason[i] = _rank_one_family(u[j, :, 0], sv[1], vt[j, 0], cluster_tol)
        if full:
            self._classify_full(full, family, reason)
        d, binding = [None] * len(self.m), [None] * len(self.m)
        if _TYPE_I in family:
            type1_d = self.type1_d
            type_one = [i for i, f in enumerate(family) if f is _TYPE_I]
            d_one = [type1_d[i] for i in type_one]
            worst, violated = worst_type1_constraint(np.array(d_one), self.tol)
            for i, row, k, bad in zip(type_one, d_one, worst.tolist(), violated.tolist()):
                d[i] = row
                if bad:
                    binding[i] = TYPE1_CONSTRAINT_FORMS[k]
        return CanonicalStage(family, d, reason, binding)

    def _classify_full(self, full, family, reason) -> None:
        """Write the families and the reasons of the rows ``full``, whose
        normal matrices do not vanish, into the stage's own.

        Only the top eigenvalue cluster (eigenvalues within sqrt(tol) of the
        largest, relative to the normal matrix's own scale) is examined.  N
        is self-adjoint in the Lorentz form, and the Lorentz-orthogonal
        complement of its top invariant subspace is negative definite, so
        every lower cluster is diagonalizable (Gohberg, Lancaster & Rodman,
        *Indefinite Linear Algebra*, 2005); a Type-II Jordan block sits in
        the top cluster, at d0 d1 >= d2^2 >= d3^2.  A simple top eigenvalue
        with a timelike eigenvector is Type I.  A tied top cluster whose
        geometric multiplicity (rank test at tol) matches its size is
        diagonalizable (Type I), one with a genuine null direction but
        missing loose-rank dimensions is defective (Type II), and anything
        in between is Indeterminate.

        The timelike test of the top eigenvectors and the rank tests' SVD
        run stacked; the cluster, its size and centre and the rank counts
        per row on Python floats.
        """
        tol = self.tol
        nmat, nnorm, lam, vecs, order, imag = self.normal
        # The top columns as a strided view of eig's complex stack: BLAS
        # sums a strided dot product in another order than a contiguous one.
        top = vecs[np.arange(len(vecs)), :, order[:, 0]].real
        timelike = (np.vecdot(np.vecmat(top, LORENTZ_METRIC), top) > 0.0).tolist()
        root_tol = math.sqrt(tol)

        # The size and centre of each tied top cluster, by row.
        tied = {}
        for i in full:
            cj = root_tol * nnorm[i]
            l0, l1, l2, l3 = lam[i]
            if imag[i] > cj:
                reason[i] = "Lorentz normal matrix has complex spectrum"
                continue
            if l3 < -cj:
                reason[i] = "Lorentz normal matrix has a negative eigenvalue"
                continue
            # Clipped at 0.0 as np.maximum(x, 0.0) clips (see type1_d).  A
            # tied cluster's centre is summed left to right, as Python 3.11's
            # sum() adds (3.12's is compensated and can move it by an ulp).
            l0, l1, l2, l3 = max(0.0, l0), max(0.0, l1), max(0.0, l2), max(0.0, l3)
            if l0 - l1 > cj:
                if timelike[i]:
                    family[i] = _TYPE_I
                else:
                    reason[i] = "dominant eigenvector is not timelike"
            elif l1 - l2 > cj:
                tied[i] = 2, (l0 + l1) / 2
            elif l2 - l3 > cj:
                tied[i] = 3, (l0 + l1 + l2) / 3
            else:
                tied[i] = 4, (l0 + l1 + l2 + l3) / 4
        if not tied:
            return

        # A genuine Jordan block leaves a machine-precision null direction of
        # (N - lambda I) next to an O(1) coupling; a nearly tied
        # diagonalizable pair leaves neither.
        at = list(tied)
        centers = np.array([center for _, center in tied.values()])
        svals = _svdvals(nmat[at] - centers[:, None, None] * _EYE)
        for (i, (size, center)), (s0, s1, s2, s3) in zip(tied.items(), svals.tolist()):
            if s0 != s0:
                _converged(svals, "SVD")
            # The strict and loose rank counts, each a sum of four bools.
            strict, loose = tol * nnorm[i], root_tol * nnorm[i]
            n_strict = (s0 <= strict) + (s1 <= strict) + (s2 <= strict) + (s3 <= strict)
            n_loose = (s0 <= loose) + (s1 <= loose) + (s2 <= loose) + (s3 <= loose)
            if n_strict >= size:
                family[i] = _TYPE_I
            elif n_strict >= 1 and n_loose < size:
                family[i] = _TYPE_II
            else:
                reason[i] = (
                    f"eigenvalue cluster near {center:.6g} (input normalized): "
                    "cannot separate defective from nearly degenerate "
                    "diagonalizable structure"
                )

    def factor(self):
        """Type-I factorization ``(l_left, d, l_right)`` of the first matrix
        of the stack, by the method documented at
        :func:`muellercert.canonical.type1_factor`; d is its row of
        :attr:`type1_d`.

        Raises ``FloatingPointError`` when the largest singular value is
        beyond the float range (checked first: d is then inf * 0 = nan),
        :class:`NotTypeIError` when the input is singular (d3 == 0),
        :class:`DegenerateSpectrumError` when the eigenvalues are too close
        to separate and :class:`NotTypeIError` when the spectrum, the
        eigenvector causality or the factors rule the family out.
        """
        if self.sigma[0] == math.inf:
            raise FloatingPointError(
                "analysis overflows: largest singular value beyond the float range"
            )
        g = LORENTZ_METRIC
        stage = self.normal
        lam, d = stage.lam[0], self.type1_d[0]
        # Singular first: for a singular input N can be rounding noise, and
        # the noise would otherwise pick one of the spectrum's reasons.  A
        # negative eigenvalue of N lands here too: type1_d clips it, d3 = 0.
        if d[3] == 0.0:
            raise NotTypeIError("factorization requires a nonsingular input")
        scale = self.tol * stage.nnorm[0]
        if stage.imag[0] > scale:
            raise NotTypeIError("Lorentz normal matrix has complex spectrum")
        if min(lam[0] - lam[1], lam[1] - lam[2], lam[2] - lam[3]) < scale:
            raise DegenerateSpectrumError(
                "eigenvalues of the Lorentz normal matrix are not distinct within tol"
            )
        # The real parts of the eigenvectors in the order of lam, columns.
        vecs = stage.vecs[0].real[:, stage.order[0]]
        quad = np.einsum("ia,ij,ja->a", vecs, g, vecs)
        if quad[0] <= 0.0:
            raise NotTypeIError("top eigenvector is not timelike")
        if quad[1:].max() >= 0.0:
            raise NotTypeIError("subdominant eigenvector is not spacelike")

        # Unit vectors: the timelike one future-pointing, the largest entry
        # of each spacelike one positive, and determinant one.
        basis = vecs / np.sqrt(np.abs(quad))
        pivot = basis[np.argmax(np.abs(basis), axis=0), np.arange(4)]
        pivot[0] = basis[0, 0]
        basis *= np.where(pivot < 0.0, -1.0, 1.0)
        if _slogdet(basis)[0] < 0.0:
            basis[:, 3] *= -1.0

        ortho_err = np.abs(basis.T @ g @ basis - g).max()
        if ortho_err > 1e-6:
            raise NotTypeIError(f"eigenbasis fails Lorentz orthonormality by {ortho_err:.3g}")
        l_right = g @ basis.T @ g
        # unit is m / sigma, so its columns are divided by d / sigma.
        d = np.array(d)
        l_left = (self.unit[0] @ basis) * (self.sigma[0] / d)
        if not (l_left[0, 0] > 0.0 and np.abs(l_left.T @ g @ l_left - g).max() <= 1e-6):
            raise NotTypeIError("left factor is not proper orthochronous Lorentz")
        return l_left, d, l_right


def _rank_one_family(u, s1, v, cluster_tol) -> tuple[Family, str | None]:
    """Family and reason (None for Polarizer and Pin map) of a
    cone-preserving matrix with vanishing normal matrix from its second
    singular value ``s1`` and leading singular vectors."""
    g = LORENTZ_METRIC
    if s1 > cluster_tol:
        return _INDETERMINATE, "vanishing Lorentz normal matrix but rank above one"
    if u[0] < 0.0:
        u, v = -u, -v
    if u[0] <= cluster_tol:
        return _INDETERMINATE, "rank-one output direction is not future-pointing"
    # u is lightlike within tol: u^T G u = v^T (G N) v, as M v = u at unit
    # scale, so |u^T G u| <= |N| <= tol.
    if v[0] <= cluster_tol:
        return _INDETERMINATE, "rank-one input weight vector is not future-pointing"
    vgv = float(v @ g @ v)
    if abs(vgv) <= cluster_tol:
        return _POLARIZER, None
    if vgv > 0.0:
        return _PIN_MAP, None
    return _INDETERMINATE, "rank-one input weight vector is spacelike"
