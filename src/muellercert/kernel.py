"""Stack-native analysis behind every verdict.

Every verdict of the package is read off three spectral objects of a real
4x4 matrix M, and :class:`Analysis` computes each of them once per matrix,
over a whole (N, 4, 4) stack at a time:

* **H stage**: the associated hermitian matrix H and one stacked ``eigh``.
  It decides physicality and gives the Jones ensemble, the single-Jones
  test and the entanglement witness.
* **Cone stage**: the largest singular value, the closed-form intensity
  margin and the global minimum of the output Lorentz form over the
  Poincare sphere: a stacked 3x3 ``eigh`` plus one stacked 6x6 ``eigvals``
  on the rows off the hard case.  It decides cone preservation.
* **N stage**: the Lorentz normal matrix G M^T G M of M scaled to unit
  largest singular value, and one stacked ``eig``, on the cone-preserving
  rows.  It gives the canonical family; the cluster and rank tests reuse
  that ``eig`` on the rows with a repeated eigenvalue, and the Type-I
  factorization runs on the Type-I rows only.

The N stage builds the public results itself: :class:`Family`,
:class:`CanonicalClass` and the Type-I errors :class:`DegenerateSpectrumError`
and :class:`NotTypeIError` are defined here, and
:mod:`muellercert.canonical` re-exports them.

The public functions of the layer modules are views on an analysis of a
stack of one, and ``batch`` analyzes a whole directory as one stack, so
both sizes take the same code path.  Row reductions are written as stacked
matrix products (``x[:, None, :] @ y[:, :, None]``): those run the same
BLAS routine per row as the 1-D products of a single matrix, so a row's
result does not depend on the stack around it.
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_TOL, LORENTZ_METRIC, _canonical_phase, _hermitian_of, as_mueller_stack

# Degenerate-structure thresholds of the sphere minimization (relative to the
# problem scale).  Eigenvalues within _GAP_EPS of the smallest form the
# bottom eigenspace, whose solution components are completed to the sphere
# rather than divided by their gaps; a bottom-space coupling below
# _COUPLING_EPS counts as zero when deciding for the hard case.
_GAP_EPS = 1e-12
_COUPLING_EPS = 1e-14

# Input direction reported when no pure input is singled out.
_POLE = np.array([0.0, 0.0, 1.0])
_POLE.setflags(write=False)


class Family(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    POLARIZER = "Polarizer"
    PIN_MAP = "PinMap"
    NOT_PRE_MUELLER = "NotPreMueller"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class CanonicalClass:
    """Family verdict with canonical parameters and factors when determined.

    ``d`` is None when the parameters are not determined by the orbit (the
    rank-one families carry no invariant scale) or cannot be extracted.
    When factors are present they satisfy L^T G L = G with positive corner
    and unit determinant, and l_left @ diag(d) @ l_right reproduces the
    input.
    """

    family: Family
    d: np.ndarray | None = None
    l_left: np.ndarray | None = None
    l_right: np.ndarray | None = None
    diagnostics: str | None = None


class DegenerateSpectrumError(ValueError):
    """Raised by the Type-I factorization when eigenvalues of the Lorentz
    normal matrix are too close to separate eigenvectors reliably."""


class NotTypeIError(ValueError):
    """Raised by the Type-I factorization when the input does not admit a
    diagonal canonical form (or is singular)."""


def _dot(x, y):
    """Row-wise dot product of two (N, n) stacks."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norm(x):
    """Row-wise Euclidean norm of an (N, n) stack."""
    return np.sqrt(_dot(x, x))


def _matvec(a, x):
    """Row-wise product of an (N, n, n) stack with an (N, n) stack."""
    return (a @ x[:, :, None])[:, :, 0]


def _quadratic(s, a):
    """Row-wise quadratic form s^T a s."""
    return ((s[:, None, :] @ a) @ s[:, :, None])[:, 0, 0]


def _transpose(a):
    return np.swapaxes(a, -1, -2)


def _squares(x):
    """Squares of a 1-D array, taken as Python floats take them: ``pow``
    (which differs from x * x in the last bit now and then), raising
    OverflowError where a square overflows."""
    return np.array([v**2 for v in x.tolist()])


def _spectral_norm(mats):
    """Largest singular value of each matrix (as ``np.linalg.norm(m, 2)``)."""
    return np.linalg.svd(mats, compute_uv=False).max(axis=-1)


def _select(idx: list, n: int):
    """Index of the listed rows (increasing) of a stack of n: a slice when
    they are all of them, which saves a copy."""
    return slice(None) if len(idx) == n else idx


def normal_matrices(mats):
    """Lorentz normal matrix G M^T G M of each matrix of a stack."""
    g = LORENTZ_METRIC
    return g @ _transpose(mats) @ g @ mats


def sphere_min(a, b):
    """Stacked global minimum of s^T A s + 2 b^T s over the unit sphere.

    ``a`` is an (N, n, n) stack of symmetric matrices and ``b`` an (N, n)
    stack.  Returns the minimum values, shape (N,), and unit minimizers,
    shape (N, n).  The method is documented at
    :func:`muellercert.conetest.sphere_quadratic_min`.
    """
    n = b.shape[-1]
    lam, q = np.linalg.eigh(a)
    c = (b[:, None, :] @ q)[:, 0]
    # The spectrum is ascending, so its largest magnitude sits at an end.
    scale = np.maximum(np.maximum.reduce(np.abs(lam), axis=1), np.maximum(_norm(b), 1.0))

    gap = lam - lam[:, :1]
    bottom = gap <= _GAP_EPS * scale[:, None]
    # Components off the bottom eigenspace at mu = lambda_min; the bottom
    # eigenspace is a prefix of the ascending spectrum, so zeros there leave
    # the row sums below unchanged.
    s_eig = np.divide(-c, gap, out=np.zeros_like(c), where=~bottom)
    tail_sq = _dot(s_eig, s_eig)
    c_bottom = np.where(bottom, c, 0.0)
    hard = (_dot(c_bottom, c_bottom) <= _squares(_COUPLING_EPS * scale)) & (
        tail_sq <= 1.0
    )
    # Hard case: multiplier pinned at lambda_min, completed on the bottom
    # eigenspace to reach the sphere.
    s_eig[:, 0] = np.where(hard, np.sqrt(np.maximum(1.0 - tail_sq, 0.0)), 0.0)

    n_hard = np.count_nonzero(hard)
    if n_hard < len(hard):
        easy = slice(None) if n_hard == 0 else ~hard
        c, gap, bottom = c[easy], gap[easy], bottom[easy]
        k = len(c)
        # The eigenvalues of `lifted` are mu - lambda_min; shift is
        # lambda_min - mu, clamped so that mu <= lambda_min.  Its blocks are
        # diag(gap), -diag(|c|), -v v^T and diag(gap).
        abs_c = np.abs(c)
        v = np.sign(c) * np.sqrt(abs_c)
        lifted = np.zeros((k, 2 * n, 2 * n))
        lifted[:, :n, n:] = -0.0
        lifted[:, n:, :n] = -(v[:, :, None] * v[:, None, :])
        flat = lifted.reshape(k, 4 * n * n)
        flat[:, :: 2 * n + 1] = np.concatenate((gap, gap), axis=1)
        flat[:, n : n * (2 * n + 2) : 2 * n + 1] = -abs_c
        shift = np.maximum(0.0, -np.linalg.eigvals(lifted).real.min(axis=-1))
        # Off the bottom eigenspace the components are -c / (gap + shift).
        # Only the direction of the bottom components is used, so there a
        # shift below rounding may be floored without changing the result.
        floor = np.maximum(shift, np.finfo(float).eps * scale[easy])
        comp = -c / (gap + np.where(bottom, floor[:, None], shift[:, None]))
        s_easy = np.where(bottom, 0.0, comp)
        direction = np.where(bottom, comp, 0.0)
        length = _norm(direction)
        deficit = np.maximum(0.0, 1.0 - _dot(s_easy, s_easy))
        grow = length > 0.0
        ratio = np.divide(np.sqrt(deficit), length, out=np.zeros_like(length), where=grow)
        complete = bottom & grow[:, None]
        s_eig[easy] = np.where(complete, direction * ratio[:, None], s_easy)

    s = _matvec(q, s_eig)
    norm = _norm(s)
    s = np.divide(s, norm[:, None], out=s, where=norm[:, None] > 0.0)
    return _quadratic(s, a) + 2.0 * _dot(b, s), s


class HermitianStage(NamedTuple):
    """Spectrum of the associated hermitian matrices of a stack.

    ``w`` holds the eigenvalues ascending, ``vecs[:, k]`` the unit
    eigenvector of ``w[:, k]`` with its largest entry real and positive,
    and ``thresh`` the verdict threshold tol times the spectral norm.
    """

    w: np.ndarray
    vecs: np.ndarray
    thresh: np.ndarray


class ConeStage(NamedTuple):
    """Cone-preservation verdicts and margins of a stack (see ConeVerdict)."""

    ok: np.ndarray
    intensity_margin: np.ndarray
    lorentz_margin: np.ndarray
    worst_input: np.ndarray


class Analysis:
    """The three spectral stages of a stack of real 4x4 matrices.

    Each stage is computed on first use and at most once; a stage that a
    verdict does not need is never computed.  ``tol`` is the relative
    tolerance of every verdict.
    """

    def __init__(self, mats, tol: float = DEFAULT_TOL):
        self.m = as_mueller_stack(mats)
        self.tol = tol

    def __len__(self) -> int:
        return len(self.m)

    @cached_property
    def hermitian(self) -> HermitianStage:
        w, v = np.linalg.eigh(_hermitian_of(self.m))
        hnorm = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        return HermitianStage(w, _canonical_phase(_transpose(v)), self.tol * hnorm)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Largest singular value of each matrix."""
        return _spectral_norm(self.m)

    @cached_property
    def unit(self) -> np.ndarray:
        """Each matrix divided by its largest singular value (zero matrices
        are left as they are)."""
        return self.m / self._divisor[:, None, None]

    @cached_property
    def _divisor(self) -> np.ndarray:
        """The largest singular values, with 1 in place of zero."""
        sigma = self.sigma
        return np.where(sigma > 0.0, sigma, 1.0)

    @cached_property
    def cone(self) -> ConeStage:
        m, sigma, unit, tol = self.m, self.sigma, self.unit, self.tol
        nonzero = sigma > 0.0

        row = m[:, 0, 1:]
        row_norm = _norm(row)
        intensity = m[:, 0, 0] - row_norm
        worst_intensity = np.empty_like(row)
        worst_intensity[:] = _POLE
        np.divide(-row, row_norm[:, None], out=worst_intensity, where=row_norm[:, None] > 0.0)

        quad = _transpose(unit) @ LORENTZ_METRIC @ unit
        quad = 0.5 * (quad + _transpose(quad))
        value, s_star = sphere_min(quad[:, 1:, 1:], quad[:, 0, 1:])
        unit_lorentz = quad[:, 0, 0] + value

        ok = (intensity >= -tol * sigma) & (unit_lorentz >= -tol)
        binding_lorentz = unit_lorentz <= intensity / self._divisor
        worst = np.where(binding_lorentz[:, None], s_star, worst_intensity)
        lorentz = unit_lorentz * _squares(sigma)
        # A zero matrix maps every input to the cone apex.
        if np.count_nonzero(nonzero) < len(m):
            zero = ~nonzero
            ok[zero] = True
            intensity[zero] = lorentz[zero] = 0.0
            worst[zero] = _POLE
        return ConeStage(ok, intensity, lorentz, worst)

    @cached_property
    def canonical(self) -> list[CanonicalClass]:
        """Canonical family of every matrix of the stack."""
        out: list = [None] * len(self.m)
        rows = []
        for i, (ok, sigma) in enumerate(zip(self.cone.ok.tolist(), self.sigma.tolist())):
            if not ok:
                why = "does not map the Stokes cone into itself"
                out[i] = CanonicalClass(Family.NOT_PRE_MUELLER, diagnostics=why)
            elif sigma == 0.0:
                out[i] = _indeterminate("zero matrix")
            else:
                rows.append(i)
        if rows:
            rows = np.array(rows)
            # N stage: normal matrices of the inputs scaled to unit largest
            # singular value, whose own scale sets every threshold below.
            nmat = normal_matrices(self.unit[rows])
            nnorm = _spectral_norm(nmat)
            full = nnorm > self.tol
            n_full = np.count_nonzero(full)
            if n_full < len(rows):
                # Vanishing normal matrix: Polarizer / Pin map, read off the
                # rank-one factors.
                low = rows[~full]
                u, s, vt = np.linalg.svd(self.unit[low])
                cluster_tol = float(np.sqrt(self.tol))
                for j, i in enumerate(low):
                    out[i] = _rank_one_family(u[j, :, 0], s[j, 1], vt[j, 0], cluster_tol)
            if n_full:
                if n_full < len(rows):
                    rows, nmat, nnorm = rows[full], nmat[full], nnorm[full]
                for i, result in zip(rows, self._classify_full(rows, nmat, nnorm)):
                    out[i] = result
        return out

    def _classify_full(self, rows, nmat, nnorm) -> list[CanonicalClass]:
        """Families of the given rows, whose normal matrices ``nmat`` do not
        vanish.

        Eigenvalues are clustered at sqrt(tol) (relative to the normal
        matrix's own scale); a cluster whose geometric multiplicity (rank
        test at tol) matches its size is diagonalizable (Type I), one with a
        genuine null direction but missing loose-rank dimensions is
        defective (Type II), and anything in between is Indeterminate.
        """
        tol = self.tol
        lam, vecs, imag = _sorted_eig(nmat)
        cluster_tol = float(np.sqrt(tol)) * nnorm
        geo_tol = tol * nnorm
        clipped = np.clip(lam, 0.0, None)
        ctol, lam_l, imag_l, clip_l = (
            cluster_tol.tolist(), lam.tolist(), imag.tolist(), clipped.tolist()
        )
        out: list = [None] * len(rows)

        # Cluster each spectrum; collect every cluster of two or more.
        clusters: list = [()] * len(rows)
        centers = {}
        for j, (lj, cj) in enumerate(zip(clip_l, ctol)):
            if imag_l[j] > cj:
                out[j] = _indeterminate("Lorentz normal matrix has complex spectrum")
                continue
            if lam_l[j][3] < -cj:
                out[j] = _indeterminate("Lorentz normal matrix has a negative eigenvalue")
                continue
            bounds = [0, *(k for k in range(1, 4) if lj[k - 1] - lj[k] > cj), 4]
            clusters[j] = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo + 1]
            for lo, hi in clusters[j]:
                centers[j, lo] = float(clipped[j, lo:hi].mean())

        # A genuine Jordan block leaves a machine-precision null direction of
        # (N - lambda I) next to an O(1) coupling; a nearly tied
        # diagonalizable pair leaves neither.
        ranks = {}
        if centers:
            shifted = np.stack([nmat[j] - center * np.eye(4) for (j, _), center in centers.items()])
            svals = np.linalg.svd(shifted, compute_uv=False)
            for (j, lo), sv in zip(centers, svals):
                ranks[j, lo] = (
                    int(np.count_nonzero(sv <= geo_tol[j])),
                    int(np.count_nonzero(sv <= cluster_tol[j])),
                )

        top = vecs[:, :, 0]
        timelike = (_quadratic(top, LORENTZ_METRIC) > 0.0).tolist()
        type_one = []
        for j in range(len(rows)):
            if out[j] is not None:
                continue
            defective = False
            ambiguous = None
            for lo, hi in clusters[j]:
                strict, loose = ranks[j, lo]
                if strict >= hi - lo:
                    continue
                if strict >= 1 and loose < hi - lo:
                    defective = True
                    break
                ambiguous = centers[j, lo]
            if ambiguous is not None and not defective:
                out[j] = _indeterminate(
                    f"eigenvalue cluster near {ambiguous:.6g} (input normalized): "
                    "cannot separate defective from nearly degenerate "
                    "diagonalizable structure"
                )
            elif defective:
                i = rows[j]
                pattern = _matches_type2_pattern(self.unit[i], float(np.sqrt(tol)))
                d = np.diag(self.m[i]).copy() if pattern else None
                out[j] = CanonicalClass(Family.TYPE_II, d)
            elif (not clusters[j] or clusters[j][0][0] > 0) and not timelike[j]:
                # The dominant eigenvalue is simple, so its eigenvector must
                # be timelike.
                out[j] = _indeterminate("dominant eigenvector is not timelike")
            else:
                type_one.append(j)

        # Type I: diagonalizable, nonnegative real spectrum.  Without the
        # factorization, d comes from the spectrum and the sign of det(m).
        factors = self.factors(rows[type_one]) if type_one else []
        fallback = []
        for j, factor in zip(type_one, factors):
            if isinstance(factor, ValueError):
                fallback.append(j)
            else:
                l_left, d, l_right = factor
                out[j] = CanonicalClass(Family.TYPE_I, d, l_left, l_right)
        if fallback:
            idx = rows[fallback]
            d_all = self.sigma[idx, None] * np.sqrt(clipped[fallback])
            det = np.linalg.det(self.unit[idx])
            d_all[np.abs(det) <= tol, 3] = 0.0
            flip = (np.abs(det) > tol) & (det < 0.0)
            d_all[flip, 3] = -d_all[flip, 3]
            for j, d in zip(fallback, d_all):
                out[j] = CanonicalClass(Family.TYPE_I, d=d)
        return out

    def factors(self, rows=slice(None)) -> list:
        """Type-I factorization of the given rows (by default every matrix).

        Each row gets the tuple ``(l_left, d, l_right)`` or, when it has no
        factorization, the error that :func:`~muellercert.type1_factor`
        raises for it: a :class:`DegenerateSpectrumError` when the
        eigenvalues are too close to separate, a :class:`NotTypeIError`
        when the spectrum, the eigenvector causality or the input rules the
        family out.

        The Lorentz normal matrix is self-adjoint in the Lorentz metric, so
        for distinct eigenvalues its eigenvectors are G-orthogonal:
        normalized to one timelike (future-pointing) and three spacelike
        unit vectors with overall determinant one they assemble into the
        inverse of a proper orthochronous l_right, and l_left follows by
        division.  The canonical parameters are the signed square roots of
        the eigenvalues, the last one carrying the sign of det(m).

        This solves its own ``eig``, of the normal matrix of the unscaled
        input: canonical parameters taken from the eigenvalues of the scaled
        one differ in their last digits, up to the tenth significant digit
        for small parameters, so reports would change.
        """
        g = LORENTZ_METRIC
        mats = self.m[rows]
        nmat = normal_matrices(mats)
        scale = self.tol * np.maximum(_spectral_norm(nmat), 1e-300)
        lam, vecs, imag = _sorted_eig(nmat)
        out: list = [None] * len(mats)
        spectral = []
        for j, (lj, sc, im) in enumerate(zip(lam.tolist(), scale.tolist(), imag.tolist())):
            if im > sc:
                out[j] = NotTypeIError("Lorentz normal matrix has complex spectrum")
            elif lj[3] < -sc:
                out[j] = NotTypeIError("Lorentz normal matrix has a negative eigenvalue")
            elif lj[3] <= sc:
                out[j] = NotTypeIError("factorization requires a nonsingular input")
            elif min(lj[0] - lj[1], lj[1] - lj[2], lj[2] - lj[3]) < sc:
                out[j] = DegenerateSpectrumError(
                    "eigenvalues of the Lorentz normal matrix are not distinct within tol"
                )
            else:
                spectral.append(j)
        if not spectral:
            return out

        pick = _select(spectral, len(mats))
        vecs, lam, mats = vecs[pick], lam[pick], mats[pick]
        quad = np.einsum("nia,ij,nja->na", vecs, g, vecs)
        causal = []
        for k, qk in enumerate(quad.tolist()):
            if qk[0] <= 0.0:
                out[spectral[k]] = NotTypeIError("top eigenvector is not timelike")
            elif max(qk[1:]) >= 0.0:
                out[spectral[k]] = NotTypeIError("subdominant eigenvector is not spacelike")
            else:
                causal.append(k)
        if not causal:
            return out

        # Unit vectors: the timelike one future-pointing, the largest entry
        # of each spacelike one positive, and determinant one.
        pick = _select(causal, len(quad))
        vecs, lam, mats = vecs[pick], lam[pick], mats[pick]
        k = len(vecs)
        basis = vecs / np.sqrt(np.abs(quad[pick]))[:, None, :]
        pivot = basis[np.arange(k)[:, None], np.argmax(np.abs(basis), axis=1), np.arange(4)]
        pivot[:, 0] = basis[:, 0, 0]
        basis *= np.where(pivot < 0.0, -1.0, 1.0)[:, None, :]
        # slogdet's sign survives where det(m) itself under- or overflows.
        sign = np.linalg.slogdet(np.concatenate((basis, mats)))[0]
        basis[sign[:k] < 0.0, :, 3] *= -1.0

        d = np.sqrt(np.clip(lam, 0.0, None))
        d[sign[k:] < 0.0, 3] *= -1.0
        l_right = g @ _transpose(basis) @ g
        l_left = (mats @ basis) * (1.0 / d)[:, None, :]
        both = np.concatenate((basis, l_left))
        err = np.abs(_transpose(both) @ g @ both - g).reshape(2 * k, 16).max(axis=1)
        proper = ((l_left[:, 0, 0] > 0.0) & (err[k:] <= 1e-6)).tolist()
        for c, ortho_err in enumerate(err[:k].tolist()):
            j = spectral[causal[c]]
            if ortho_err > 1e-6:
                why = f"eigenbasis fails Lorentz orthonormality by {ortho_err:.3g}"
                out[j] = NotTypeIError(why)
            elif not proper[c]:
                out[j] = NotTypeIError("left factor is not proper orthochronous Lorentz")
            else:
                out[j] = (l_left[c], d[c], l_right[c])
        return out


def _indeterminate(diagnostics: str) -> CanonicalClass:
    return CanonicalClass(Family.INDETERMINATE, diagnostics=diagnostics)


def _rank_one_family(u, s1, v, cluster_tol) -> CanonicalClass:
    """Family of a cone-preserving matrix with vanishing normal matrix from
    its second singular value ``s1`` and leading singular vectors."""
    g = LORENTZ_METRIC
    if s1 > cluster_tol:
        return _indeterminate("vanishing Lorentz normal matrix but rank above one")
    if u[0] < 0.0:
        u, v = -u, -v
    if u[0] <= cluster_tol:
        return _indeterminate("rank-one output direction is not future-pointing")
    if abs(float(u @ g @ u)) > cluster_tol:
        return _indeterminate("rank-one output direction is not lightlike")
    if v[0] <= cluster_tol:
        return _indeterminate("rank-one input weight vector is not future-pointing")
    vgv = float(v @ g @ v)
    note = "canonical scale d0 is not a double-coset invariant"
    if abs(vgv) <= cluster_tol:
        return CanonicalClass(Family.POLARIZER, diagnostics=note)
    if vgv > 0.0:
        return CanonicalClass(Family.PIN_MAP, diagnostics=note)
    return _indeterminate("rank-one input weight vector is spacelike")


def _sorted_eig(nmat):
    """Real parts of the eigenvalues of each matrix, sorted descending, the
    matching real parts of the eigenvectors, and the largest imaginary part
    dropped per matrix."""
    lam, vecs = np.linalg.eig(nmat)
    imag = np.abs(lam.imag).max(axis=-1, initial=0.0)
    lam, vecs = lam.real, vecs.real
    order = np.argsort(-lam, axis=-1)
    rows = np.arange(len(lam))[:, None]
    return lam[rows, order], vecs[rows[:, :, None], np.arange(4)[:, None], order[:, None, :]], imag


def _matches_type2_pattern(mat: np.ndarray, atol: float) -> bool:
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    off[0, 1] = 0.0
    if float(np.abs(off).max()) > atol:
        return False
    return abs(mat[0, 1] - (mat[0, 0] - mat[1, 1])) <= atol
