"""Exact certification that a transfer matrix maps the Stokes cone into itself.

The solid cone is the convex hull of its extreme rays, the unit-intensity
pure states S = (1, s) with ||s|| = 1, so a linear map preserves the cone
iff it keeps every such input inside it.  That reduces the verdict to two
global minimizations over the unit sphere:

* output intensity, affine in s, minimized in closed form;
* the output Lorentz quadratic form, quadratic in s, minimized exactly via
  an eigendecomposition plus one 6x6 eigenproblem whose smallest eigenvalue
  is the optimal Lagrange multiplier (Gander, Golub & von Matt, "A
  constrained eigenvalue problem", Linear Algebra Appl. 114/115, 1989; hard
  case as in Adachi, Iwata, Nakatsukasa & Takeda, "Solving the
  trust-region subproblem by a generalized eigenvalue problem", SIAM J.
  Optim. 27, 2017).

No sampling and no iteration is involved anywhere, so the reported margins
are certificates up to floating point rounding, not estimates.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_TOL, _array, _unit_exponent, as_mueller_matrix
from .kernel import Analysis, sphere_min


class ConeVerdict(NamedTuple):
    """Outcome of the cone-preservation test.

    ``intensity_margin`` is the minimum output intensity over unit-intensity
    pure inputs and ``lorentz_margin`` the minimum output Lorentz form; the
    matrix preserves the cone iff both are nonnegative (within tolerance,
    applied after normalizing the matrix to unit largest singular value so
    the verdict is invariant under positive rescaling).  ``worst_input`` is
    the Poincare-sphere point achieving the binding margin.
    """

    is_pre_mueller: bool
    intensity_margin: float
    lorentz_margin: float
    worst_input: np.ndarray


def sphere_quadratic_min(a, b) -> tuple[float, np.ndarray]:
    """Globally minimize s^T A s + 2 b^T s over the unit sphere ||s|| = 1.

    Stationary points satisfy (A - mu I) s = -b with the global minimum at
    the unique multiplier mu <= lambda_min(A).  In the eigenbasis of A, with
    eigenvalues lam and c = Q^T b, the sphere constraint reads
    det((diag(lam) - mu I)^2 - c c^T) = 0, so mu is the smallest real
    eigenvalue of the 2n x 2n matrix [[diag(lam), -I], [-c c^T, diag(lam)]]
    (6x6 for the cone test; Gander, Golub & von Matt 1989).  That matrix is
    solved shifted by lambda_min and with its off-diagonal blocks replaced
    by -diag(|c|) and the symmetric -v v^T, v = sign(c) |c|^1/2, which has
    the same characteristic polynomial (where c has no zero it is the
    diagonal similarity diag(|c|^1/2, |c|^-1/2)).  Its entries are then of
    size |c| instead of c^2, so the multiplier stays accurate to rounding
    even when b barely couples to the bottom eigenspace and mu sits next to
    lambda_min.

    Components off the bottom eigenspace are -c_i / (lam_i - mu).  The
    bottom-space components keep their direction and are rescaled to
    complete the unit length, so no component is divided by a gap that is
    not resolved in floating point.  When b has no component on the bottom
    eigenspace and the remaining components leave ||s|| < 1 at
    mu = lambda_min (the hard case, Adachi, Iwata, Nakatsukasa & Takeda
    2017), the solution is completed with a bottom eigenvector.

    The minimum always exists (continuous function on a compact set); the
    input matrix is symmetrized before use.  The problem is solved divided
    by the power of two that brings its largest entry into [1, 2), an exact
    rescaling, so the answer does not depend on the scale of a and b.

    Returns ``(value, s_star)``: the global minimum, evaluated at the unit
    vector ``s_star``, so achievable by construction.  An empty problem, or
    one whose minimum is beyond the float range, raises ValueError.
    """
    b = _array(b, (None,), "linear term b")
    if not len(b):
        raise ValueError("linear term b: expected at least one entry, got shape (0,)")
    a = _array(a, (len(b), len(b)), "quadratic form a")
    exponent = _unit_exponent(a, b)
    a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    value, s = sphere_min(0.5 * (a + a.T)[None], b[None])
    try:
        return math.ldexp(float(value[0]), exponent), s[0]
    except OverflowError:
        raise ValueError("a and b: the minimum is beyond the float range") from None


def certify_cone(m, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Decide whether ``m`` maps the solid Stokes cone into itself.

    Margins are reported in the raw units of ``m`` (the intensity margin
    scales linearly and the Lorentz margin quadratically under rescaling);
    the verdict threshold is applied to margins normalized by the largest
    singular value.  The Lorentz margin is computed on ``m / sigma`` and
    rescaled by ``sigma**2`` only for the report, so the verdict does not
    depend on the scale of ``m``.  A pure state mapped to the zero vector
    counts as the cone apex and is allowed.  Where the Lorentz margin is
    beyond the float range, from sigma between about 9.5e153 and 1.34e154
    on (the margin of m / sigma lies in [-2, 2]), FloatingPointError is
    raised.
    """
    cone = Analysis(as_mueller_matrix(m)[None], tol).cone
    return ConeVerdict(
        cone.ok[0], cone.intensity_margin[0], cone.lorentz_margin[0], np.array(cone.worst_input[0])
    )
