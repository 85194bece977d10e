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

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL
from .kernel import Analysis, ConeStage, sphere_min


@dataclass(frozen=True)
class ConeVerdict:
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
    input matrix is symmetrized before use.

    Returns ``(value, s_star)``: the global minimum and a unit vector
    attaining it.  ``value`` is evaluated at the returned point, so it is
    achievable by construction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    a = 0.5 * (a + a.T)
    value, s = sphere_min(a[None], b[None])
    return float(value[0]), s[0]


def _verdict_row(cone: ConeStage, i: int) -> ConeVerdict:
    return ConeVerdict(
        bool(cone.ok[i]),
        float(cone.intensity_margin[i]),
        float(cone.lorentz_margin[i]),
        cone.worst_input[i].copy(),
    )


def certify_cone(m, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Decide whether ``m`` maps the solid Stokes cone into itself.

    Margins are reported in the raw units of ``m`` (the intensity margin
    scales linearly and the Lorentz margin quadratically under rescaling);
    the verdict threshold is applied to margins normalized by the largest
    singular value.  The Lorentz margin is computed on ``m / sigma`` and
    rescaled by ``sigma**2`` only for the report, so the verdict does not
    depend on the scale of ``m``.  A pure state mapped to the zero vector
    counts as the cone apex and is allowed.
    """
    return _verdict_row(Analysis(m, tol).cone, 0)
