"""Shared construction utilities and independent oracles for the test suite.

Oracles here are deliberately written from scratch (entrywise tables,
brute-force grids) so they share no code path with the implementations they
check.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from muellercert import PAULI_BASIS, mueller_from_jones

#: Vectors of four entries, each zero or of magnitude 2**-20..2**20, and an
#: exponent k in -990..990: 2**k times such a vector is exact (every entry
#: stays a normal float), so any verdict on it must be the unscaled one.
EXACTLY_SCALABLE = st.lists(
    st.one_of(st.just(0.0), st.floats(2.0**-20, 2.0**20)).flatmap(lambda x: st.sampled_from([x, -x])),
    min_size=4,
    max_size=4,
)
SCALE_EXPONENT = st.integers(-990, 990)


def random_jones(rng, scale=1.0):
    return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def random_unit_det_jones(rng):
    """Random element of the unit-determinant 2x2 complex matrices."""
    while True:
        j = random_jones(rng)
        det = np.linalg.det(j)
        if abs(det) > 1e-3:
            return j / np.sqrt(det)


def random_lorentz(rng):
    """Random proper orthochronous Lorentz matrix (via a unit-det Jones map)."""
    return mueller_from_jones(random_unit_det_jones(rng))


def random_psd_h(rng, scale=1.0):
    b = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return b.conj().T @ b


def rotation_jones(axis, angle):
    """Unit-determinant Jones matrix of a Poincare rotation about a Pauli axis."""
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULI_BASIS[axis]


def boost_jones(axis, rapidity):
    """Unit-determinant hermitian Jones matrix of a pure boost (diattenuator)."""
    return np.cosh(rapidity / 2) * np.eye(2) + np.sinh(rapidity / 2) * PAULI_BASIS[axis]


def explicit_h_table(m):
    """Entrywise table for the associated hermitian matrix (independent of
    the basis-expansion implementation)."""
    M = np.asarray(m, dtype=float)
    H = np.empty((4, 4), dtype=complex)
    H[0, 0] = M[0, 0] + M[1, 1] + M[0, 1] + M[1, 0]
    H[0, 1] = M[0, 2] + M[1, 2] + 1j * (M[0, 3] + M[1, 3])
    H[0, 2] = M[2, 0] + M[2, 1] - 1j * (M[3, 0] + M[3, 1])
    H[0, 3] = M[2, 2] + M[3, 3] + 1j * (M[2, 3] - M[3, 2])
    H[1, 1] = M[0, 0] - M[1, 1] - M[0, 1] + M[1, 0]
    H[1, 2] = M[2, 2] - M[3, 3] - 1j * (M[2, 3] + M[3, 2])
    H[1, 3] = M[2, 0] - M[2, 1] - 1j * (M[3, 0] - M[3, 1])
    H[2, 2] = M[0, 0] - M[1, 1] + M[0, 1] - M[1, 0]
    H[2, 3] = M[0, 2] - M[1, 2] + 1j * (M[0, 3] - M[1, 3])
    H[3, 3] = M[0, 0] + M[1, 1] - M[0, 1] - M[1, 0]
    for i in range(4):
        for j in range(i):
            H[i, j] = np.conj(H[j, i])
    return 0.5 * H


def fibonacci_sphere(n):
    """n near-uniform points on the unit sphere (spiral lattice), shape (n, 3)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    radius = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)


def grid_quadratic_min(a, b, points):
    """Brute-force minimum of s^T a s + 2 b^T s over given unit vectors."""
    values = np.einsum("ni,ij,nj->n", points, a, points) + 2.0 * points @ b
    k = int(np.argmin(values))
    return float(values[k]), points[k]


# Thresholds of the reference solver below, relative to the problem scale.
_REFERENCE_GAP_EPS = 1e-12
_REFERENCE_COUPLING_EPS = 1e-14


def reference_sphere_quadratic_min(a, b) -> tuple[float, np.ndarray]:
    """Reference for ``sphere_quadratic_min``: an iterative secular solve.

    Globally minimize s^T A s + 2 b^T s over the unit sphere ||s|| = 1.

    Stationary points satisfy (A - mu I) s = -b with the global minimum at
    the unique multiplier mu <= lambda_min(A).  In the eigenbasis of A the
    constraint reads sum_i c_i^2 / (lam_i - mu)^2 = 1, a secular equation in
    mu solved by Newton iterations safeguarded with bisection on the bracket
    [lambda_min - ||b||, lambda_min].  When b has no component on the bottom
    eigenspace and the remaining components leave ||s|| < 1 at
    mu = lambda_min (the hard case), the solution is completed with a bottom
    eigenvector.

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

    lam, q = np.linalg.eigh(a)
    c = q.T @ b
    lam0 = lam[0]
    scale = max(abs(lam[0]), abs(lam[-1]), float(np.linalg.norm(b)), 1.0)

    gap = lam - lam0
    bottom = gap <= _REFERENCE_GAP_EPS * scale
    coupled = float(np.sum(c[bottom] ** 2))
    with np.errstate(divide="ignore"):
        tail = np.where(bottom, 0.0, (c / np.where(bottom, 1.0, gap)) ** 2)
    tail_sum = float(tail.sum())

    if coupled <= (_REFERENCE_COUPLING_EPS * scale) ** 2 and tail_sum <= 1.0:
        # Hard case: multiplier pinned at lambda_min, completed on the
        # bottom eigenspace to reach the sphere.
        s_eig = np.where(bottom, 0.0, -c / np.where(bottom, 1.0, gap))
        deficit = max(0.0, 1.0 - float(s_eig @ s_eig))
        s_eig[int(np.argmax(bottom))] += np.sqrt(deficit)
    else:
        mu = _reference_secular_root(lam, c, lam0)
        s_eig = -c / (lam - mu)

    s = q @ s_eig
    norm = float(np.linalg.norm(s))
    if norm > 0.0:
        s = s / norm
    value = float(s @ a @ s + 2.0 * (b @ s))
    return value, s


def _reference_secular_root(lam: np.ndarray, c: np.ndarray, lam0: float) -> float:
    """Solve ||s(mu)|| = 1 for mu in [lam0 - ||c||, lam0).

    Works on f(mu) = 1/||s(mu)|| - 1, which is monotone decreasing on the
    bracket; Newton steps are accepted only while they stay inside the
    current bisection bracket.
    """
    lo = lam0 - max(float(np.linalg.norm(c)), 1e-300)
    hi = lam0
    mu = lo
    for _ in range(200):
        d = lam - mu
        with np.errstate(divide="ignore", over="ignore"):
            w = float(np.sum((c / d) ** 2))
        if not np.isfinite(w):
            # On (or past) the pole: the norm is huge, so the root is left.
            hi = mu
            mu = 0.5 * (lo + hi)
            continue
        if w <= 0.0:  # unreachable in the easy case; defensive
            break
        norm = np.sqrt(w)
        f = 1.0 / norm - 1.0
        if abs(f) <= 1e-15:
            break
        if f > 0.0:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 1e-16 * max(1.0, abs(lam0)):
            break
        dw = 2.0 * float(np.sum(c**2 / d**3))
        fprime = -0.5 * dw / (w * norm)
        step_ok = fprime < 0.0 and np.isfinite(fprime)
        nxt = mu - f / fprime if step_ok else lo
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        mu = nxt
    # never return the pole itself: keep the solution components finite
    return min(mu, float(np.nextafter(lam0, -np.inf)))


def type2_canonical(d0, d1, d2, d3):
    """The non-diagonalizable canonical form with M01 fixed by the diagonal."""
    m = np.diag([d0, d1, d2, d3]).astype(float)
    m[0, 1] = d0 - d1
    return m


def pin_map(d0=1.0):
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 0] = d0
    return m


def polarizer_map(d0=1.0):
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 1] = m[1, 0] = m[1, 1] = d0
    return m


def align_phase(candidate, reference):
    """Rotate candidate's global phase to best match reference."""
    inner = np.vdot(candidate.reshape(-1), reference.reshape(-1))
    if abs(inner) == 0.0:
        return candidate
    return candidate * (inner / abs(inner))


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        val = float(f"{obj:.12g}")
        return 0.0 if val == 0.0 else val
    if isinstance(obj, dict):
        return {key: _round12(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(val) for val in obj]
    return obj


def reference_render_report(report) -> str:
    """Reference for ``render_report``: round, then the standard library's
    JSON encoder (pure Python under ``indent``)."""
    return json.dumps(_round12(report), indent=2, sort_keys=True) + "\n"


def bench_corpus():
    """The benchmark's corpus generator, ``bench/corpus.py``, read only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# An eigenvalue gap: a tie, a near tie on either side of the solver's
# degeneracy threshold, or a well-separated level.
_GAPS = st.one_of(
    st.just(0.0),
    st.floats(-16.0, -8.0).map(lambda e: 10.0**e),
    st.floats(0.0, 2.0),
)


@st.composite
def sphere_problems(draw):
    """(A, b) = (Q diag(lam) Q^T, Q c) with clustered or tied eigenvalues and
    a coupling of b to the bottom eigenvector between 1e-16 and 1."""
    lam0 = draw(st.floats(-1.0, 1.0))
    gap1, gap2 = draw(_GAPS), draw(_GAPS)
    lam = lam0 + np.array([0.0, gap1, gap1 + gap2])
    sign = draw(st.sampled_from([-1.0, 1.0]))
    coupling = sign * 10.0 ** draw(st.floats(-16.0, 0.0))
    c = np.array([coupling, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(lam) @ q.T, q @ c
