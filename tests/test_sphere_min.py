"""``kernel.sphere_min`` against the stacked routine it replaced.

``sphere_min`` keeps its LAPACK calls and its sums of products on the whole
stack, and runs the elementwise steps between them per row on Python
floats.  :func:`_stacked_sphere_min` is the routine with every step on the
whole stack, kept here as the reference: the new one must give its bytes,
value and minimizer, alone and inside stacks.  The per-step premises below
it compare each Python expression with the numpy step it replaced, at
signed zeros, subnormals and the thresholds of the method.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muellercert import LORENTZ_METRIC, kernel

from helpers import bench_corpus, sphere_problems


def _stacked_lifted(gap, c):
    # the lifted matrices gathered from (N, n) arrays
    k, n = c.shape
    abs_c = np.abs(c)
    v = np.sign(c) * np.sqrt(abs_c)
    outer = (v[:, :, None] * v[:, None, :]).reshape(k, n * n)
    source = np.empty((k, n * (n + 2) + 2))
    source[:, -2:] = [0.0, -0.0]
    np.concatenate((gap, -abs_c, -outer), axis=1, out=source[:, :-2])
    return source[:, kernel._lifted_index(n)]


def _stacked_sphere_min(a, b):
    # sphere_min with every step on the whole stack, as it was written
    lam, q = kernel._eigh(a)
    kernel._converged(lam, "Eigenvalues")
    c = np.vecmat(b, q)
    scale = np.maximum(np.maximum(-lam[:, 0], lam[:, -1]), np.maximum(kernel._norm(b), 1.0))
    gap = lam - lam[:, :1]
    bottom = gap <= kernel._GAP_EPS * scale[:, None]
    s_eig = np.divide(-c, gap, out=np.zeros(c.shape), where=~bottom)
    tail_sq = np.vecdot(s_eig, s_eig)
    c_bottom = np.where(bottom, c, 0.0)
    hard = (
        np.vecdot(c_bottom, c_bottom) <= np.float_power(kernel._COUPLING_EPS * scale, 2)
    ) & (tail_sq <= 1.0)
    n_hard = np.count_nonzero(hard)
    if n_hard:
        s_eig[:, 0] = np.where(hard, np.sqrt(np.maximum(1.0 - tail_sq, 0.0)), 0.0)
    if n_hard < len(hard):
        easy = slice(None) if n_hard == 0 else ~hard
        c, gap, bottom = c[easy], gap[easy], bottom[easy]
        mu = kernel._converged(kernel._eigvals(_stacked_lifted(gap, c)), "Eigenvalues")
        shift = np.maximum(0.0, -mu.real.min(axis=-1))
        floor = np.maximum(shift, kernel._EPS * scale[easy])
        comp = -c / (gap + np.where(bottom, floor[:, None], shift[:, None]))
        s_easy = np.where(bottom, 0.0, comp)
        direction = comp - s_easy
        length = kernel._norm(direction)
        deficit = np.maximum(0.0, 1.0 - np.vecdot(s_easy, s_easy))
        grow = length > 0.0
        ratio = np.divide(np.sqrt(deficit), length, out=np.zeros(length.shape), where=grow)
        complete = bottom & grow[:, None]
        s_eig[easy] = np.where(complete, direction * ratio[:, None], s_easy)
    s = np.matvec(q, s_eig)
    norm = kernel._norm(s)
    s = np.divide(s, norm[:, None], out=s, where=norm[:, None] > 0.0)
    return np.vecdot(np.vecmat(s, a), s) + 2.0 * np.vecdot(b, s), s


def _same_bytes(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_stacked_bytes(a, b):
    """The reference's bytes for the whole stack, for each row alone and for
    stacks of 3 and 25 rows."""
    _same_bytes(kernel.sphere_min(a, b), _stacked_sphere_min(a, b))
    for size in (1, 3, 25):
        for k in range(0, len(a), size):
            part = a[k : k + size], b[k : k + size]
            _same_bytes(kernel.sphere_min(*part), _stacked_sphere_min(*part))


def _rotated(rng, lam, c):
    """(Q diag(lam) Q^T, Q c) for random orthogonal Q, symmetrized."""
    q, _ = np.linalg.qr(rng.normal(size=lam.shape + lam.shape[-1:]))
    a = q @ (lam[:, :, None] * np.eye(lam.shape[-1])) @ np.swapaxes(q, -1, -2)
    return 0.5 * (a + np.swapaxes(a, -1, -2)), np.matvec(q, c)


def _diagonal_or_rotated(rng, lam, c):
    """Half the problems diagonal, where eigh keeps exact ties and zero
    couplings, half rotated, where rounding splits them."""
    a, b = _rotated(rng, lam, c)
    plain = rng.random(len(lam)) < 0.5
    a[plain] = lam[plain][:, :, None] * np.eye(lam.shape[-1])
    b[plain] = c[plain]
    return a, b


def _clustered(rng, count, n, gaps):
    """Ascending spectra in [-1, 1] whose steps are drawn from ``gaps``."""
    steps = rng.choice(gaps, size=(count, n))
    steps[:, 0] = rng.uniform(-1.0, 1.0, size=count)
    return np.cumsum(steps, axis=1)


def _gaussian(rng, count, n):
    a = rng.normal(size=(count, n, n))
    return 0.25 * (a + np.swapaxes(a, -1, -2)), 0.5 * rng.normal(size=(count, n))


def _tied(rng, count, n):
    lam = _clustered(rng, count, n, [0.0, 0.0, 0.3, 1.0])
    c = rng.uniform(-1.0, 1.0, size=(count, n)) * rng.choice([1.0, 0.1], size=(count, 1))
    c[rng.random(c.shape) < 0.3] = 0.0
    return _diagonal_or_rotated(rng, lam, c)


def _hard(rng, count, n):
    # b off the bottom eigenspace, small enough to leave ||s|| < 1 there
    lam = _clustered(rng, count, n, [0.0, 0.5, 1.0])
    c = rng.uniform(-0.1, 0.1, size=(count, n))
    c[lam - lam[:, :1] == 0.0] = 0.0
    return _diagonal_or_rotated(rng, lam, c)


def _near_hard(rng, count, n):
    # bottom couplings around the hard-case threshold 1e-14 * scale
    lam = _clustered(rng, count, n, [0.0, 1e-3, 0.5, 1.0])
    c = rng.uniform(-0.2, 0.2, size=(count, n))
    couplings = [1e-16, 5e-15, 1e-14, 1.5e-14, 1e-13, 1e-12, 1e-9]
    c[:, 0] = rng.choice(couplings, size=count) * rng.choice([-1.0, 1.0], size=count)
    return _diagonal_or_rotated(rng, lam, c)


def _zero_coupling(rng, count, n):
    # zero couplings of either sign and 1e-16 ones, with tails on both sides
    # of the unit length: the easy ones reach the lifted matrices
    lam = _clustered(rng, count, n, [0.0, 1e-13, 0.05, 0.5])
    c = rng.uniform(-1.0, 1.0, size=(count, n)) * rng.choice([0.01, 1.0], size=(count, 1))
    zeros = rng.random(c.shape) < 0.5
    c[zeros] = rng.choice([0.0, -0.0, 1e-16, -1e-16], size=np.count_nonzero(zeros))
    return _diagonal_or_rotated(rng, lam, c)


def _near_tied(rng, count, n):
    # gaps around the degeneracy threshold 1e-12 * scale, weakly coupled
    lam = _clustered(rng, count, n, [5e-13, 1e-12, 1.0000001e-12, 2e-12, 1e-11, 0.4])
    c = rng.uniform(-1.0, 1.0, size=(count, n)) * rng.choice([1e-11, 1e-3, 1.0], size=(count, 1))
    return _diagonal_or_rotated(rng, lam, c)


def _thresholds():
    """n = 1 problems exactly at the hard-case threshold: b = 1e-14 s at
    scale s, where x * x rounds above x ** 2.0, so the square of the
    threshold must be C pow."""
    found = []
    for s in np.linspace(1.0, 1.9, 200_000).tolist():
        x = kernel._COUPLING_EPS * s
        if x * x > x**2.0:
            found.append((s, x))
        if len(found) == 8:
            break
    assert len(found) == 8
    a = np.array([[[s]] for s, _ in found] + [[[-s]] for s, _ in found])
    b = np.array([[x] for _, x in found] + [[-x] for _, x in found])
    return a, b


_KINDS = {
    "gaussian": _gaussian,
    "tied": _tied,
    "hard": _hard,
    "near-hard": _near_hard,
    "zero-coupling": _zero_coupling,
    "near-tied": _near_tied,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_sphere_min_gives_the_stacked_bytes(kind, n):
    rng = np.random.default_rng([n, sorted(_KINDS).index(kind)])
    _assert_stacked_bytes(*_KINDS[kind](rng, 75, n))


def test_sphere_min_gives_the_stacked_bytes_at_the_thresholds():
    _assert_stacked_bytes(*_thresholds())
    # n = 2 gaps at and just above the degeneracy threshold 1e-12 of scale
    # 1, from bottoms at 0, -1e-12 and, rounded, 0.5
    gap = np.array([[0.0, 1e-12], [0.0, 1.0000000000000002e-12], [-1e-12, 0.0]])
    lam = np.concatenate([gap, gap]) + np.repeat([[0.0], [0.5]], 3, axis=0)
    a = lam[:, :, None] * np.eye(2)
    _assert_stacked_bytes(a, np.tile([[1e-15, 0.3]], (6, 1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(sphere_problems(), min_size=1, max_size=25))
def test_sphere_min_gives_the_stacked_bytes_on_drawn_problems(problems):
    a = np.array([a for a, _ in problems])
    _assert_stacked_bytes(0.5 * (a + np.swapaxes(a, -1, -2)), np.array([b for _, b in problems]))


def test_sphere_min_gives_the_stacked_bytes_on_the_cone_inputs():
    # the cone stage's problems over the benchmark's exact corpus
    mats = np.stack([entry.m for entry in bench_corpus().exact_corpus(1, 100)])
    quad = LORENTZ_METRIC @ kernel.Analysis(mats)._nmat
    quad = 0.5 * (quad + np.swapaxes(quad, -1, -2))
    _assert_stacked_bytes(quad[:, 1:, 1:], quad[:, 0, 1:])


def test_sphere_min_of_an_empty_stack():
    value, s = kernel.sphere_min(np.zeros((0, 3, 3)), np.zeros((0, 3)))
    assert value.shape == (0,) and s.shape == (0, 3)


# Premises of the per-row steps: each Python expression gives the bits of the
# numpy step it replaced, over signed zeros, subnormals, the thresholds and
# random values.
_EDGES = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-28, 1e-16, 2.220446049250313e-16]
_EDGES += [1e-14, 1e-12, 0.25, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.5, 2.0, 3.0, 1e150]
_SIGNED = [v for x in _EDGES for v in (x, -x)]


def _values(seed, low=-2.0, high=2.0, size=2000):
    """Edge values within [low, high] and random ones, decades apart."""
    rng = np.random.default_rng(seed)
    random = rng.uniform(low, high, size=size) * 10.0 ** rng.uniform(-20.0, 0.0, size=size)
    return np.array([x for x in _SIGNED if low <= x <= high] + random.tolist())


def _pairs(x, y):
    """Every pair of the first 40 values of x and y, edges included, and the
    rest of x and y pair by pair."""
    pairs = [(u, v) for u in x[:40] for v in y[:40]] + list(zip(x[40:], y[40:]))
    return (np.array(column) for column in zip(*pairs))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_scale_is_the_nested_maximum():
    # the spectral scale, at least 1.0, so equal arguments leave no choice
    lo, hi = _pairs(_values(1), _values(2))
    bb = np.resize(np.abs(_values(3)), lo.shape)
    want = np.maximum(np.maximum(-lo, hi), np.maximum(np.sqrt(bb), 1.0))
    got = [max(-x, y, math.sqrt(z), 1.0) for x, y, z in zip(lo.tolist(), hi.tolist(), bb.tolist())]
    assert _bits(got) == want.tobytes()


def test_bottom_prefix_is_the_mask():
    # the gaps of an ascending spectrum, which grow, so the bottom
    # eigenspace is the prefix that the loop counts
    rng = np.random.default_rng(4)
    steps = rng.choice([0.0, 5e-13, 1e-12, 1.0000000000000002e-12, 0.3], size=(3000, 4))
    steps[:, 0] = rng.choice(_SIGNED, size=3000)
    lam = np.cumsum(steps, axis=1)
    limit = kernel._GAP_EPS * rng.choice([1.0, 1.5, 2.0], size=3000)
    gap = lam - lam[:, :1]
    mask = gap <= limit[:, None]
    for row, lr, bound, bottom in zip(gap.tolist(), lam.tolist(), limit.tolist(), mask.tolist()):
        assert _bits([x - lr[0] for x in lr]) == _bits(row)
        k = 1
        while k < len(row) and row[k] <= bound:
            k += 1
        assert bottom == [True] * k + [False] * (len(row) - k)


def test_components_are_the_numpy_division():
    # -c / gap off the bottom eigenspace, and -c / (gap + shift) or
    # -c / (gap + floor): every denominator is positive, and a shift can be
    # -0.0 (np.maximum(0.0, -0.0))
    x, g = _pairs(_values(5), np.abs(_values(6)) + 1e-12)
    want = np.divide(-x, g, out=np.zeros(x.shape), where=g > 0.0)
    assert _bits([-u / v for u, v in zip(x.tolist(), g.tolist())]) == want.tobytes()
    g, shift = _pairs(np.abs(_values(7)) + 1e-12, np.maximum(0.0, -_values(8)))
    assert _bits([u + v for u, v in zip(g.tolist(), shift.tolist())]) == (g + shift).tobytes()


def test_coupling_threshold_is_float_power():
    # (1e-14 * scale) ** 2.0 over the scales sphere_min meets, 1 and up
    scale = np.concatenate([[1.0, 1.5, 2.0, 3.0], 1.0 + np.abs(_values(9))])
    x = kernel._COUPLING_EPS * scale
    assert _bits([u**2.0 for u in x.tolist()]) == np.float_power(x, 2).tobytes()


def test_hard_completion_needs_no_clamp():
    # tail_sq <= 1.0 in a hard row, so 1.0 - tail_sq is at least +0.0
    t = np.concatenate([[1.0, 1.0 - 2.0**-53, 0.0, 5e-324], np.abs(_values(10, -1.0, 1.0))])
    want = np.sqrt(np.maximum(1.0 - t, 0.0))
    assert _bits([math.sqrt(1.0 - u) for u in t.tolist()]) == want.tobytes()


def test_signed_root_keeps_numpy_sign_of_zero():
    # v = sign(c) |c|^1/2: np.sign(-0.0) is 0.0, while copysign keeps -0.0
    c = _values(11)
    want = (np.sign(c) * np.sqrt(np.abs(c))).tobytes()
    got = [math.copysign(math.sqrt(abs(y)), y) if y else 0.0 for y in c.tolist()]
    assert _bits(got) == want
    assert _bits([math.copysign(math.sqrt(abs(y)), y) for y in c.tolist()]) != want


def test_shift_and_floor_are_the_numpy_maximum():
    # np.maximum keeps the second of equal arguments and max the first, so
    # the clamp is written max(-low, 0.0)
    low = _values(12)
    want = np.maximum(0.0, -low)
    assert _bits([max(-x, 0.0) for x in low.tolist()]) == want.tobytes()
    assert _bits([max(0.0, -x) for x in low.tolist()]) != want.tobytes()
    shift, scale = _pairs(want, 1.0 + np.abs(_values(13)))
    floor = np.maximum(shift, kernel._EPS * scale)
    got = [max(u, kernel._EPS * v) for u, v in zip(shift.tolist(), scale.tolist())]
    assert _bits(got) == floor.tobytes()


def test_deficit_and_ratio_are_the_numpy_steps():
    # deficit = max(0, 1 - ||s_easy||^2), ratio = sqrt(deficit) / length
    # where length > 0 and 0.0 elsewhere, then the completed components
    easy_sq, length = _pairs(np.abs(_values(14, 0.0, 3.0)), np.abs(_values(15)))
    deficit = np.maximum(0.0, 1.0 - easy_sq)
    assert _bits([max(1.0 - t, 0.0) for t in easy_sq.tolist()]) == deficit.tobytes()
    grow = length > 0.0
    # a subnormal length overflows the ratio to inf on both sides
    with np.errstate(over="ignore"):
        ratio = np.divide(np.sqrt(deficit), length, out=np.zeros(length.shape), where=grow)
    got = [
        math.sqrt(d) / r if r > 0.0 else 0.0 for d, r in zip(deficit.tolist(), length.tolist())
    ]
    assert _bits(got) == ratio.tobytes()
    direction = np.resize(_values(16), ratio.shape)
    got = [x * r for x, r in zip(direction.tolist(), ratio.tolist())]
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bits(got) == (direction * ratio).tobytes()


def test_normalization_divides_by_one_on_zero_rows():
    # s / sqrt(s.s) where that is positive, s unchanged where it is zero:
    # x / 1.0 is x, signed zeros included, and rows of subnormals whose
    # squares vanish are zero rows too
    values = _values(17)
    rows = values[: len(values) // 3 * 3].reshape(-1, 3)
    s = np.concatenate([[[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]], rows])
    norm = kernel._norm(s)
    want = np.divide(s, norm[:, None], out=s.copy(), where=norm[:, None] > 0.0)
    divisor = np.array([math.sqrt(x) or 1.0 for x in np.vecdot(s, s).tolist()])
    assert (s / divisor[:, None]).tobytes() == want.tobytes()
    assert np.count_nonzero(norm == 0.0) >= 2
