"""Seeded input generator for the benchmark.

Everything here is written from scratch: the library only ever receives the
matrices (or the files) built below.  The same seed gives the same corpus,
bit for bit, and every entry records its construction class and, where the
construction fixes it, its true verdict tier.

Tiers: ``mueller`` (physical), ``pre_only`` (maps the Stokes cone into
itself but unphysical), ``not_pre`` (does not preserve the cone).
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Pauli basis in the library's optical ordering (identity, sigma_z,
# sigma_x, sigma_y); the Stokes/Mueller convention follows from it.
_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
    ],
    dtype=complex,
)

# Every n-th exact input is rescaled by 10**k, with k in 1.._SCALE_UP for
# three in four of them and in -_SCALE_DOWN..-1 for the fourth.  Verdicts
# are scale invariant, so the true tier is the unscaled one.  The range
# stays clear of known scale defects that would fail a timed operation: the
# reported Lorentz margin goes wrong below about 1e-5 and above about 1e60,
# and beyond about 10**+-154 the analysis raises.  Those scales run as
# untimed defect probes instead (run.py).
_RESCALE_EVERY = 25
_SCALE_UP = 40
_SCALE_DOWN = 4


@dataclass(frozen=True)
class Entry:
    """One generated input: its matrix, construction class and true tier
    (None when the construction does not fix the tier)."""

    name: str
    cls: str
    m: np.ndarray
    tier: str | None


def mueller_of_jones(j: np.ndarray) -> np.ndarray:
    """M_ab = 1/2 tr(sigma_a J sigma_b J^dagger), the Mueller matrix of a
    deterministic system."""
    return 0.5 * np.einsum("aij,jk,bkl,li->ab", _PAULI, j, _PAULI, j.conj().T).real


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _lorentz(rng, max_rapidity: float = 1.0) -> np.ndarray:
    """Random proper orthochronous Lorentz matrix with bounded boost: the
    Mueller matrix of a unit-determinant Jones matrix rotation @ boost."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    eta = rng.uniform(0.0, max_rapidity)
    rot = np.cos(theta / 2) * _PAULI[0] - 1j * np.sin(theta / 2) * np.einsum(
        "i,ijk->jk", _unit_vector(rng), _PAULI[1:]
    )
    boost = np.cosh(eta / 2) * _PAULI[0] + np.sinh(eta / 2) * np.einsum(
        "i,ijk->jk", _unit_vector(rng), _PAULI[1:]
    )
    return mueller_of_jones(rot @ boost)


def _dress(rng, m: np.ndarray) -> np.ndarray:
    return _lorentz(rng) @ m @ _lorentz(rng)


def _tetra_slack(d) -> float:
    """Smallest slack of the four physicality inequalities of diag(d)."""
    d0, d1, d2, d3 = d
    return min(
        d0 + d1 + d2 + d3, d0 + d1 - d2 - d3, d0 - d1 - d2 + d3, d0 - d1 + d2 - d3
    )


def _diag_params(rng, inside: bool, k: int) -> np.ndarray:
    """(1, d1, d2, d3) in the cube, inside the tetrahedron (slack >= 0.05)
    or outside it (slack <= -0.05 and |d_i| <= 0.95, so the cone margin
    stays clear of zero).  Every fourth one is singular (d3 = 0)."""
    while True:
        d = np.concatenate([[1.0], rng.uniform(-0.95, 0.95, size=3)])
        if k % 4 == 3:
            d[3] = 0.0
        slack = _tetra_slack(d)
        if (slack >= 0.05) if inside else (slack <= -0.05):
            return d


def _jones(rng, k):
    j = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = mueller_of_jones(j)
    return m / m[0, 0], "mueller"


def _type1_in(rng, k):
    return _dress(rng, np.diag(_diag_params(rng, True, k))), "mueller"


def _type1_out(rng, k):
    return _dress(rng, np.diag(_diag_params(rng, False, k))), "pre_only"


def _type2(rng, k):
    # Canonical Type II form diag(d) + (d0 - d1) e0 e1^T with d0 > d1 > 0
    # and sqrt(d0 d1) >= d2 >= |d3|; physical exactly when d3 == d2.
    d1 = rng.uniform(0.3, 0.9)
    d2 = rng.uniform(0.2, 0.9) * np.sqrt(d1)
    physical = k % 2 == 0
    d3 = d2 if physical else -rng.uniform(0.2, 0.8) * d2
    m = np.diag([1.0, d1, d2, d3])
    m[0, 1] = 1.0 - d1
    return _dress(rng, m), "mueller" if physical else "pre_only"


def _rank_one(rng, k):
    # Output (1, n) lightlike; input weights (1, r m) with r = 1 (polarizer)
    # or r < 1 (pin map).  Both are measure-and-prepare maps, so physical.
    out = np.concatenate([[1.0], _unit_vector(rng)])
    r = 1.0 if k % 2 == 0 else rng.uniform(0.0, 0.8)
    weights = rng.uniform(0.5, 1.0) * np.concatenate([[1.0], r * _unit_vector(rng)])
    return np.outer(out, weights), "mueller"


def _over_unity(rng, k):
    d = np.array([1.0, 1.2, rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)])
    return _dress(rng, np.diag(d)), "not_pre"


# Exact construction classes, in equal shares.  Why each one is in the mix:
EXACT_CLASSES = (
    # rank-one H: the single-Jones path of mueller_jones_test, a cone
    # margin of exactly zero, and the degenerate outcome of type1_factor.
    ("jones", _jones),
    # generic Type I: type1_factor succeeds (every fourth is singular and
    # takes the not-Type-I outcome).
    ("type1_in", _type1_in),
    # the cone-preserving but unphysical tier, with a witness.
    ("type1_out", _type1_out),
    # the defective-spectrum branch of classify (SVD rank tests).
    ("type2", _type2),
    # N = 0: the rank-one Polarizer / PinMap branch of classify.
    ("rank_one", _rank_one),
    # not pre-Mueller: classify short-circuits after certify_cone.
    ("over_unity", _over_unity),
)


def exact_corpus(seed: int, per_class: int) -> list[Entry]:
    """per_class inputs of each exact class, interleaved class by class."""
    rng = np.random.default_rng([seed, 1])
    entries = []
    for k in range(per_class):
        for cls, build in EXACT_CLASSES:
            m, tier = build(rng, k)
            index = len(entries)
            if index % _RESCALE_EVERY == _RESCALE_EVERY - 1:
                if (index // _RESCALE_EVERY) % 4 == 3:
                    exp = -int(rng.integers(1, _SCALE_DOWN + 1))
                else:
                    exp = int(rng.integers(1, _SCALE_UP + 1))
                m = m * 10.0**exp
                cls = f"{cls}*1e{exp}"
            entries.append(Entry(f"x{index:05d}", cls, m, tier))
    return entries


def measured_corpus(seed: int, dirs: int, per_dir: int) -> list[list[Entry]]:
    """Directories of lab-like measurements: convex mixtures of 1-4 Jones
    systems normalized to m00 = 1, plus Gaussian noise on the other 15
    entries.  Noise levels are stratified over 1e-4..1e-2 (log scale) and
    the Jones counts cycle, so every directory holds the same mix; noise at
    this level puts many inputs near a verdict boundary, and the true tier
    is not fixed by the construction."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for dnum in range(dirs):
        entries = []
        for f in range(per_dir):
            systems = 1 + f % 4
            weights = rng.dirichlet(np.ones(systems))
            m = sum(
                w * mueller_of_jones(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                for w in weights
            )
            m = m / m[0, 0]
            noise = 10.0 ** (-4.0 + 2.0 * (f + rng.uniform()) / per_dir)
            jitter = rng.normal(scale=noise, size=(4, 4))
            jitter[0, 0] = 0.0
            entries.append(Entry(f"m{dnum:03d}_{f:03d}", f"mix{systems}", m + jitter, None))
        out.append(entries)
    return out


def write_matrix(path: Path, m: np.ndarray, as_json: bool) -> None:
    """Write one input file in either of the two formats the CLI reads."""
    if as_json:
        path.write_text(json.dumps({"mueller": m.tolist()}))
    else:
        rows = ("  ".join(repr(float(x)) for x in row) for row in m)
        path.write_text("# generated benchmark input\n" + "\n".join(rows) + "\n")
