"""Correctness oracle for analyze reports, sharing no code with the library.

Each check is one-sided where only one direction can be decided cheaply:
a dense sphere grid can expose a false "cone-preserving" verdict but can
never prove one, so a positive verdict is checked against the grid and a
negative verdict against the input it names.  Physicality is decided from an
entrywise table of the associated hermitian matrix plus ``eigvalsh``, with a
gray band around zero where either verdict is accepted.
"""

import numpy as np

# Slack on the library's relative tolerance (1e-9) for one-sided checks.
_CONE_SLACK = 2e-9
# |lambda_min| below this share of the spectral scale accepts either verdict.
_PHYS_BAND = 1e-7
_EIG_RTOL = 1e-8
_ECHO_RTOL = 1e-11


def h_table(m) -> np.ndarray:
    """Associated hermitian matrix, entry by entry (optical Pauli ordering
    identity, sigma_z, sigma_x, sigma_y; row-major vectorization)."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (
        m30,
        m31,
        m32,
        m33,
    ) = np.asarray(m, dtype=float)
    h = np.empty((4, 4), dtype=complex)
    h[0, 0] = m00 + m01 + m10 + m11
    h[1, 1] = m00 - m01 + m10 - m11
    h[2, 2] = m00 + m01 - m10 - m11
    h[3, 3] = m00 - m01 - m10 + m11
    h[0, 1] = (m02 + m12) + 1j * (m03 + m13)
    h[0, 2] = (m20 + m21) - 1j * (m30 + m31)
    h[0, 3] = (m22 + m33) + 1j * (m23 - m32)
    h[1, 2] = (m22 - m33) - 1j * (m23 + m32)
    h[1, 3] = (m20 - m21) - 1j * (m30 - m31)
    h[2, 3] = (m02 - m12) + 1j * (m03 - m13)
    for j in range(4):
        for k in range(j):
            h[j, k] = h[k, j].conjugate()
    return 0.5 * h


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors (golden-angle spiral), shape (n, 3)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_GRID_INPUTS = np.hstack([np.ones((4096, 1)), fibonacci_sphere(4096)])


def report_tier(report: dict) -> str:
    if report["physicality"]["verdict"]:
        return "mueller"
    if report["pre_mueller"]["verdict"]:
        return "pre_only"
    return "not_pre"


def _output_margins(m: np.ndarray, inputs: np.ndarray):
    """Output intensity and Lorentz form for unit-intensity pure inputs."""
    out = inputs @ m.T
    return out[:, 0], out[:, 0] ** 2 - np.sum(out[:, 1:] ** 2, axis=1)


def check_report(m, report: dict, truth: str | None = None) -> list[str]:
    """Problems found in one analyze report of matrix ``m`` (empty if none).

    ``truth`` is the tier fixed by the input's construction, if any.
    """
    m = np.asarray(m, dtype=float)
    problems = []
    scale = float(np.abs(m).max())
    echo = np.asarray(report["input_echo"], dtype=float).reshape(4, 4)
    if np.abs(echo - m).max() > _ECHO_RTOL * scale:
        problems.append("input_echo differs from the input")

    phys = report["physicality"]
    lam = np.linalg.eigvalsh(h_table(m))
    lam_scale = max(abs(lam[0]), abs(lam[-1]))
    if phys["verdict"] and lam[0] < -_PHYS_BAND * lam_scale:
        problems.append(f"reported Mueller but lambda_min = {lam[0]:.3g}")
    if not phys["verdict"] and lam[0] > _PHYS_BAND * lam_scale:
        problems.append(f"reported not Mueller but lambda_min = {lam[0]:.3g}")
    eigs = np.asarray(phys["eigenvalues"], dtype=float)
    if eigs.shape != (4,) or np.abs(eigs - lam[::-1]).max() > _EIG_RTOL * lam_scale:
        problems.append("reported spectrum differs from eigvalsh of the H table")

    pre = report["pre_mueller"]
    sigma = float(np.linalg.norm(m, 2))
    intensity, lorentz = _output_margins(m, _GRID_INPUTS)
    slack_i, slack_l = _CONE_SLACK * sigma, _CONE_SLACK * sigma**2
    if pre["verdict"]:
        if intensity.min() < -slack_i or lorentz.min() < -slack_l:
            problems.append("reported cone-preserving but a grid input leaves the cone")
    else:
        s = np.asarray(pre["worst_input"], dtype=float)
        i_w, l_w = _output_margins(m, np.concatenate([[1.0], s])[None, :])
        if not (i_w[0] < 0.0 or l_w[0] < 0.0):
            problems.append("reported not cone-preserving but worst_input stays inside")
    if pre["intensity_margin"] > intensity.min() + slack_i:
        problems.append("intensity margin exceeds the grid minimum")
    if pre["lorentz_margin"] > lorentz.min() + slack_l:
        problems.append("Lorentz margin exceeds the grid minimum")

    if phys["verdict"] and not pre["verdict"]:
        problems.append("Mueller but not pre-Mueller")
    if report["witness"]["present"] == bool(phys["verdict"]):
        problems.append("witness presence does not match the physicality verdict")
    if truth is not None and report_tier(report) != truth:
        problems.append(f"tier {report_tier(report)} but constructed as {truth}")
    return problems
