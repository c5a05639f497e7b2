"""Slow general forms that the library replaced, kept as references for differential tests."""

import math

import numpy as np

from qubitlab import bell
from qubitlab.boxes import TsirelsonScan
from qubitlab.hilbert import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, unit_vector


def measurement_operator(direction) -> np.ndarray:
    """Spin component along a unit direction: a.sigma, eigenvalues +1/-1."""
    a = unit_vector(direction, "measurement direction")
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (I +/- a.sigma)/2 of the direction's spin operator."""
    op = measurement_operator(direction)
    return (ID2 + op) / 2.0, (ID2 - op) / 2.0


def matrix_scan(
    kind: bell.BellKind = bell.BellKind.SINGLET,
    plane: str = "xz",
    n: int = 180,
    alice_angles: tuple[float, float] = (0.0, math.pi / 2.0),
) -> TsirelsonScan:
    """The n x n tsirelson_scan: the CHSH value at every grid pair in three n x n buffers.

    The correlators are computed as in boxes.tsirelson_scan; the maximum over
    sign placements is taken at each grid pair and the first row-major argmax wins.
    """
    plane = bell.resolve_plane(kind, plane)
    grid = np.arange(n) * (math.pi / n)
    a = bell.plane_direction(plane, alice_angles) * kind.pauli_signs  # [x, i]
    b = bell.plane_direction(plane, grid)  # [k, i]
    e = a[:, :1] * b[:, 0] + a[:, 1:2] * b[:, 1] + a[:, 2:] * b[:, 2]  # [x, k]
    s = e[0] + e[1]
    total = s[:, None] + s[None, :]  # [k0, k1]
    best = np.zeros_like(total)
    term = np.empty_like(total)
    for corr in (e[0][:, None], e[0][None, :], e[1][:, None], e[1][None, :]):
        np.subtract(total, 2.0 * corr, out=term)
        np.maximum(best, np.abs(term, out=term), out=best)
    k0, k1 = np.unravel_index(int(best.argmax()), best.shape)
    return TsirelsonScan(
        float(best[k0, k1]), float(grid[k0]), float(grid[k1]), n, kind, plane, tuple(alice_angles)
    )
