"""Loop form of the segment-current interpolation, kept as the reference for the solver.

The function below is the package's interpolation as it was before the
vectorized form replaced it, copied without edits; tests compare
em_solver._interpolate_to_segments against it bit for bit.
"""

import numpy as np

from yagilab.em_solver import ModeBasis, WireGrid


def _interpolate_to_segments(
    basis: ModeBasis, amplitudes: np.ndarray, grid: WireGrid, k: float
) -> np.ndarray:
    """Evaluate the sinusoidal expansion at every segment center."""
    currents = np.zeros(grid.n_segments, dtype=complex)
    zc = grid.centers[:, 2]
    sin_lo = np.sin(k * basis.w_lo)
    sin_hi = np.sin(k * basis.w_hi)
    for m_idx in range(basis.n_modes):
        e = basis.element[m_idx]
        seg_sel = np.nonzero(grid.element == e)[0]
        z = zc[seg_sel]
        z0 = basis.z_peak[m_idx]
        lo = z0 - basis.w_lo[m_idx]
        hi = z0 + basis.w_hi[m_idx]
        beta = np.zeros(z.size)
        below = (z >= lo) & (z <= z0)
        above = (z > z0) & (z <= hi)
        beta[below] = np.sin(k * (z[below] - lo)) / sin_lo[m_idx]
        beta[above] = np.sin(k * (hi - z[above])) / sin_hi[m_idx]
        currents[seg_sel] += amplitudes[m_idx] * beta
    return currents
